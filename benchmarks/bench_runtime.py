"""Experiment S6 — synthesis runtime (the paper's CPU-time remark).

"SEANCE takes about four seconds of CPU time on a Digital Equipment
VAXStation 3100 to run an example."  (Paper Section 6.)

Absolute numbers are incomparable across 35 years of hardware; the
reproduction's claim is that each example synthesises well inside the
paper's envelope, and the per-stage breakdown shows where the time goes
(assignment and factoring dominate, as the paper's discussion of the
covering steps suggests).

This module also measures the *pipeline* itself: ``BatchRunner``
synthesis of the whole benchmark suite, cold versus warm in-memory
result store (a ``MemoryBackend``, the one way to reuse a result).
Run standalone —

    PYTHONPATH=src python benchmarks/bench_runtime.py

— to (re)generate ``BENCH_pipeline.json`` at the repository root.
"""

import json
import time
from pathlib import Path

import pytest

from conftest import print_table
from repro.bench import TABLE1_BENCHMARKS, benchmark_names, load_all
from repro.bench import benchmark as load_bench
from repro.api import load, synthesize
from repro.pipeline import BatchRunner
from repro.store import MemoryBackend, ResultStore

_rows: list[tuple] = []


@pytest.mark.parametrize("name", TABLE1_BENCHMARKS)
def test_synthesis_runtime(benchmark, name):
    table = load_bench(name)
    result = benchmark(synthesize, table)
    stages = result.stage_seconds
    dominant = max(stages, key=stages.get)
    _rows.append(
        (
            name,
            f"{result.total_seconds * 1000:.1f}",
            dominant,
            f"{stages[dominant] * 1000:.1f}",
        )
    )
    benchmark.extra_info["dominant_stage"] = dominant
    # well inside the paper's 4-second envelope
    assert result.total_seconds < 4.0


def test_warm_store_synthesis_runtime(benchmark):
    """A warm result store serves repeat synthesis without a pass."""
    session = load("lion9", store=MemoryBackend())
    cold_start = time.perf_counter()
    session.run()
    cold = time.perf_counter() - cold_start

    warm_start = time.perf_counter()
    session.run()
    assert time.perf_counter() - warm_start < cold

    _, report = benchmark(session.run_with_report)
    assert report.store_hit
    assert report.events == []


def test_print_runtime(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if _rows:
        print_table(
            "Section 6 — synthesis CPU time "
            "(paper: ~4 s/example on a VAXStation 3100)",
            ["Benchmark", "total (ms)", "dominant stage", "stage (ms)"],
            _rows,
        )


# ----------------------------------------------------------------------
# BENCH_pipeline.json — suite synthesis time and warm-store speedup.

def _time_batch(tables, store=None):
    start = time.perf_counter()
    items = BatchRunner(store=store).run(tables)
    elapsed = time.perf_counter() - start
    failures = [item.name for item in items if not item.ok]
    assert not failures, f"benchmarks failed to synthesise: {failures}"
    return elapsed, items


def measure_pipeline(rounds: int = 3) -> dict:
    """No-store vs cold-store vs warm-store timings over the whole suite.

    The store is in memory (a :class:`MemoryBackend`), so the warm runs
    time reading and verifying whole results, not disk I/O.  ``rounds``
    repeats each measurement and keeps the minimum (the usual
    noise-floor estimator for sub-second wall-clock benchmarks).
    """
    tables = list(load_all().values())

    serial = min(_time_batch(tables)[0] for _ in range(rounds))

    store = ResultStore(MemoryBackend())
    cold, _ = _time_batch(tables, store=store)
    warm = min(_time_batch(tables, store=store)[0] for _ in range(rounds))
    assert store.hits == rounds * len(tables), "warm run missed the store"

    import os

    return {
        "suite": list(benchmark_names()),
        "machines": len(tables),
        "cpu_count": os.cpu_count(),
        "rounds": rounds,
        "serial_seconds": round(serial, 6),
        "store_cold_seconds": round(cold, 6),
        "store_warm_seconds": round(warm, 6),
        "store_speedup": round(cold / warm, 3),
    }


def test_pipeline_speedups(benchmark):
    """The claims BENCH_pipeline.json records, asserted coarsely."""
    stats = benchmark.pedantic(
        measure_pipeline, kwargs={"rounds": 1}, rounds=1, iterations=1
    )
    # The warm store must be a clear win.
    assert stats["store_speedup"] > 2.0


def main() -> int:
    out = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
    stats = measure_pipeline()
    stats["generated_by"] = "benchmarks/bench_runtime.py"
    out.write_text(json.dumps(stats, indent=2) + "\n")
    print(json.dumps(stats, indent=2))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
