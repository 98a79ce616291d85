"""Experiment S6 — synthesis runtime (the paper's CPU-time remark).

"SEANCE takes about four seconds of CPU time on a Digital Equipment
VAXStation 3100 to run an example."  (Paper Section 6.)

Absolute numbers are incomparable across 35 years of hardware; the
reproduction's claim is that each example synthesises well inside the
paper's envelope, and the per-stage breakdown shows where the time goes
(assignment and factoring dominate, as the paper's discussion of the
covering steps suggests).

This module also measures the *pipeline* itself: ``BatchRunner``
synthesis of the whole benchmark suite, cold versus warm stage cache.
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
from repro.api import synthesize
from repro.pipeline import BatchRunner, PassManager, StageCache

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


def test_warm_cache_synthesis_runtime(benchmark):
    """A warm stage cache collapses repeat synthesis to cache restores."""
    manager = PassManager(cache=StageCache())
    table = load_bench("lion9")
    cold_start = time.perf_counter()
    manager.run(table)
    cold = time.perf_counter() - cold_start

    warm_result = benchmark(manager.run, table)
    assert warm_result.total_seconds < cold
    assert manager.last_report is not None
    assert len(manager.last_report.cache_hits) == len(
        warm_result.stage_seconds
    )


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
# BENCH_pipeline.json — suite synthesis time and stage-cache speedup.

def _time_batch(tables, cache=None):
    start = time.perf_counter()
    items = BatchRunner(cache=cache).run(tables)
    elapsed = time.perf_counter() - start
    failures = [item.name for item in items if not item.ok]
    assert not failures, f"benchmarks failed to synthesise: {failures}"
    return elapsed, items


def measure_pipeline(rounds: int = 3) -> dict:
    """Uncached vs cold-cache vs warm-cache timings over the whole suite.

    ``rounds`` repeats each measurement and keeps the minimum (the usual
    noise-floor estimator for sub-second wall-clock benchmarks).
    """
    tables = list(load_all().values())

    serial = min(_time_batch(tables)[0] for _ in range(rounds))

    cache = StageCache()
    cold, _ = _time_batch(tables, cache=cache)
    warm = min(_time_batch(tables, cache=cache)[0] for _ in range(rounds))
    assert cache.hits > 0, "warm run never hit the stage cache"

    import os

    return {
        "suite": list(benchmark_names()),
        "machines": len(tables),
        "cpu_count": os.cpu_count(),
        "rounds": rounds,
        "serial_seconds": round(serial, 6),
        "cache_cold_seconds": round(cold, 6),
        "cache_warm_seconds": round(warm, 6),
        "cache_speedup": round(cold / warm, 3),
    }


def measure_property_suite(
    num_tables: int = 20, replays: int = 2, rounds: int = 3
) -> dict:
    """The hypothesis-workload speedup of the session-scoped test cache.

    ``tests/test_end_to_end.py`` routes all synthesis through the
    session-scoped stage cache in ``tests/strategies.py``
    (``REPRO_TEST_CACHE=off`` disables it).  A hypothesis suite's repeat
    structure is *replays*: the same (shrunk or database-stored) table
    re-synthesised across attempts and test functions.  This measures
    exactly that workload on the suite's own strategy — ``num_tables``
    strategy-drawn tables synthesised once cold, then ``replays`` more
    times — with the shared cache versus without.  The cold pass pays
    the cache's store overhead; every replay pass is pure hits.
    """
    import sys

    repo = Path(__file__).resolve().parent.parent
    if str(repo) not in sys.path:
        sys.path.insert(0, str(repo))

    from hypothesis import HealthCheck, given, seed, settings

    from repro.flowtable.validation import (
        check_stability,
        check_strongly_connected,
    )
    from tests.strategies import normal_mode_tables

    tables: list = []

    @seed(0)
    @settings(
        max_examples=num_tables,
        deadline=None,
        database=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(normal_mode_tables(max_states=3, max_inputs=2,
                              allow_unspecified=False))
    def collect(table):
        # The same filter the end-to-end suite assumes: synthesisable
        # tables only.
        if not check_strongly_connected(table) and not check_stability(table):
            tables.append(table)

    collect()

    def run_workload(cache):
        manager = PassManager(cache=cache)
        start = time.perf_counter()
        for _ in range(1 + replays):
            for table in tables:
                manager.run(table)
        return time.perf_counter() - start

    uncached = min(run_workload(None) for _ in range(rounds))
    cached = min(run_workload(StageCache()) for _ in range(rounds))
    return {
        "property_workload_tables": len(tables),
        "property_workload_replays": replays,
        "property_workload_uncached_seconds": round(uncached, 6),
        "property_workload_cached_seconds": round(cached, 6),
        "property_workload_cache_speedup": round(uncached / cached, 3),
    }


def test_pipeline_speedups(benchmark):
    """The claims BENCH_pipeline.json records, asserted coarsely."""
    stats = benchmark.pedantic(
        measure_pipeline, kwargs={"rounds": 1}, rounds=1, iterations=1
    )
    # The warm cache must be a clear win.
    assert stats["cache_speedup"] > 2.0


def main() -> int:
    out = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"
    stats = measure_pipeline()
    stats.update(measure_property_suite())
    stats["generated_by"] = "benchmarks/bench_runtime.py"
    out.write_text(json.dumps(stats, indent=2) + "\n")
    print(json.dumps(stats, indent=2))
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
