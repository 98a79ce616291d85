"""Scaling workload for the packed-bitset two-level logic engine.

The bitset rewrite (PR 3) re-implements the Quine-McCluskey/covering hot
paths on packed big-int bitsets (:mod:`repro.logic.bitset`); the original
per-minterm set engine is retained in :mod:`repro.logic._reference`.
This workload quantifies the difference on *wide* synthetic functions —
seeded, deterministic unions of random cubes from 8 variables up to
:data:`repro.logic.bitset.MAX_WIDTH` — and on randomly generated
flow tables synthesised end-to-end, then records the numbers to
``BENCH_logic.json`` at the repository root:

    PYTHONPATH=src python benchmarks/bench_logic.py

Per width the timed task is the full two-level pass a synthesis stage
performs: prime generation, useful-prime filtering, minimum-cover
selection, and a static-hazard scan of the chosen cover.  Both engines
run the same instances (the reference is skipped above
``--reference-max-width``, where per-minterm object churn becomes
minutes-per-instance) and their outputs are asserted identical before a
timing is accepted.

CI runs ``--check``: a reduced re-measurement that fails when the
suite-level synthesis time regresses more than 2x against the committed
``BENCH_logic.json`` baseline, or when the wide-function speedup
collapses below the acceptance floor.
"""

import argparse
import json
import random
import time
from pathlib import Path

import sys

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.bench import load_all
from repro.bench.suite import random_flow_table
from repro.api import synthesize
from repro.hazards.logic_hazards import static_one_hazards
from repro.logic import _reference as ref
from repro.logic.cover import minimal_cover
from repro.logic.cube import Cube
from repro.logic.function import MAX_WIDTH, BooleanFunction
from repro.logic.quine_mccluskey import prime_implicants, useful_primes

#: Default instance seed; every generated function and flow table is a
#: pure function of (SEED, width/positions), so reruns are reproducible.
SEED = 20260729

#: Widths measured engine-vs-reference, and engine-only beyond.  The
#: engine-only tail ends at :data:`~repro.logic.bitset.MAX_WIDTH` (22),
#: the widest space one dense 2^width-bit int per coverage mask serves.
WIDTHS_BOTH = (8, 10, 12, 14, 16)
WIDTHS_ENGINE_ONLY = (18, 20, MAX_WIDTH)

#: Acceptance floor (ISSUE 3): at width >= 16 the bitset engine must be
#: at least this much faster than the retained reference engine.
MIN_WIDE_SPEEDUP = 5.0


def wide_function(width: int, seed: int = SEED) -> BooleanFunction:
    """A deterministic merge-heavy function of ``width`` variables.

    The on/dc sets are unions of random cubes with most variables bound,
    which keeps the care set large and adjacency-rich (the regime where
    tabulation levels actually merge) without being the full space.
    """
    rng = random.Random(seed * 1000 + width)

    def cube() -> Cube:
        bound = rng.randint(max(1, width - 7), width - 1)
        positions = rng.sample(range(width), bound)
        mask = sum(1 << p for p in positions)
        value = rng.getrandbits(width) & mask
        return Cube(width, mask, value)

    on_cubes = [cube() for _ in range(2 * width)]
    dc_cubes = [cube() for _ in range(width)]
    names = tuple(f"v{i}" for i in range(width))
    return BooleanFunction.from_cubes(names, on_cubes, dc_cubes)


def engine_workload(f: BooleanFunction):
    """The bitset engine's full two-level pass over one function."""
    primes = prime_implicants(f.on, f.dc, f.width)
    useful = useful_primes(primes, f.on_mask)
    cover = minimal_cover(f, primes=useful)
    hazards = static_one_hazards(cover.cubes, f.width)
    return primes, useful, cover.cubes, len(hazards)


def reference_workload(f: BooleanFunction):
    """The retained set-based engine's identical pass."""
    primes = ref.prime_implicants_reference(f.on, f.dc, f.width)
    useful = ref.useful_primes_reference(primes, f.on)
    cubes, _essential, _exact = ref.minimal_cover_reference(f, primes=useful)
    hazards = ref.static_one_hazards_reference(cubes, f.width)
    return primes, useful, cubes, len(hazards)


def _best_of(fn, rounds: int) -> tuple[float, object]:
    result = None
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def measure_widths(
    widths_both, widths_engine_only, rounds: int, seed: int
) -> list[dict]:
    rows = []
    for width in [*widths_both, *widths_engine_only]:
        f = wide_function(width, seed)
        engine_s, engine_out = _best_of(lambda: engine_workload(f), rounds)
        row = {
            "width": width,
            "on_minterms": len(f.on),
            "dc_minterms": len(f.dc),
            "primes": len(engine_out[0]),
            "useful_primes": len(engine_out[1]),
            "cover_terms": len(engine_out[2]),
            "static_hazards": engine_out[3],
            "engine_seconds": round(engine_s, 6),
        }
        if width in widths_both:
            reference_s, reference_out = _best_of(
                lambda: reference_workload(f), rounds
            )
            assert engine_out[0] == reference_out[0], "prime sets diverged"
            assert engine_out[1] == reference_out[1], "useful primes diverged"
            assert engine_out[2] == reference_out[2], "covers diverged"
            assert engine_out[3] == reference_out[3], "hazard counts diverged"
            row["reference_seconds"] = round(reference_s, 6)
            row["speedup"] = round(reference_s / engine_s, 2)
        rows.append(row)
        print(
            f"  width {width:2d}: |on|={row['on_minterms']:6d} "
            f"primes={row['primes']:5d} engine={engine_s * 1000:9.2f} ms"
            + (
                f"  reference={row['reference_seconds'] * 1000:10.2f} ms"
                f"  speedup={row['speedup']:.1f}x"
                if "speedup" in row
                else "  (engine only)"
            )
        )
    return rows


def measure_flow_tables(position_counts, rounds: int, seed: int) -> list[dict]:
    from repro.api import SynthesisOptions

    rows = []
    for positions in position_counts:
        table = random_flow_table(positions, seed)
        seconds, result = _best_of(
            lambda: synthesize(table, SynthesisOptions(minimize=False)),
            rounds,
        )
        rows.append(
            {
                "positions": positions,
                "states": result.table.num_states,
                "state_variables": result.assignment.encoding.num_variables,
                "synthesis_seconds": round(seconds, 6),
            }
        )
        print(
            f"  chain {positions:2d}: states={rows[-1]['states']:3d} "
            f"vars={rows[-1]['state_variables']} "
            f"synthesis={seconds * 1000:8.1f} ms"
        )
    return rows


def measure_suite(rounds: int) -> float:
    """Serial synthesis wall-clock over the whole paper benchmark suite."""
    tables = list(load_all().values())

    def run():
        for table in tables:
            synthesize(table)

    seconds, _ = _best_of(run, rounds)
    return seconds


def generate(args) -> dict:
    print("wide-function scaling (engine vs reference):")
    width_rows = measure_widths(
        tuple(w for w in WIDTHS_BOTH if w <= args.max_width),
        tuple(w for w in WIDTHS_ENGINE_ONLY if w <= args.max_width),
        args.rounds,
        args.seed,
    )
    print("random flow-table scaling (engine only):")
    # One round: these run seconds-scale, far above the timer noise floor.
    table_rows = measure_flow_tables((5, 9, 13, 17), 1, args.seed)
    suite_seconds = measure_suite(args.rounds)
    print(f"paper suite, serial: {suite_seconds * 1000:.1f} ms")
    wide = [
        r for r in width_rows if r["width"] >= 16 and "speedup" in r
    ]
    return {
        "seed": args.seed,
        "rounds": args.rounds,
        "widths": width_rows,
        "flow_tables": table_rows,
        "suite_seconds": round(suite_seconds, 6),
        "wide_speedup_min": min((r["speedup"] for r in wide), default=None),
        "generated_by": "benchmarks/bench_logic.py",
    }


def check(args) -> int:
    """CI smoke: reduced workload against the committed baseline."""
    baseline_path = Path(args.out)
    baseline = json.loads(baseline_path.read_text())

    # 1. Engines still agree and the speedup has not collapsed, at a
    #    width small enough for the reference engine in CI.
    rows = measure_widths((12,), (), args.rounds, args.seed)
    speedup = rows[0]["speedup"]
    print(f"check: width-12 speedup {speedup:.1f}x")

    # 2. Suite-level synthesis time within 2x of the committed baseline
    #    (plus an absolute floor so machine jitter cannot fail the gate).
    suite_seconds = measure_suite(args.rounds)

    # The rows measured *on this runner* are the trendable telemetry —
    # CI uploads the file as a workflow artifact, so engine_seconds can
    # be charted across commits (the committed BENCH_logic.json only
    # moves when regenerated).
    if args.check_out:
        Path(args.check_out).write_text(
            json.dumps(
                {
                    "widths": rows,
                    "suite_seconds": round(suite_seconds, 6),
                    "baseline_suite_seconds": baseline["suite_seconds"],
                    "generated_by": "benchmarks/bench_logic.py --check",
                },
                indent=2,
            )
            + "\n"
        )
        print(f"check: wrote measured rows to {args.check_out}")

    if speedup < 2.0:
        print("FAIL: wide-function speedup collapsed below 2x")
        return 1
    budget = max(2.0 * baseline["suite_seconds"], baseline["suite_seconds"] + 1.0)
    print(
        f"check: suite {suite_seconds:.3f}s vs baseline "
        f"{baseline['suite_seconds']:.3f}s (budget {budget:.3f}s)"
    )
    if suite_seconds > budget:
        print("FAIL: suite-level synthesis time regressed more than 2x")
        return 1
    print("ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="reduced perf-regression check against the committed baseline",
    )
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--max-width", type=int, default=MAX_WIDTH)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_logic.json"),
    )
    parser.add_argument(
        "--check-out",
        default="bench-logic-check.json",
        help="where --check writes the rows it measured "
        "(CI uploads this as a trend artifact; empty string disables)",
    )
    args = parser.parse_args()

    if args.check:
        return check(args)

    stats = generate(args)
    out = Path(args.out)
    out.write_text(json.dumps(stats, indent=2) + "\n")
    print(f"wrote {out}")
    if stats["wide_speedup_min"] is not None:
        assert stats["wide_speedup_min"] >= MIN_WIDE_SPEEDUP, (
            f"wide-function speedup {stats['wide_speedup_min']}x is below "
            f"the {MIN_WIDE_SPEEDUP}x acceptance floor"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
