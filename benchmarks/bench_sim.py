"""Validation-campaign workload: the compiled simulation stack vs the seed stack.

PR 4 refactored the whole dynamic-validation path onto a compiled
simulation core (:meth:`Netlist.compile` + the int-indexed event kernel
in :mod:`repro.sim.simulator`, campaign-level walk/plan reuse, windowed
trace scoring).  This workload measures that refactor end to end on a
**seeded validation campaign over the paper suite** — ``SWEEP`` random
walks × ``MODELS`` delay models per machine, ``STEPS`` hand-shake
cycles per walk — and records the numbers to ``BENCH_sim.json``:

    PYTHONPATH=src python benchmarks/bench_sim.py

Two implementations run the identical workload:

* **compiled** — :class:`repro.sim.campaign.ValidationCampaign` on the
  compiled kernel (the shipping path);
* **seed stack** — a verbatim reproduction of the pre-refactor
  validation driver: the retained
  :class:`~repro.sim._reference.ReferenceSimulator` object-graph
  interpreter, per-event ``stop_when`` callbacks for the hand-shake
  waits, full-trace rescans for every cycle's scoring window, and a
  freshly generated walk per (model, seed) cell — exactly what
  ``validate_against_reference`` did at the seed.

Every cell's :class:`ValidationSummary` is asserted identical between
the two before a timing is accepted, so the speedup is for the same
computation, not a lighter one.  The acceptance floor (ISSUE 4) is a
``MIN_CAMPAIGN_SPEEDUP``x campaign-level speedup.

CI runs ``--check``: a reduced re-measurement that fails when the
compiled campaign regresses more than 2x against the committed
``BENCH_sim.json`` baseline or the speedup collapses below
``CHECK_SPEEDUP_FLOOR``x.

The **ring tier** measures the ``ring`` engine
(:class:`repro.sim.simulator.Simulator` with hand-shake cycle replay
from each walk's cycle memo) against the ``compiled`` engine (the same
kernel with replay off) on the campaign-scale regime it targets: unit-delay
Monte-Carlo sweeps with long walks on the two largest paper machines,
>10\N{SUPERSCRIPT SIX} kernel events per campaign.  Cell outcomes are
asserted identical before a timing is accepted; the acceptance floor is
``MIN_RING_SPEEDUP``x and the reduced ``--check`` gate fails below
``CHECK_RING_FLOOR``x.

The **campaign tier** (ISSUE 9) extends that comparison to the actual
Monte-Carlo sweep bulk: every delay-sweep model — the seeded random
regimes the fractional-time tick grid was built for, plus the
deterministic Section-4.3 corner — one row per model over the same two
machines.  Cell outcomes must be byte-identical between the engines,
the two pinned anomaly cells (train11/hostile seed 2, lion9/loop-safe
seed 0) must be present and dirty, every ring cell must report a fast
kernel path (``ring``/``ticks``; ``heap`` only via an off-grid vector
or the documented quantum-overflow fallback, which these models and
horizons never reach), and each row's speedup must clear
``MIN_CAMPAIGN_TIER_SPEEDUP``x at generation /
``CHECK_CAMPAIGN_TIER_FLOOR``x in the reduced CI gate.
"""

import argparse
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.api import synthesize
from repro.bench import TABLE1_BENCHMARKS, benchmark
from repro.errors import SimulationError
from repro.netlist.fantom import build_fantom
from repro.sim._reference import ReferenceSimulator
from repro.sim.campaign import ValidationCampaign, delay_model
from repro.sim.harness import FantomHarness
from repro.sim.monitors import CycleReport, ValidationSummary, count_changes
from repro.sim.reference import FlowTableInterpreter

#: Workload shape.  The seed for walk generation is the cell's sweep
#: seed, so reruns (and the compiled/seed-stack comparison) are exact.
#: The model mix covers the deterministic baseline, the loop-safe random
#: regime, the hazard-stress regime (where glitch traffic — and thus
#: event-kernel load — is highest), and the Section-4.3 worst-case
#: corner.  Walks are campaign-length (the ISSUE's "orders of magnitude
#: more walks" regime): the seed stack's per-cycle full-trace rescans
#: are quadratic in walk length, which is one of the scalability
#: defects the compiled stack removes — short smoke-test walks would
#: understate exactly the costs that matter at scale.
SWEEP = 3
STEPS = 300
MODELS = ("unit", "loop-safe", "hostile", "corner")

#: Acceptance floor (ISSUE 4): the compiled campaign must be at least
#: this much faster than the seed validation stack on the full workload.
MIN_CAMPAIGN_SPEEDUP = 5.0
#: Reduced-workload floor for the CI gate (shared runners are noisy).
CHECK_SPEEDUP_FLOOR = 3.0

#: Ring-tier workload (ISSUE 6): unit-delay campaign sweeps with
#: campaign-length walks on the two largest paper machines — the regime
#: where event-kernel load (not harness overhead) dominates and the
#: ring kernel's cycle replay engages.  At ~115
#: kernel events per hand-shake cycle this is >10^6 events per campaign.
RING_MACHINES = ("lion9", "train11")
RING_SWEEP = 5
RING_STEPS = 1000
#: Acceptance floor (ISSUE 6): ring vs compiled on the ring-tier
#: workload.
MIN_RING_SPEEDUP = 3.0
#: Reduced-workload floor for the CI gate.
CHECK_RING_FLOOR = 2.0

#: Campaign-tier workload (ISSUE 9): the Monte-Carlo sweep bulk — every
#: delay-sweep model (seeded random silicon plus the deterministic
#: Section-4.3 corner) on the two event-heavy paper machines, at
#: campaign-length walks.  This is the regime the fractional-time tick
#: grid exists for: before it, every non-unit vector demoted the ring
#: to the legacy heap loop.  The two pinned anomaly cells
#: (train11/hostile seed 2, lion9/loop-safe seed 0) are inside this
#: grid, so the tier re-proves them on every generation.  Timings are
#: per-cell sums (``cell.seconds``), best-of-``rounds`` — walk
#: generation and reference-step precompute are engine-independent
#: campaign setup and excluded from both sides.
CAMPAIGN_TIER_MACHINES = ("lion9", "train11")
CAMPAIGN_TIER_MODELS = ("loop-safe", "skewed", "hostile", "corner")
CAMPAIGN_TIER_SWEEP = 3
CAMPAIGN_TIER_STEPS = 800
#: Acceptance floor (ISSUE 9): ring vs compiled, per model row, at
#: generation.
MIN_CAMPAIGN_TIER_SPEEDUP = 3.0
#: Reduced-workload floor for the CI gate: shared runners are noisy and
#: short walks revisit fewer cycles, so the memo serves a smaller share
#: of them; the gate only has to detect fast-path collapse (a heap
#: demotion reads ~1.0x).
CHECK_CAMPAIGN_TIER_FLOOR = 1.5
#: Kernel paths a sweep cell may legitimately report; ``heap`` appears
#: only through an off-grid vector or the documented quantum-overflow
#: fallback, which the built-in models never trigger at campaign horizons.
FAST_PATHS = {"ring", "ticks"}


# ----------------------------------------------------------------------
# The seed validation stack, reproduced verbatim
# ----------------------------------------------------------------------
class SeedStackHarness(FantomHarness):
    """The pre-refactor harness: callback waits, full-trace scans,
    every pin scheduled every cycle."""

    def __init__(self, machine, delays):
        super().__init__(
            machine, delays=delays, simulator_factory=ReferenceSimulator
        )

    def apply(self, column):
        machine = self.machine
        sim = self.simulator
        self._wait_for(machine.vom, 1)
        sim.run_until_quiet(self.WAIT_BUDGET)
        start = self.now
        for i, net in enumerate(machine.external_inputs):
            sim.schedule(net, column >> i & 1, at=start + self.ENV_DELAY)
        sim.schedule(machine.vi, 1, at=start + 2 * self.ENV_DELAY)
        self._wait_for(machine.vom, 0)
        sim.schedule(machine.vi, 0, at=self.now + self.ENV_DELAY)
        self._wait_for(machine.vom, 1)
        sim.run_until_quiet(self.WAIT_BUDGET)
        self.cycle_count += 1
        return self.observed_state(), self.outputs()

    def _wait_for(self, net: str, value: int) -> None:
        if self.simulator.value(net) == value:
            return
        deadline = self.now + self.WAIT_BUDGET
        self.simulator.run(
            until=deadline,
            stop_when=lambda sim: sim.value(net) == value,
        )
        if self.simulator.value(net) != value:
            raise SimulationError(f"timeout waiting for {net}={value}")

    def scored_apply(self, column, reference, index):
        window_start = self.now
        expected = reference.apply(column)
        observed_state, observed_outputs = self.apply(column)
        window_end = self.now
        changes = count_changes(
            self.simulator.trace,
            list(self.machine.output_nets),
            window_start,
            window_end,
        )
        vom_rises = sum(
            1
            for change in self.simulator.trace
            if change.net == self.machine.vom
            and change.value == 1
            and window_start < change.time <= window_end
        )
        return CycleReport(
            index=index,
            column=column,
            expected_state=expected.state,
            observed_state=observed_state,
            expected_outputs=expected.outputs,
            observed_outputs=observed_outputs,
            output_changes=changes,
            vom_rises=vom_rises,
        )


class SeedInterpreter(FlowTableInterpreter):
    """HEAD's oracle: legal columns recomputed per step, no step memo."""

    def legal_columns(self):
        return [
            column
            for column in self.table.columns
            if self.table.is_specified(self.state, column)
        ]

    def apply(self, column):
        from repro.sim.reference import ReferenceStep

        seen = {self.state}
        current = self.state
        while True:
            nxt = self.table.next_state(current, column)
            if nxt is None:
                raise SimulationError(
                    f"unspecified entry ({current!r}, {column})"
                )
            if nxt == current:
                break
            if nxt in seen:
                raise SimulationError(f"oscillation under {column}")
            seen.add(nxt)
            current = nxt
        self.state = current
        return ReferenceStep(
            column=column,
            state=current,
            outputs=self.table.output_vector(current, column),
        )


def seed_walk(table, steps, seed):
    """HEAD's ``random_legal_walk``: identical draws, uncached oracle."""
    import random as random_module

    rng = random_module.Random(seed)
    interpreter = SeedInterpreter(table)
    current = interpreter.stable_column()
    walk = []
    for _ in range(steps):
        legal = interpreter.legal_columns()
        mic = [c for c in legal if (c ^ current).bit_count() >= 2]
        pool = mic if (mic and rng.random() < 0.6) else legal
        column = rng.choice(pool)
        walk.append(column)
        interpreter.apply(column)
        current = column
    return walk


def seed_stack_campaign(machines):
    """The workload as the seed would have run it: one
    ``validate_against_reference``-shaped loop per delay model, walks
    regenerated per cell, every summary in campaign cell order."""
    summaries = []
    for machine in machines:
        table = machine.result.table
        for model in MODELS:
            for seed in range(SWEEP):
                harness = SeedStackHarness(
                    machine, delays=delay_model(model, seed, machine)
                )
                reference = SeedInterpreter(table)
                walk = seed_walk(table, STEPS, seed)
                summary = ValidationSummary()
                for index, column in enumerate(walk):
                    try:
                        report = harness.scored_apply(
                            column, reference, index
                        )
                    except SimulationError:
                        summary.add(
                            CycleReport(
                                index=index,
                                column=column,
                                expected_state=reference.state,
                                observed_state=None,
                                expected_outputs=(),
                                observed_outputs=(),
                                output_changes={},
                                vom_rises=0,
                            )
                        )
                        break
                    summary.add(report)
                summaries.append(summary)
    return summaries


def compiled_campaign(machines):
    campaign = ValidationCampaign(
        sweep=SWEEP, steps=STEPS, delay_models=MODELS, engine="compiled"
    )
    return campaign.run_machines(machines)


def _best_of(fn, rounds):
    best_seconds = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best_seconds = min(best_seconds, time.perf_counter() - start)
    return best_seconds, result


def measure(names, rounds):
    machines = {
        name: build_fantom(synthesize(benchmark(name))) for name in names
    }
    rows = []
    total_compiled = total_seed = 0.0
    total_cycles = 0
    for name, machine in machines.items():
        compiled_s, report = _best_of(
            lambda: compiled_campaign([machine]), rounds
        )
        seed_s, summaries = _best_of(
            lambda: seed_stack_campaign([machine]), rounds
        )
        assert [cell.summary.cycles for cell in report.cells] == [
            summary.cycles for summary in summaries
        ], f"{name}: compiled and seed-stack outcomes diverged"
        cycles = report.total_cycles
        rows.append(
            {
                "benchmark": name,
                "cells": len(report.cells),
                "cycles": cycles,
                "all_clean": report.all_clean,
                "compiled_seconds": round(compiled_s, 6),
                "seed_stack_seconds": round(seed_s, 6),
                "speedup": round(seed_s / compiled_s, 2),
            }
        )
        total_compiled += compiled_s
        total_seed += seed_s
        total_cycles += cycles
        print(
            f"  {name:14s} {len(report.cells):3d} cells {cycles:6d} cycles "
            f"compiled={compiled_s * 1000:8.1f}ms "
            f"seed-stack={seed_s * 1000:8.1f}ms "
            f"speedup={seed_s / compiled_s:5.2f}x"
        )
    return rows, total_compiled, total_seed, total_cycles


def _count_cell_events(machine, steps):
    """Kernel events of one compiled unit-delay cell (outside timing)."""
    from repro.sim.delays import UnitDelay
    from repro.sim.harness import random_legal_walk, validate_walk
    from repro.sim.simulator import Simulator

    sims = []

    def factory(*a, **kw):
        sim = Simulator(*a, replay=False, **kw)
        sims.append(sim)
        return sim

    walk = random_legal_walk(machine.result.table, steps, seed=0)
    validate_walk(machine, walk, delays=UnitDelay(), simulator_factory=factory)
    return sum(sim.events_processed for sim in sims)


def ring_tier(rounds, steps=RING_STEPS, sweep=RING_SWEEP):
    """Ring vs compiled kernel on the unit-delay campaign workload."""
    machines = [
        build_fantom(synthesize(benchmark(name))) for name in RING_MACHINES
    ]

    def campaign(engine):
        return ValidationCampaign(
            sweep=sweep,
            steps=steps,
            delay_models=("unit",),
            engine=engine,
        ).run_machines(machines)

    ring_s, ring_report = _best_of(lambda: campaign("ring"), rounds)
    compiled_s, compiled_report = _best_of(
        lambda: campaign("compiled"), rounds
    )
    assert [cell.summary.cycles for cell in ring_report.cells] == [
        cell.summary.cycles for cell in compiled_report.cells
    ], "ring and compiled campaign outcomes diverged"
    events = sweep * sum(
        _count_cell_events(machine, steps) for machine in machines
    )
    speedup = compiled_s / ring_s
    print(
        f"  ring tier ({'+'.join(RING_MACHINES)}, {sweep} seeds x "
        f"{steps} steps, ~{events:,} events): "
        f"ring={ring_s * 1000:.1f}ms compiled={compiled_s * 1000:.1f}ms "
        f"speedup={speedup:.2f}x"
    )
    return {
        "machines": list(RING_MACHINES),
        "sweep": sweep,
        "steps": steps,
        "cycles": ring_report.total_cycles,
        "compiled_kernel_events": events,
        "ring_seconds": round(ring_s, 6),
        "compiled_seconds": round(compiled_s, 6),
        "ring_speedup": round(speedup, 2),
    }


def campaign_tier(
    rounds,
    steps=CAMPAIGN_TIER_STEPS,
    sweep=CAMPAIGN_TIER_SWEEP,
):
    """Ring vs compiled on the full delay-sweep model mix.

    One row per delay model over ``CAMPAIGN_TIER_MACHINES`` x ``sweep``
    seeds.  Every row's cell outcomes are asserted byte-identical
    between the engines, every ring cell must report a fast kernel
    path, and the two pinned anomaly cells must be present and dirty —
    the speedup is for the same computation reaching the same
    verdicts.
    """
    machines = [
        build_fantom(synthesize(benchmark(name)))
        for name in CAMPAIGN_TIER_MACHINES
    ]

    def cycles_payload(report):
        return json.dumps(
            [
                [cycle.to_dict() for cycle in cell.summary.cycles]
                for cell in report.cells
            ],
            sort_keys=True,
        )

    def run(model, engine):
        """Best-of-``rounds`` on the summed per-cell seconds (campaign
        setup — walk generation, reference-step precompute — is
        engine-independent and excluded from both sides)."""
        best_seconds = float("inf")
        report = None
        for _ in range(rounds):
            candidate = ValidationCampaign(
                sweep=sweep,
                steps=steps,
                delay_models=(model,),
                engine=engine,
            ).run_machines(machines)
            seconds = sum(cell.seconds for cell in candidate.cells)
            if seconds < best_seconds:
                best_seconds, report = seconds, candidate
        return best_seconds, report

    rows = []
    dirty = set()
    for model in CAMPAIGN_TIER_MODELS:
        ring_s, ring_report = run(model, "ring")
        compiled_s, compiled_report = run(model, "compiled")
        assert cycles_payload(ring_report) == cycles_payload(
            compiled_report
        ), f"campaign tier {model}: ring and compiled outcomes diverged"
        paths = ring_report.kernel_paths()
        stray = set(paths) - FAST_PATHS
        assert not stray, (
            f"campaign tier {model}: sweep cells left the fast path "
            f"({paths})"
        )
        for cell in ring_report.failures:
            dirty.add((cell.table, model, cell.seed))
        speedup = compiled_s / ring_s
        rows.append(
            {
                "model": model,
                "cells": len(ring_report.cells),
                "cycles": ring_report.total_cycles,
                "kernel_paths": dict(sorted(paths.items())),
                "dirty_cells": sorted(
                    f"{cell.table}/s{cell.seed}"
                    for cell in ring_report.failures
                ),
                "ring_seconds": round(ring_s, 6),
                "compiled_seconds": round(compiled_s, 6),
                "speedup": round(speedup, 2),
            }
        )
        print(
            f"  campaign tier {model:10s} {len(ring_report.cells):3d} cells "
            f"{ring_report.total_cycles:6d} cycles "
            f"ring={ring_s * 1000:7.1f}ms compiled={compiled_s * 1000:7.1f}ms "
            f"speedup={speedup:5.2f}x paths={paths}"
        )
    for anomaly in (("train11", "hostile", 2), ("lion9", "loop-safe", 0)):
        table, model, seed = anomaly
        if model not in CAMPAIGN_TIER_MODELS or seed >= sweep:
            continue  # reduced --check sweeps may not reach the seed
        assert anomaly in dirty, (
            f"pinned anomaly cell {anomaly} came back clean — the sweep "
            f"no longer reproduces the paper's failure evidence"
        )
    return {
        "machines": list(CAMPAIGN_TIER_MACHINES),
        "sweep": sweep,
        "steps": steps,
        "models": rows,
        "anomaly_cells": ["train11/hostile/s2", "lion9/loop-safe/s0"],
    }


def generate(args):
    print(
        f"validation campaign over the paper suite "
        f"({SWEEP} seeds x {len(MODELS)} models x {args.steps} steps):"
    )
    global STEPS
    STEPS = args.steps
    rows, total_compiled, total_seed, total_cycles = measure(
        TABLE1_BENCHMARKS, args.rounds
    )
    speedup = total_seed / total_compiled
    print(
        f"  total: compiled={total_compiled * 1000:.1f}ms "
        f"seed-stack={total_seed * 1000:.1f}ms speedup={speedup:.2f}x"
    )
    ring = ring_tier(args.rounds)
    campaign = campaign_tier(args.rounds)
    campaign["model_seconds"] = {
        row["model"]: row["ring_seconds"] for row in campaign["models"]
    }
    return {
        "sweep": SWEEP,
        "steps": STEPS,
        "delay_models": list(MODELS),
        "rounds": args.rounds,
        "machines": rows,
        "total_cycles": total_cycles,
        "compiled_seconds": round(total_compiled, 6),
        "seed_stack_seconds": round(total_seed, 6),
        "campaign_speedup": round(speedup, 2),
        "ring": ring,
        "campaign": campaign,
        "generated_by": "benchmarks/bench_sim.py",
    }


def check(args) -> int:
    """CI smoke: reduced workload against the committed baseline."""
    baseline = json.loads(Path(args.out).read_text())
    global STEPS
    STEPS = 30
    print(f"check: reduced campaign ({SWEEP} seeds x {len(MODELS)} models "
          f"x {STEPS} steps) on a suite subset:")
    rows, total_compiled, total_seed, _cycles = measure(
        ("traffic", "lion9", "train11"), args.rounds
    )
    speedup = total_seed / total_compiled
    print(f"check: reduced-campaign speedup {speedup:.2f}x")
    if speedup < CHECK_SPEEDUP_FLOOR:
        print(
            f"FAIL: campaign speedup collapsed below "
            f"{CHECK_SPEEDUP_FLOOR}x"
        )
        return 1

    # The committed baseline ran the full workload; scale its per-cycle
    # compiled cost to this reduced workload and allow 2x plus an
    # absolute floor against machine jitter.
    cycles = sum(row["cycles"] for row in rows)
    per_cycle = baseline["compiled_seconds"] / baseline["total_cycles"]
    budget = max(2.0 * per_cycle * cycles, per_cycle * cycles + 1.0)
    print(
        f"check: compiled {total_compiled:.3f}s vs scaled baseline "
        f"{per_cycle * cycles:.3f}s (budget {budget:.3f}s)"
    )
    if total_compiled > budget:
        print("FAIL: compiled campaign regressed more than 2x")
        return 1

    ring = ring_tier(args.rounds, steps=300, sweep=2)
    if ring["ring_speedup"] < CHECK_RING_FLOOR:
        print(
            f"FAIL: ring-kernel speedup {ring['ring_speedup']}x collapsed "
            f"below {CHECK_RING_FLOOR}x"
        )
        return 1

    campaign = campaign_tier(args.rounds, steps=400, sweep=2)
    slow_rows = [
        row
        for row in campaign["models"]
        if row["speedup"] < CHECK_CAMPAIGN_TIER_FLOOR
    ]
    if slow_rows:
        for row in slow_rows:
            print(
                f"FAIL: campaign-tier {row['model']} speedup "
                f"{row['speedup']}x collapsed below "
                f"{CHECK_CAMPAIGN_TIER_FLOOR}x — the delay sweep left "
                f"the fast path"
            )
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
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--steps", type=int, default=STEPS)
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_sim.json"),
    )
    args = parser.parse_args()

    if args.check:
        return check(args)

    stats = generate(args)
    if stats["campaign_speedup"] < MIN_CAMPAIGN_SPEEDUP:
        # Refuse before writing: a degraded run must not replace the
        # committed baseline the --check gate budgets against.
        print(
            f"FAIL: campaign speedup {stats['campaign_speedup']}x is below "
            f"the {MIN_CAMPAIGN_SPEEDUP}x acceptance floor; baseline not "
            f"written"
        )
        return 1
    if stats["ring"]["ring_speedup"] < MIN_RING_SPEEDUP:
        print(
            f"FAIL: ring-kernel speedup {stats['ring']['ring_speedup']}x is "
            f"below the {MIN_RING_SPEEDUP}x acceptance floor; baseline not "
            f"written"
        )
        return 1
    slow_rows = [
        row
        for row in stats["campaign"]["models"]
        if row["speedup"] < MIN_CAMPAIGN_TIER_SPEEDUP
    ]
    if slow_rows:
        for row in slow_rows:
            print(
                f"FAIL: campaign-tier {row['model']} speedup "
                f"{row['speedup']}x is below the "
                f"{MIN_CAMPAIGN_TIER_SPEEDUP}x acceptance floor"
            )
        print("baseline not written")
        return 1
    out = Path(args.out)
    out.write_text(json.dumps(stats, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
