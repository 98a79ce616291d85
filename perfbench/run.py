"""Run one workload of the layered benchmark and print its metrics.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program under test is imported from
``src/``.  The workload's iterations repeat while another one fits in
``--seconds`` (at least one runs).  Each iteration sets up fresh inputs,
runs the timed phase and checks every output against ``expected.json``.
Between phases, reference loops sample the host's speed; timings are
reported in seconds at a fixed reference speed (see ``hostspeed.py``),
and the report also prints the raw wall time and the host's slowdown.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates an untraced and a traced iteration, requires
their outputs to be byte-identical, and reports the per-layer metrics
of the traced ones; ``trace.overhead_s`` is traced minus untraced
``wall_s``.  A human-readable report comes first; the last line of
standard output is the JSON result.

``--pin`` runs one iteration and rewrites the workload's pinned output
digests in ``expected.json`` (for a deliberate change of output).
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from hostspeed import Clock, HostSpeed, Span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED = HERE / "expected.json"

#: Set-up repetitions behind ``setup_s`` when fewer iterations ran.
SETUP_SAMPLES = 11

#: Per-layer busy times that are a layer's self time: its traced calls
#: minus the traced calls nested inside them.
SELF_TIMES = {
    "assign.busy_s": "assign",
    "flowtable.busy_s": "flowtable",
    "minimize.busy_s": "minimize",
    "core.outputs.busy_s": "core.outputs",
    "hazards.busy_s": "hazards",
    "core.fsv.busy_s": "core.fsv",
    "core.factoring.busy_s": "core.factoring",
    "pipeline.overhead_s": "pipeline",
    "netlist.build.busy_s": "netlist.build",
    "netlist.compile.busy_s": "netlist.compile",
    "sim.kernel.busy_s": "sim.kernel",
    "sim.harness.busy_s": "sim.walk",
    "corpus.generate.busy_s": "corpus.generate",
    "corpus.fuzz.busy_s": "corpus.fuzz",
    "store.get.busy_s": "store.get",
    "store.put.busy_s": "store.put",
    "transport.read.busy_s": "transport.read",
    "transport.write.busy_s": "transport.write",
}

COUNTS = (
    "assign.state_vars",
    "hazards.points",
    "netlist.gates",
    "sim.kernel.events",
    "sim.cycles",
    "corpus.findings",
    "store.hits",
    "store.rejected",
    "transport.requests",
    "transport.retries",
    "transport.faults",
)


@dataclass
class Iteration:
    setup: Span
    timed: Span
    run: object
    failures: dict
    tracer: object = None

    def wall_s(self, slowdown: float) -> float:
        """The timed phase in seconds at the reference host speed."""
        return self.timed.scaled(slowdown)

    def item_scale(self, slowdown: float) -> float:
        """Factor from an item's wall time to reference-speed time: each
        item is taken to share its timed phase's mix of CPU and waiting."""
        return self.wall_s(slowdown) / self.timed.wall


def order(seed: int, round_: int) -> random.Random:
    """The item order of one round: each round of a run shuffles anew, so
    no item pays a first-item cost (a cold cache, a first connection) in
    every round."""
    return random.Random(f"{seed}:{round_}")


def iterate(workload, rng, pins: dict, host: HostSpeed,
            tracer=None) -> Iteration:
    """One set-up, timed phase and check of ``workload``, each phase
    followed by a sample of the host's speed."""
    from spans import instrument
    from workloads import check

    gc.collect()
    with instrument(tracer):
        clock = Clock()
        state = workload.setup(rng)
        setup = clock.span()
        host.sample(setup.wall)
        try:
            clock = Clock()
            raw = workload.run(state)
            timed = clock.span()
        finally:
            workload.teardown(state)
    host.sample(timed.wall)
    run = workload.finish(state, raw)
    failures = check(run, pins, workload.expected_flags)
    return Iteration(setup, timed, run, failures, tracer)


def differences(untraced, traced) -> dict[str, str]:
    """Items whose traced output or flag is not the untraced one."""
    failures = {}
    for item in untraced.outputs.keys() | traced.outputs.keys():
        if traced.outputs.get(item) != untraced.outputs.get(item):
            failures[item] = "traced output differs from untraced"
    for item in traced.flagged ^ untraced.flagged:
        failures.setdefault(item, "traced flag differs from untraced")
    return failures


def time_setup(workload, rng) -> Span:
    """One more set-up of ``workload``."""
    gc.collect()
    clock = Clock()
    state = workload.setup(rng)
    setup = clock.span()
    workload.teardown(state)
    return setup


def quantile(values, index: int) -> float:
    """Decile ``index`` (5 = median, 9 = p90) of ``values``."""
    return statistics.quantiles(values, n=10, method="inclusive")[index - 1]


def item_times(iterations, slowdown: float) -> list[float]:
    """Each item's median reference-speed seconds over the iterations.

    Items differ in size (a 15-state chain against a 4-state table), so
    quantiles over all item times of all iterations jump between items
    from run to run; over the per-item medians they do not."""
    scales = [it.item_scale(slowdown) for it in iterations]
    return [
        statistics.median(
            it.run.latencies[item] * scale
            for it, scale in zip(iterations, scales)
        )
        for item in iterations[0].run.latencies
    ]


def end_to_end(iterations, setups, slowdown: float) -> dict[str, float]:
    """Medians over the run's iterations and set-ups and quantiles over
    its items, in seconds at the reference host speed (see
    ``hostspeed``), and peak memory."""
    items = item_times(iterations, slowdown)
    walls = [it.wall_s(slowdown) for it in iterations]
    return {
        "setup_s": statistics.median(
            setup.scaled(slowdown) for setup in setups
        ),
        "wall_s": statistics.median(walls),
        "items_per_s": statistics.median(
            it.run.work / wall for it, wall in zip(iterations, walls)
        ),
        "item_p50_ms": quantile(items, 5) * 1e3,
        "item_p90_ms": quantile(items, 9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }


def per_layer(traced, untraced, slowdown: float) -> dict[str, float]:
    """Medians over the traced iterations of every layer metric."""
    rows = []
    for it in traced:
        tracer = it.tracer
        counts = {**tracer.counts, **it.run.counts}
        row = {name: tracer.self_time.get(layer, 0.0)
               for name, layer in SELF_TIMES.items()}
        row["sim.walk.busy_s"] = tracer.inclusive.get("sim.walk", 0.0)
        row.update({name: counts.get(name, 0) for name in COUNTS})
        events = counts.get("sim.kernel.events", 0)
        replayed = counts.get("sim.kernel.replayed_events", 0)
        row["sim.kernel.us_per_event"] = (
            row["sim.kernel.busy_s"] / events * 1e6 if events else 0.0
        )
        row["sim.kernel.replay_ratio"] = replayed / events if events else 0.0
        rows.append(row)
    metrics = {name: statistics.median(row[name] for row in rows)
               for name in rows[0]}
    metrics["trace.overhead_s"] = statistics.median(
        it.wall_s(slowdown) for it in traced
    ) - statistics.median(it.wall_s(slowdown) for it in untraced)
    return metrics


def report_lines(workload, iterations, computed, units,
                 slowdown) -> list[str]:
    """The declared metrics, the same figures under the workload's own
    names, and the raw wall time and host slowdown behind the scaled
    times."""
    lines = [f"{name:26s} {computed[name]:14.6f} {unit}"
             for name, unit in units.items()]
    named = {}
    if "items_per_s" in computed:
        named = {
            f"{workload.unit}_per_s": computed["items_per_s"],
            f"{workload.item}_p50_ms": computed["item_p50_ms"],
            f"{workload.item}_p90_ms": computed["item_p90_ms"],
        }
    for name in iterations[0].run.headline:  # all times: scale them too
        named[name] = statistics.median(
            it.run.headline[name] * it.item_scale(slowdown)
            for it in iterations
        )
    named["raw_wall_s"] = statistics.median(it.timed.wall for it in iterations)
    named["host_slowdown"] = slowdown
    lines += [f"{name:26s} {value:14.6f}" for name, value in named.items()
              if name not in units]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program under {SRC}; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import Tracer
    from workloads import WORKLOADS

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    expected = json.loads(EXPECTED.read_text())

    if args.pin:
        it = iterate(workload, order(args.seed, 0), {}, HostSpeed())
        expected[workload.name] = dict(sorted(it.run.outputs.items()))
        EXPECTED.write_text(json.dumps(expected, indent=2) + "\n")
        print(f"pinned {len(it.run.outputs)} outputs of {workload.name}")
        return 0

    pins = expected[workload.name]
    untraced, traced = [], []
    host = HostSpeed()
    host.sample(0.0)
    # Start another round only if one more fits in the time left.
    started = last = time.perf_counter()
    while True:
        round_ = len(untraced)
        # Traced rounds alternate which iteration goes first, so neither
        # side always pays the process's first-iteration costs.
        if args.trace and round_ % 2:
            traced.append(iterate(
                workload, order(args.seed, round_), pins, host, Tracer()
            ))
        untraced.append(
            iterate(workload, order(args.seed, round_), pins, host)
        )
        if args.trace and not round_ % 2:
            traced.append(iterate(
                workload, order(args.seed, round_), pins, host, Tracer()
            ))
        now = time.perf_counter()
        if 2 * now - last > started + args.seconds:
            break
        last = now

    for it in traced:
        it.failures = {**differences(untraced[0].run, it.run), **it.failures}
    attempted = sum(len(it.run.outputs) for it in untraced + traced)
    failed = sum(len(it.failures) for it in untraced + traced)

    if args.trace:
        kind = "per_layer"
        computed = per_layer(traced, untraced, host.slowdown)
    else:
        kind = "end_to_end"
        setups = [it.setup for it in untraced]
        while len(setups) < SETUP_SAMPLES:
            setups.append(time_setup(workload, order(args.seed, len(setups))))
            host.sample(setups[-1].wall)
        computed = end_to_end(untraced, setups, host.slowdown)
    units = {m["name"]: m["unit"] for m in declared[kind]}
    metrics = {name: computed[name] for name in units}

    print(f"perfbench {workload.name}: seed {args.seed}, "
          f"{len(untraced)} iteration(s), trace {args.trace}")
    for line in report_lines(workload, untraced, computed, units,
                             host.slowdown):
        print("  " + line)
    print(f"  {'failed_ratio':26s} {failed / attempted:14.6f} "
          f"({failed}/{attempted})")
    for it in untraced + traced:
        for item, why in sorted(it.failures.items()):
            print(f"FAILED {workload.name} {item}: {why}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
