"""Runs of memo hits land on the kernel once, and land exactly.

:class:`~repro.sim.harness.FantomHarness` follows a run of consecutive
cycle-memo hits from capture to capture without touching the kernel,
then restores it once from the run's last capture (see the harness's
class docs).  The compiled engine, the same kernel with its memo off,
runs every cycle live; so wherever the harness hands the kernel back —
at the end of a walk, after every :meth:`~repro.sim.harness.
FantomHarness.scored_apply_expected` call — the replaying kernel's net
values, clock and event count must equal the compiled engine's, and an
event budget must run out at the same cycle on both.
"""

import pytest

from repro.bench import benchmark
from repro.netlist.fantom import build_fantom
from repro.sim.campaign import ENGINES, delay_model
from repro.sim.delays import UnitDelay
from repro.sim.harness import (
    FantomHarness,
    expected_walk,
    random_legal_walk,
    validate_walk,
)
from repro.sim.simulator import Simulator

from ..strategies import cached_synthesize

TABLES = ("lion9", "train11")
MODELS = ("loop-safe", "skewed", "hostile", "corner")
SEEDS = (0, 1)
STEPS = 240
#: The one kernel with cycle replay off: every cycle runs live.
COMPILED = ENGINES["compiled"]


def _machine(name):
    return build_fantom(cached_synthesize(benchmark(name)))


def _kernel_state(sim):
    return sim.values, sim.now, sim.events_processed


def _walk(machine, walk, delays, replay, expected):
    """(cycle payloads, simulator, live cycles, restores) of one walk."""
    sims = []
    restores = []

    class Counted(Simulator):
        def cycle_restore(self, *args, **kwargs):
            restores.append(args)
            return super().cycle_restore(*args, **kwargs)

    def factory(*args, **kwargs):
        sims.append(Counted(*args, replay=replay, **kwargs))
        return sims[-1]

    live = []
    apply = FantomHarness.apply

    def counted_apply(self, column):
        live.append(column)
        return apply(self, column)

    FantomHarness.apply = counted_apply
    try:
        summary = validate_walk(
            machine, walk, delays=delays, simulator_factory=factory,
            expected=expected,
        )
    finally:
        FantomHarness.apply = apply
    cycles = [cycle.to_dict() for cycle in summary.cycles]
    return cycles, sims[0], len(live), len(restores)


@pytest.fixture(scope="module")
def walks():
    """Every (table, model, seed) cell's walk on both kernels."""
    cells = {}
    for name in TABLES:
        machine = _machine(name)
        table = machine.result.table
        for seed in SEEDS:
            walk = random_legal_walk(table, STEPS, seed=seed)
            expected = expected_walk(table, walk)
            for model in MODELS:
                cells[f"{name}/{model}/s{seed}"] = tuple(
                    _walk(
                        machine, walk, delay_model(model, seed, machine),
                        replay, expected,
                    )
                    for replay in (True, False)
                )
    return cells


class TestChainedReplay:
    def test_walks_end_on_the_compiled_kernels_state(self, walks):
        for cell, (ring, live) in walks.items():
            ring_cycles, ring_sim, _, _ = ring
            live_cycles, live_sim, _, _ = live
            assert ring_cycles == live_cycles, cell
            assert _kernel_state(ring_sim) == _kernel_state(live_sim), cell

    def test_every_hit_is_counted_as_one_replay(self, walks):
        for cell, (ring, _) in walks.items():
            cycles, sim, live, _ = ring
            hits = len(cycles) - live
            assert sim.kernel_stats["cycle_replays"] == hits, cell

    def test_runs_of_hits_restore_once(self, walks):
        """Fewer restores than hits: consecutive hits share one."""
        hits = restores = 0
        for ring, _ in walks.values():
            cycles, _, live, restored = ring
            hits += len(cycles) - live
            restores += restored
        assert 0 < restores < hits / 4, (restores, hits)


class TestSteppedReplay:
    @pytest.mark.parametrize("name", TABLES)
    def test_each_call_hands_back_a_restored_kernel(self, name):
        """Called cycle by cycle, ``scored_apply_expected`` restores the
        kernel before it returns, as an eager restore per hit would: the
        ring's state equals the compiled kernel's after every call, and
        each hit is one replay."""
        machine = _machine(name)
        table = machine.result.table
        walk = random_legal_walk(table, 120, seed=1)
        expected = expected_walk(table, walk)
        harnesses = [
            FantomHarness(
                machine, delays=delay_model("skewed", 1, machine),
                simulator_factory=kernel,
            )
            for kernel in (Simulator, COMPILED)
        ]
        ring, live = harnesses
        stats = ring.simulator.kernel_stats
        hits = 0
        for index, column in enumerate(walk):
            before = stats["cycle_replays"]
            reports = [
                harness.scored_apply_expected(column, expected[index], index)
                for harness in harnesses
            ]
            assert reports[0] == reports[1], index
            assert stats["cycle_replays"] - before in (0, 1)
            hits += stats["cycle_replays"] - before
            assert _kernel_state(ring.simulator) == _kernel_state(
                live.simulator
            ), index
        assert hits > len(walk) // 2


class TestEventBudget:
    def test_budget_out_inside_a_run_of_hits(self):
        """A budget that runs out on a hit following a hit makes the
        pending run land and the cycle run live, failing where the
        compiled kernel fails."""
        machine = _machine("lion9")
        table = machine.result.table
        walk = random_legal_walk(table, 200, seed=1)
        expected = expected_walk(table, walk)
        ring = FantomHarness(
            machine, delays=UnitDelay(), simulator_factory=Simulator
        )
        hit = []
        events_after = []
        for index, column in enumerate(walk):
            before = ring.simulator.kernel_stats["cycle_replays"]
            ring.scored_apply_expected(column, expected[index], index)
            hit.append(ring.simulator.kernel_stats["cycle_replays"] > before)
            events_after.append(ring.simulator.events_processed)
        runs = [
            k for k in range(len(walk) // 2, len(walk))
            if hit[k - 1] and hit[k] and events_after[k] > events_after[k - 1]
        ]
        assert runs
        fail_at = runs[0]
        budget = events_after[fail_at] - 1
        outcomes = []
        sims = []
        for kernel in (Simulator, COMPILED):

            def factory(*args, kernel=kernel, **kwargs):
                sims.append(kernel(*args, max_events=budget, **kwargs))
                return sims[-1]

            summary = validate_walk(
                machine, walk, delays=UnitDelay(),
                simulator_factory=factory, expected=expected,
            )
            outcomes.append([cycle.to_dict() for cycle in summary.cycles])
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0]) == fail_at + 1
        assert outcomes[0][-1]["observed_state"] is None
        assert sims[0].kernel_stats["cycle_replays"] > 0
        assert _kernel_state(sims[0]) == _kernel_state(sims[1])
