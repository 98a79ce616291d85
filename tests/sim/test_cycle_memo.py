"""Cycle replay is pinned to the compiled kernel's live cycles.

With replay on, :func:`repro.sim.harness.validate_walk` serves a
revisited (exact state, column) hand-shake cycle from the walk's cycle
memo instead of running it.  A memo hit must be indistinguishable from
the live cycle it stands for: the compiled engine (the same kernel with
``replay=False``) runs every cycle live, and the two must emit byte-identical cycle
reports and process the same number of events.  The fallbacks (no key
off the grid or on the heap path, no hit past the event budget) must
keep that identity while running live.
"""

from functools import partial

import pytest

from repro.bench import benchmark
from repro.netlist.fantom import build_fantom
from repro.pipeline import PassManager
from repro.sim import harness as harness_mod
from repro.sim.campaign import ENGINES, delay_model
from repro.sim.delays import RandomDelay, UnitDelay
from repro.sim.harness import expected_walk, random_legal_walk, validate_walk
from repro.sim.monitors import CycleReport
from repro.sim.simulator import Simulator

TABLES = ("lion9", "train11")
MODELS = ("loop-safe", "skewed", "hostile", "corner")
SEEDS = (0, 1, 2)
STEPS = 400
#: The one kernel with cycle replay off: every cycle runs live.
COMPILED = ENGINES["compiled"]
#: The characterised anomalies (the lion9 fsv/G oscillation and the
#: train11 hostile-skew failure), pinned at 800 steps by perfbench and
#: reached within the first 400 too.
DIRTY = {"lion9/loop-safe/s0", "lion9/skewed/s0", "train11/hostile/s2"}


def _machine(name):
    return build_fantom(PassManager().run(benchmark(name)))


def _run(machine, walk, delays, kernel, expected=None):
    """(cycle payloads, the walk's simulator) for one kernel."""
    sims = []

    def factory(*args, **kwargs):
        sim = kernel(*args, **kwargs)
        sims.append(sim)
        return sim

    summary = validate_walk(
        machine, walk, delays=delays, simulator_factory=factory,
        expected=expected,
    )
    return [cycle.to_dict() for cycle in summary.cycles], sims[0]


@pytest.fixture(scope="module")
def campaign():
    """Every (table, model, seed) cell on both kernels."""
    cells = {}
    for name in TABLES:
        machine = _machine(name)
        table = machine.result.table
        for seed in SEEDS:
            walk = random_legal_walk(table, STEPS, seed=seed)
            expected = expected_walk(table, walk)
            for model in MODELS:
                cells[f"{name}/{model}/s{seed}"] = tuple(
                    _run(
                        machine, walk, delay_model(model, seed, machine),
                        kernel, expected,
                    )
                    for kernel in (Simulator, COMPILED)
                )
    return cells


class TestCycleMemoDifferential:
    def test_cycle_streams_are_byte_identical(self, campaign):
        for cell, ((ring, ring_sim), (live, live_sim)) in campaign.items():
            assert ring == live, cell
            assert ring_sim.events_processed == live_sim.events_processed, (
                cell
            )

    def test_exactly_the_pinned_cells_are_dirty(self, campaign):
        dirty = {
            cell
            for cell, (_, (live, _)) in campaign.items()
            if not all(CycleReport.from_dict(cycle).clean for cycle in live)
        }
        assert dirty == DIRTY

    def test_the_memo_serves_most_cycles(self, campaign):
        """And its events count as replayed, so the replay share of
        ``events_processed`` stays meaningful."""
        cycles = replays = events = replayed = 0
        for (ring, sim), _ in campaign.values():
            stats = sim.kernel_stats
            assert stats["path"] == "ticks"
            cycles += len(ring)
            replays += stats["cycle_replays"]
            events += sim.events_processed
            replayed += stats["replayed_events"]
        assert replays >= 0.85 * cycles, (replays, cycles)
        assert replayed >= 0.85 * events, (replayed, events)


class TestCycleMemoFallbacks:
    def test_event_budget_runs_out_at_the_same_cycle(self):
        machine = _machine("lion9")
        walk = random_legal_walk(machine.result.table, STEPS, seed=1)
        _, full = _run(machine, walk, UnitDelay(), COMPILED)
        budget = full.events_processed // 2
        ring, ring_sim = _run(
            machine, walk, UnitDelay(),
            partial(Simulator, max_events=budget),
        )
        live, _ = _run(
            machine, walk, UnitDelay(), partial(COMPILED, max_events=budget)
        )
        assert ring == live
        assert len(live) < len(walk)  # the walk ended on the budget
        assert live[-1]["observed_state"] is None
        assert ring_sim.kernel_stats["cycle_replays"] > 0

    def test_off_grid_silicon_runs_every_cycle_live(self):
        machine = _machine("lion9")
        walk = random_legal_walk(machine.result.table, 60, seed=1)
        delays = partial(RandomDelay, 1, grid_bits=None)
        ring, ring_sim = _run(machine, walk, delays(), Simulator)
        live, _ = _run(machine, walk, delays(), COMPILED)
        assert ring == live
        assert ring_sim.kernel_stats["path"] == "heap"
        assert ring_sim.kernel_stats["cycle_replays"] == 0

    def test_off_grid_stimulus_runs_every_cycle_live(self, monkeypatch):
        monkeypatch.setattr(harness_mod.FantomHarness, "ENV_DELAY", 2.1)
        machine = _machine("lion9")
        walk = random_legal_walk(machine.result.table, 60, seed=1)
        ring, ring_sim = _run(machine, walk, UnitDelay(), Simulator)
        live, _ = _run(machine, walk, UnitDelay(), COMPILED)
        assert ring == live
        stats = ring_sim.kernel_stats
        assert stats["migrations"] == {"off-grid-stimulus": 1}
        assert stats["cycle_replays"] == 0

    def test_memo_engages_through_a_read_through_proxy(self):
        """A wrapper that forwards reads but not attribute writes (as a
        timing proxy does) still gets cycle replay: the kernel restores
        itself, the harness never assigns a kernel field."""

        class ReadThrough:
            def __init__(self, sim):
                self._sim = sim

            def __getattr__(self, name):
                return getattr(self._sim, name)

            @property
            def now(self):
                return self._sim.now

            @property
            def trace(self):
                return self._sim.trace

            def run(self, *args, **kwargs):
                return self._sim.run(*args, **kwargs)

            def schedule(self, *args, **kwargs):
                return self._sim.schedule(*args, **kwargs)

        machine = _machine("train11")
        walk = random_legal_walk(machine.result.table, 200, seed=2)
        delays = partial(delay_model, "skewed", 2, machine)
        sims = []

        def proxied(*args, **kwargs):
            sims.append(Simulator(*args, **kwargs))
            return ReadThrough(sims[-1])

        summary = validate_walk(
            machine, walk, delays=delays(), simulator_factory=proxied
        )
        live, _ = _run(machine, walk, delays(), COMPILED)
        assert [cycle.to_dict() for cycle in summary.cycles] == live
        assert sims[0].kernel_stats["cycle_replays"] > 0


class TestCycleKey:
    def test_every_key_is_the_live_state(self):
        """A cached key never outlives the state it names.

        The kernel caches ``bytes(values)`` between ``run``/``schedule``
        calls and sets it on every restore; a key left stale across a
        live cycle would file that cycle's capture under the wrong
        state.  Every non-``None`` key a walk asks for must equal the
        live net values.
        """
        keyed = []

        class Checked(Simulator):
            def cycle_key(self):
                key = super().cycle_key()
                if key is not None:
                    live = self.values
                    keyed.append(key == bytes(
                        live[net] for net in self.compiled.net_names
                    ))
                return key

        replays = 0
        for name in TABLES:
            machine = _machine(name)
            for seed in (0, 1):
                walk = random_legal_walk(machine.result.table, 200, seed=seed)
                for model in MODELS:
                    _, sim = _run(
                        machine, walk, delay_model(model, seed, machine),
                        Checked,
                    )
                    replays += sim.kernel_stats["cycle_replays"]
        assert replays > 0
        assert keyed and all(keyed), keyed.count(False)
