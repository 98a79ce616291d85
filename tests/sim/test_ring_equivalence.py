"""The kernel with cycle replay on is pinned to the kernel with it off.

Same pattern as the compiled-kernel engine swap: the ``ring`` engine
(:class:`repro.sim.simulator.Simulator` — the heap loop plus hand-shake
cycle replay, replay off for stimuli off the time grid) must be
observably indistinguishable from the ``compiled`` engine (the same
kernel built with ``replay=False``) — identical
:class:`NetChange` traces, identical final net values, identical
simulation time — on random netlists under random stimuli across every
delay model, and identical campaign outcomes (including the failing
cells of ablated machines) over the golden machines.  Live events run
on the one heap loop and a cycle replay adds its recorded count, so
``events_processed`` agrees too (pinned on
unit-delay machine walks below).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.campaign import ENGINES
from repro.sim.simulator import Simulator

from .test_equivalence import delay_model_for, netlists, run_one, stimuli

SETTINGS = settings(max_examples=40, deadline=None)

#: The one kernel with cycle replay off: the heap-loop baseline.
COMPILED = ENGINES["compiled"]


@st.composite
def integral_stimuli(draw, nl):
    """A monotone schedule of pin changes at integer times.

    The fractional schedules of :func:`stimuli` turn the ring kernel's
    replay off; integral schedules keep it on the ``ring`` path.
    """
    schedule = []
    at = 0
    for _ in range(draw(st.integers(1, 10))):
        at += draw(st.integers(1, 4))
        net = draw(st.sampled_from(nl.primary_inputs))
        schedule.append((float(at), net, draw(st.integers(0, 1))))
    return schedule


class TestRingKernelEquivalence:
    @given(data=st.data(), model=st.integers(0, 2), inertial=st.booleans())
    @SETTINGS
    def test_random_netlists_trace_identical(self, data, model, inertial):
        nl = data.draw(netlists())
        schedule = data.draw(stimuli(nl))
        delays_factory = delay_model_for(model)
        ring = run_one(Simulator, nl, schedule, delays_factory, inertial)
        compiled = run_one(COMPILED, nl, schedule, delays_factory, inertial)
        assert ring[0] == compiled[0]  # NetChange streams
        assert ring[1] == compiled[1]  # final values
        assert ring[2] == compiled[2]  # simulation time

    @given(data=st.data(), inertial=st.booleans())
    @SETTINGS
    def test_integral_unit_delay_stays_on_the_ring(self, data, inertial):
        """Replay path (no heap migration) is trace-identical."""
        nl = data.draw(netlists())
        schedule = data.draw(integral_stimuli(nl))
        delays_factory = delay_model_for(0)  # unit: integral delays
        ring = run_one(Simulator, nl, schedule, delays_factory, inertial)
        compiled = run_one(COMPILED, nl, schedule, delays_factory, inertial)
        assert ring[0] == compiled[0]
        assert ring[1] == compiled[1]
        assert ring[2] == compiled[2]

    def test_fractional_schedule_migrates_to_heap(self):
        """A fractional external event mid-run falls back losslessly."""
        from repro.netlist.gates import GateType
        from repro.netlist.netlist import Netlist
        from repro.sim.delays import UnitDelay

        nl = Netlist("mig")
        nl.add_input("a")
        nl.add_gate("g0", GateType.BUF, ["a"], "w0")
        nl.add_gate("g1", GateType.NOR, ["w0", "w1"], "w1")
        schedule = [(1.0, "a", 1), (2.5, "a", 0), (4.0, "a", 1)]
        ring = run_one(Simulator, nl, schedule, lambda: UnitDelay(), True)
        compiled = run_one(
            COMPILED, nl, schedule, lambda: UnitDelay(), True
        )
        assert ring == compiled


class TestRingMachineEquivalence:
    def test_campaign_outcomes_identical_all_models(self):
        from repro.sim.campaign import DELAY_MODELS, ValidationCampaign

        def campaign(engine):
            return ValidationCampaign(
                sweep=2,
                steps=10,
                delay_models=tuple(DELAY_MODELS),
                engine=engine,
            ).run_names(["hazard_demo", "traffic"])

        ring = campaign("ring")
        compiled = campaign("compiled")
        assert [
            (c.table, c.model, c.seed, c.summary.cycles) for c in ring.cells
        ] == [
            (c.table, c.model, c.seed, c.summary.cycles)
            for c in compiled.cells
        ]

    def test_golden_walk_summaries_identical(self):
        from repro.bench import benchmark
        from repro.netlist.fantom import build_fantom
        from repro.sim.harness import validate_against_reference

        from ..strategies import cached_synthesize

        for name in ("hazard_demo", "traffic", "lion"):
            machine = build_fantom(cached_synthesize(benchmark(name)))
            ring = validate_against_reference(
                machine,
                steps=25,
                seeds=(0, 1),
                simulator_factory=Simulator,
            )
            compiled = validate_against_reference(
                machine, steps=25, seeds=(0, 1), simulator_factory=COMPILED
            )
            assert ring.cycles == compiled.cycles
            assert ring.total > 0

    def test_ablated_anomaly_cells_identical(self):
        """Hazard firings of ablated machines agree failure for failure.

        train11 under hostile skew and lion9 under loop-safe delays are
        the anomaly cells of the campaign suite: the fsv-less machines
        diverge there, and the ring kernel must report the *same*
        failing cycles, not merely the same counts.
        """
        from repro.bench import benchmark
        from repro.netlist.fantom import build_fantom
        from repro.sim.delays import hostile_random, loop_safe_random
        from repro.sim.harness import validate_against_reference

        from ..strategies import cached_synthesize

        cases = [
            ("train11", hostile_random),
            ("lion9", loop_safe_random),
        ]
        saw_failure = False
        for name, delays_factory in cases:
            machine = build_fantom(
                cached_synthesize(benchmark(name)), use_fsv=False
            )
            kwargs = dict(
                steps=15, seeds=(0, 1, 2), delays_factory=delays_factory
            )
            ring = validate_against_reference(
                machine, simulator_factory=Simulator, **kwargs
            )
            compiled = validate_against_reference(
                machine, simulator_factory=COMPILED, **kwargs
            )
            assert ring.cycles == compiled.cycles
            assert ring.failures == compiled.failures
            saw_failure = saw_failure or not compiled.all_clean
        assert saw_failure  # the ablated workload does expose hazards


class TestRingFastPaths:
    def _walk(self, name="traffic"):
        from repro.bench import benchmark
        from repro.netlist.fantom import build_fantom
        from repro.sim.delays import UnitDelay
        from repro.sim.harness import validate_against_reference

        from ..strategies import cached_synthesize

        machine = build_fantom(cached_synthesize(benchmark(name)))
        return validate_against_reference(
            machine,
            steps=20,
            seeds=(0,),
            delays_factory=lambda seed: UnitDelay(),
            simulator_factory=Simulator,
        )

    def test_replay_path_engages(self, monkeypatch):
        """Guard against a silent fall-through to the live loop.

        Cycle replay carries almost every event of a campaign walk, and
        a lost replay changes no trace, so only this probe (not the
        equivalence pins) notices when restores stop firing.
        """
        restores = []
        orig_restore = Simulator.cycle_restore

        def restore(self, *a, **kw):
            replayed = orig_restore(self, *a, **kw)
            restores.append(replayed)
            return replayed

        monkeypatch.setattr(Simulator, "cycle_restore", restore)
        summary = self._walk("lion9")
        assert summary.total > 0
        assert sum(restores) > 0, restores

    def test_events_processed_match_the_compiled_kernel(self):
        """Live runs are the compiled kernel's loop and a cycle replay
        adds its recorded count, so both kernels process
        the same number of events over a long unit-delay walk (the
        regime with the most same-time events), driven cycle by cycle
        through ``harness.apply`` and scored through ``validate_walk``
        (where the ring serves revisited cycles from its memo)."""
        from repro.bench import benchmark
        from repro.netlist.fantom import build_fantom
        from repro.sim.delays import UnitDelay
        from repro.sim.harness import (
            FantomHarness,
            random_legal_walk,
            validate_walk,
        )
        from ..strategies import cached_synthesize

        for name in ("lion9", "train11"):
            machine = build_fantom(cached_synthesize(benchmark(name)))
            walk = random_legal_walk(machine.result.table, 200, seed=0)
            processed = []
            scored = []
            sims = []
            for kernel in (Simulator, COMPILED):
                harness = FantomHarness(
                    machine, delays=UnitDelay(), simulator_factory=kernel
                )
                for column in walk:
                    harness.apply(column)
                processed.append(harness.simulator.events_processed)

                def factory(*args, kernel=kernel, **kwargs):
                    sims.append(kernel(*args, **kwargs))
                    return sims[-1]

                validate_walk(
                    machine, walk, delays=UnitDelay(),
                    simulator_factory=factory,
                )
                scored.append(sims[-1].events_processed)
            assert processed[0] == processed[1], name
            assert scored[0] == scored[1], name
            assert scored[0] == processed[0], name
            assert sims[0].kernel_stats["cycle_replays"] > 0, name
