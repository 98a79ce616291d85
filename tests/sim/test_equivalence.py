"""The compiled event kernel is pinned to the retained seed interpreter.

Same pattern as PR 3's logic-engine pinning: the rewritten hot path
(:class:`repro.sim.simulator.Simulator`, running the compiled netlist
program) must be observably indistinguishable from the seed kernel
(:class:`repro.sim._reference.ReferenceSimulator`) — identical
:class:`NetChange` traces, identical final net values, identical
simulation time — on random netlists under random stimuli and delay
models, and identical :class:`ValidationSummary` outcomes over the
golden machines.  (`events_processed` intentionally differs: the
compiled kernel filters no-op re-evaluations at push time.)
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.errors import SimulationError
from repro.sim._reference import ReferenceSimulator
from repro.sim.campaign import ENGINES
from repro.sim.delays import CornerDelay, RandomDelay, UnitDelay
from repro.sim.simulator import Simulator

from ..strategies import normal_mode_tables

SETTINGS = settings(max_examples=40, deadline=None)

_GATE_TYPES = (GateType.AND, GateType.OR, GateType.NOR, GateType.BUF)


@st.composite
def netlists(draw):
    """Small random netlists: external inputs, gates, optional dffs.

    Gate inputs are drawn from a shared name pool (with replacement, so
    duplicate inputs occur) and may reference nets driven *later* —
    combinational feedback loops included, exactly the structures the
    FANTOM architecture relies on.
    """
    num_inputs = draw(st.integers(1, 3))
    num_gates = draw(st.integers(1, 7))
    inputs = [f"i{n}" for n in range(num_inputs)]
    wires = [f"w{n}" for n in range(num_gates)]
    pool = inputs + wires

    nl = Netlist("random")
    for net in inputs:
        nl.add_input(net)
    for n, out in enumerate(wires):
        gate_type = draw(st.sampled_from(_GATE_TYPES))
        arity = 1 if gate_type is GateType.BUF else draw(st.integers(1, 3))
        gate_inputs = [draw(st.sampled_from(pool)) for _ in range(arity)]
        nl.add_gate(f"g{n}", gate_type, gate_inputs, out)
    if draw(st.booleans()):
        nl.add_dff(
            "ff1",
            d=draw(st.sampled_from(pool)),
            q="q1",
            clock=draw(st.sampled_from(inputs)),
        )
    return nl


@st.composite
def stimuli(draw, nl):
    """A monotone schedule of external-pin changes."""
    schedule = []
    at = 0.0
    for _ in range(draw(st.integers(1, 10))):
        at += draw(st.floats(0.25, 4.0, allow_nan=False))
        net = draw(st.sampled_from(nl.primary_inputs))
        schedule.append((round(at, 3), net, draw(st.integers(0, 1))))
    return schedule


def delay_model_for(choice: int):
    if choice == 0:
        return lambda: UnitDelay()
    if choice == 1:
        return lambda: RandomDelay(seed=choice)
    return lambda: CornerDelay(phase=choice)


def run_one(factory, nl, schedule, delays_factory, inertial):
    sim = factory(nl, delays=delays_factory(), inertial=inertial)
    sim.watch(*sorted(nl.nets()))
    for at, net, value in schedule:
        sim.schedule(net, value, at=at)
    end = sim.run(until=60.0)
    values = {net: sim.value(net) for net in nl.nets()}
    return sim.trace, values, end


class TestKernelEquivalence:
    @given(
        data=st.data(),
        model=st.integers(0, 2),
        inertial=st.booleans(),
    )
    @SETTINGS
    def test_random_netlists_trace_identical(self, data, model, inertial):
        nl = data.draw(netlists())
        schedule = data.draw(stimuli(nl))
        delays_factory = delay_model_for(model)
        compiled = run_one(Simulator, nl, schedule, delays_factory, inertial)
        reference = run_one(
            ReferenceSimulator, nl, schedule, delays_factory, inertial
        )
        assert compiled[0] == reference[0]  # NetChange streams
        assert compiled[1] == reference[1]  # final values
        assert compiled[2] == reference[2]  # simulation time


class TestValueReaders:
    """Bank readers are live tuple snapshots, as the oracle's are."""

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_banks_read_like_the_reference(self, engine):
        nl = Netlist("banks")
        nl.add_input("a")
        nl.add_gate("inv", GateType.NOR, ("a",), "n0")
        nl.add_gate("buf", GateType.BUF, ("n0",), "n1")
        banks = [(), ("n1",), ("a", "n0", "n1"), ("n1", "a", "n1")]
        sims = [
            kernel(nl, UnitDelay(), initial_values={"n0": 1, "n1": 1})
            for kernel in (ENGINES[engine], ReferenceSimulator)
        ]
        readers = [[sim.values_reader(bank) for bank in banks] for sim in sims]
        snapshots = []
        for sim, bank_readers in zip(sims, readers):
            before = [read() for read in bank_readers]
            sim.schedule("a", 1, at=1.0)
            sim.run(until=10.0)
            snapshots.append((before, [read() for read in bank_readers]))
        assert snapshots[0] == snapshots[1]
        before, after = snapshots[0]
        assert before == [(), (1,), (0, 1, 1), (1, 0, 1)]
        assert after == [(), (0,), (1, 0, 0), (0, 1, 0)]
        assert all(type(bank) is tuple for bank in before + after)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_unknown_net_is_refused(self, engine):
        nl = Netlist("banks")
        nl.add_input("a")
        sim = ENGINES[engine](nl)
        with pytest.raises(SimulationError, match="unknown net"):
            sim.values_reader(("a", "nope"))


class TestMachineEquivalence:
    def validate_both(self, name, **kwargs):
        from repro.netlist.fantom import build_fantom
        from repro.sim.harness import validate_against_reference

        from ..strategies import cached_synthesize
        from repro.bench import benchmark

        machine = build_fantom(cached_synthesize(benchmark(name)))
        compiled = validate_against_reference(machine, **kwargs)
        reference = validate_against_reference(
            machine, simulator_factory=ReferenceSimulator, **kwargs
        )
        assert compiled.cycles == reference.cycles
        return compiled

    def test_golden_machines_summary_identical(self):
        for name in ("hazard_demo", "traffic", "lion"):
            summary = self.validate_both(name, steps=25, seeds=(0, 1))
            assert summary.total > 0

    def test_campaign_outcomes_identical(self):
        from repro.sim.campaign import ValidationCampaign

        def campaign(engine):
            return ValidationCampaign(
                sweep=2,
                steps=10,
                delay_models=("unit", "loop-safe", "corner"),
                engine=engine,
            ).run_names(["hazard_demo", "traffic"])

        compiled = campaign("compiled")
        reference = campaign("reference")
        assert [
            (c.table, c.model, c.seed, c.summary.cycles)
            for c in compiled.cells
        ] == [
            (c.table, c.model, c.seed, c.summary.cycles)
            for c in reference.cells
        ]

    def test_ablated_machine_failures_identical(self):
        """Divergence (hazard firings) must agree cycle for cycle too."""
        from repro.netlist.fantom import build_fantom
        from repro.sim.delays import skewed_random
        from repro.sim.harness import validate_against_reference
        from repro.bench import benchmark

        from ..strategies import cached_synthesize

        machine = build_fantom(
            cached_synthesize(benchmark("hazard_demo")), use_fsv=False
        )
        kwargs = dict(steps=20, seeds=(0, 1, 2), delays_factory=skewed_random)
        compiled = validate_against_reference(machine, **kwargs)
        reference = validate_against_reference(
            machine, simulator_factory=ReferenceSimulator, **kwargs
        )
        assert compiled.cycles == reference.cycles
        assert not compiled.all_clean  # the workload does expose hazards


class TestSynthesizedMachineEquivalence:
    @given(table=normal_mode_tables(max_states=4, max_inputs=2))
    @settings(max_examples=12, deadline=None)
    def test_hypothesis_machines_validate_identically(self, table):
        from repro.errors import ReproError
        from repro.netlist.fantom import build_fantom
        from repro.sim.harness import validate_against_reference

        from ..strategies import cached_synthesize

        try:
            machine = build_fantom(cached_synthesize(table))
        except ReproError:
            return  # not synthesisable (not strongly connected, ...)
        compiled = validate_against_reference(machine, steps=8, seeds=(0,))
        reference = validate_against_reference(
            machine,
            steps=8,
            seeds=(0,),
            simulator_factory=ReferenceSimulator,
        )
        assert compiled.cycles == reference.cycles


class TestWalkDeterminism:
    def test_walk_rng_threading_matches_seed(self):
        from repro.bench import benchmark
        from repro.sim.harness import random_legal_walk

        table = benchmark("lion")
        by_seed = random_legal_walk(table, 30, seed=9)
        by_rng = random_legal_walk(table, 30, rng=random.Random(9))
        assert by_seed == by_rng

    def test_walk_requires_some_randomness_source(self):
        import pytest

        from repro.bench import benchmark
        from repro.errors import SimulationError
        from repro.sim.harness import random_legal_walk

        with pytest.raises(SimulationError):
            random_legal_walk(benchmark("lion"), 5)
