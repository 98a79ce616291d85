"""Unit tests for the event-driven simulator."""

import pytest

from repro.errors import SimulationError
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.sim._reference import ReferenceSimulator
from repro.sim.delays import RandomDelay, UnitDelay, loop_safe_random
from repro.sim.ring import RingSimulator
from repro.sim.simulator import Simulator


def inverter_chain(length=3):
    nl = Netlist("chain")
    nl.add_input("a")
    previous = "a"
    for i in range(length):
        out = f"n{i}"
        nl.add_gate(f"inv{i}", GateType.NOR, (previous,), out)
        previous = out
    return nl, previous


class TestCombinational:
    def test_propagation_with_unit_delays(self):
        nl, out = inverter_chain(3)
        sim = Simulator(nl, UnitDelay(), initial_values={"a": 0, "n0": 1, "n1": 0, "n2": 1})
        sim.schedule("a", 1, at=1.0)
        sim.run(until=10.0)
        # three inversions of 1 -> 0
        assert sim.value(out) == 0

    def test_change_arrives_after_total_delay(self):
        nl, out = inverter_chain(2)
        sim = Simulator(nl, UnitDelay(), initial_values={"a": 0, "n0": 1, "n1": 0})
        sim.watch(out)
        sim.schedule("a", 1, at=1.0)
        sim.run(until=10.0)
        changes = sim.trace_of(out)
        assert len(changes) == 1
        assert changes[0].time == pytest.approx(3.0)  # 1.0 + 2 gates
        assert changes[0].value == 1

    def test_glitch_propagates_with_transport_delay(self):
        # f = AND(a, NOR(a)) should pulse when a rises (the NOR lags);
        # transport semantics keep the pulse visible.
        nl = Netlist("glitch")
        nl.add_input("a")
        nl.add_gate("inv", GateType.NOR, ("a",), "an")
        nl.add_gate("and1", GateType.AND, ("a", "an"), "f")
        sim = Simulator(nl, UnitDelay(), initial_values={"a": 0, "an": 1, "f": 0},
                        inertial=False)
        sim.watch("f")
        sim.schedule("a", 1, at=1.0)
        sim.run(until=10.0)
        values = [c.value for c in sim.trace_of("f")]
        assert values == [1, 0]  # the classic static-0 pulse

    def test_identical_value_not_reapplied(self):
        nl, _ = inverter_chain(1)
        sim = Simulator(nl, UnitDelay(), initial_values={"a": 0, "n0": 1})
        sim.watch("n0")
        sim.schedule("a", 0, at=1.0)  # no-op change
        sim.run(until=5.0)
        assert sim.trace_of("n0") == []

    def test_schedule_in_past_rejected(self):
        nl, _ = inverter_chain(1)
        sim = Simulator(nl)
        sim.run(until=5.0)
        with pytest.raises(SimulationError):
            sim.schedule("a", 1, at=1.0)

    @pytest.mark.parametrize("at", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "kernel", [Simulator, RingSimulator, ReferenceSimulator],
        ids=["compiled", "ring", "reference"],
    )
    def test_non_finite_schedule_time_rejected(self, kernel, at):
        """A NaN or infinite time would become the clock and switch off
        the "before now" guard for the rest of the session."""
        nl, _ = inverter_chain(1)
        sim = kernel(nl, UnitDelay())
        with pytest.raises(SimulationError, match="non-finite"):
            sim.schedule("a", 1, at=at)
        assert sim.run(until=10.0) == 10.0
        assert sim.now == 10.0
        with pytest.raises(SimulationError, match="before now"):
            sim.schedule("a", 1, at=5.0)
        # The ring refuses before any path migration.
        stats = getattr(sim, "kernel_stats", {"migrations": {}})
        assert stats["migrations"] == {}

    @pytest.mark.parametrize(
        "call",
        [
            lambda sim: sim.run(until=5.0),
            lambda sim: sim.run(until=float("nan")),
            lambda sim: sim.run_until_quiet(-1.0),
        ],
        ids=["until-before-now", "until-nan", "negative-timeout"],
    )
    @pytest.mark.parametrize(
        "kernel", [Simulator, RingSimulator, ReferenceSimulator],
        ids=["compiled", "ring", "reference"],
    )
    def test_clock_never_runs_backwards(self, kernel, call):
        """A horizon before ``now`` (or NaN) is refused, so time that
        has passed never reopens to ``schedule()``."""
        nl, _ = inverter_chain(1)
        sim = kernel(nl, UnitDelay())
        sim.schedule("a", 1, at=20.0)
        assert sim.run(until=10.0) == 10.0
        with pytest.raises(SimulationError, match="cannot run until"):
            call(sim)
        assert sim.now == 10.0
        with pytest.raises(SimulationError, match="before now"):
            sim.schedule("a", 0, at=6.0)
        assert sim.run(until=30.0) == 30.0
        assert sim.value("a") == 1

    def test_unknown_net_value(self):
        nl, _ = inverter_chain(1)
        sim = Simulator(nl)
        with pytest.raises(SimulationError):
            sim.value("nope")


class TestFeedback:
    def test_sr_style_latch_holds(self):
        # G = AND(VI, OR(VOM, G)): raising then dropping VOM while VI
        # is high must leave G high (it "remembers").
        nl = Netlist("latch")
        nl.add_input("VI")
        nl.add_input("VOM")
        nl.add_gate("or1", GateType.OR, ("VOM", "G"), "hold")
        nl.add_gate("and1", GateType.AND, ("VI", "hold"), "G")
        sim = Simulator(
            nl, UnitDelay(), initial_values={"VI": 0, "VOM": 1, "hold": 1, "G": 0}
        )
        sim.schedule("VI", 1, at=1.0)
        sim.run(until=10.0)
        assert sim.value("G") == 1
        sim.schedule("VOM", 0, at=11.0)
        sim.run(until=20.0)
        assert sim.value("G") == 1  # remembered through the loop
        sim.schedule("VI", 0, at=21.0)
        sim.run(until=30.0)
        assert sim.value("G") == 0

    def test_oscillator_raises(self):
        # a NOR feeding itself oscillates forever: budget must trip.
        nl = Netlist("osc")
        nl.add_gate("inv", GateType.NOR, ("q",), "q")
        sim = Simulator(nl, UnitDelay(), max_events=500, inertial=False)
        sim.schedule("q", 1, at=0.5)
        with pytest.raises(SimulationError) as err:
            sim.run()
        assert "budget" in str(err.value)

    def test_run_until_quiet_detects_busy_queue(self):
        nl = Netlist("osc")
        nl.add_gate("inv", GateType.NOR, ("q",), "q")
        sim = Simulator(nl, UnitDelay(), max_events=100_000, inertial=False)
        sim.schedule("q", 1, at=0.5)
        with pytest.raises(SimulationError):
            sim.run_until_quiet(timeout=50.0)


class TestInertial:
    def test_short_pulse_filtered(self):
        # the same AND(a, NOR(a)) shape under inertial semantics: the
        # re-evaluation supersedes the pending pulse.
        nl = Netlist("glitch")
        nl.add_input("a")
        nl.add_gate("inv", GateType.NOR, ("a",), "an")
        nl.add_gate("and1", GateType.AND, ("a", "an"), "f")
        sim = Simulator(
            nl, UnitDelay(), initial_values={"a": 0, "an": 1, "f": 0}
        )
        sim.watch("f")
        sim.schedule("a", 1, at=1.0)
        sim.run(until=10.0)
        assert sim.trace_of("f") == []

    def test_long_pulse_survives_inertial(self):
        # a pulse wider than the reader's delay must still pass.
        nl = Netlist("wide")
        nl.add_input("a")
        nl.add_gate("buf", GateType.BUF, ("a",), "f")
        sim = Simulator(nl, UnitDelay(), initial_values={"a": 0, "f": 0})
        sim.watch("f")
        sim.schedule("a", 1, at=1.0)
        sim.schedule("a", 0, at=5.0)  # 4-unit pulse vs 1-unit gate
        sim.run(until=10.0)
        values = [c.value for c in sim.trace_of("f")]
        assert values == [1, 0]

    def test_external_schedules_not_cancelled(self):
        nl = Netlist("ext")
        nl.add_input("a")
        nl.add_gate("buf", GateType.BUF, ("a",), "f")
        sim = Simulator(nl, UnitDelay())
        sim.schedule("a", 1, at=1.0)
        sim.schedule("a", 0, at=2.0)
        sim.schedule("a", 1, at=3.0)
        sim.watch("a")
        sim.run(until=10.0)
        assert [c.value for c in sim.trace_of("a")] == [1, 0, 1]


class TestDff:
    def build_dff(self):
        nl = Netlist("ff")
        nl.add_input("d")
        nl.add_input("clk")
        nl.add_dff("ff", d="d", q="q", clock="clk")
        return nl

    def test_samples_on_rising_edge(self):
        nl = self.build_dff()
        sim = Simulator(nl, UnitDelay(), initial_values={"d": 1, "clk": 0, "q": 0})
        sim.schedule("clk", 1, at=2.0)
        sim.run(until=10.0)
        assert sim.value("q") == 1

    def test_ignores_falling_edge(self):
        nl = self.build_dff()
        sim = Simulator(nl, UnitDelay(), initial_values={"d": 1, "clk": 1, "q": 0})
        sim.schedule("clk", 0, at=2.0)
        sim.run(until=10.0)
        assert sim.value("q") == 0

    def test_samples_d_at_edge_instant(self):
        nl = self.build_dff()
        sim = Simulator(nl, UnitDelay(), initial_values={"d": 0, "clk": 0, "q": 0})
        sim.schedule("clk", 1, at=2.0)
        sim.schedule("d", 1, at=3.0)  # after the edge: must not be seen
        sim.run(until=10.0)
        assert sim.value("q") == 0


class TestDelayModels:
    def test_random_delay_deterministic_per_seed(self):
        from repro.netlist.gates import Gate

        gate = Gate("g1", GateType.AND, ("a", "b"), "f")
        d1 = RandomDelay(seed=42).gate_delay(gate)
        d2 = RandomDelay(seed=42).gate_delay(gate)
        d3 = RandomDelay(seed=43).gate_delay(gate)
        assert d1 == d2
        assert d1 != d3

    def test_random_delay_cached_per_instance(self):
        from repro.netlist.gates import Gate

        model = RandomDelay(seed=1)
        gate = Gate("g1", GateType.AND, ("a", "b"), "f")
        assert model.gate_delay(gate) == model.gate_delay(gate)

    def test_explicit_gate_delay_wins(self):
        from repro.netlist.gates import Gate

        gate = Gate("g1", GateType.AND, ("a", "b"), "f", delay=9.0)
        assert RandomDelay(seed=1).gate_delay(gate) == 9.0

    def test_loop_safe_ranges(self):
        from repro.netlist.gates import Dff, Gate

        model = loop_safe_random(0)
        gate = Gate("g", GateType.AND, ("a",), "f")
        dff = Dff("ff", "d", "q", "clk")
        assert model.gate_delay(gate) >= 1.5
        assert model.clk_to_q(dff) <= 1.0

    def test_nonpositive_delay_rejected(self):
        with pytest.raises(ValueError):
            RandomDelay(seed=0, gate_range=(0.0, 1.0))
