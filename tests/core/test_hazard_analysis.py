"""Unit tests for the Figure-4 hazard search."""

from repro.assign.encoding import StateEncoding
from repro.bench import benchmark
from repro.core.hazard_analysis import find_hazards
from repro.core.spec import SpecifiedMachine
from repro.flowtable.builder import FlowTableBuilder


def demo_spec():
    """hazard_demo with the canonical off=0 / on=1 encoding.

    The machine rests in 'off' under 00, 01 and 10 and in 'on' under 11
    and 01.  The transition off@01 -> off@10 (and off@10 -> off@01) is a
    two-bit input change whose intermediate column 11 excites 'on': a
    guaranteed function M-hazard on the single state variable.
    """
    table = benchmark("hazard_demo")
    encoding = StateEncoding(("y1",), {"off": 0, "on": 1})
    return SpecifiedMachine(table, encoding)


class TestDemoMachine:
    def test_single_hazard_point_found(self):
        spec = demo_spec()
        analysis = find_hazards(spec)
        hazard_point = spec.pack(spec.table.column_of("11"), 0)
        assert analysis.fl == {hazard_point}
        assert analysis.hazard_list(0) == frozenset({hazard_point})

    def test_counters(self):
        spec = demo_spec()
        analysis = find_hazards(spec)
        assert analysis.transitions_examined > 0
        assert analysis.intermediates_examined >= (
            2 * analysis.transitions_examined
        )
        assert analysis.hazard_count() == 1
        assert analysis.has_hazards

    def test_describe_names_the_state(self):
        spec = demo_spec()
        analysis = find_hazards(spec)
        text = analysis.describe(spec)
        assert "off" in text
        assert "11" in text


class TestInvariantLogic:
    def test_changing_variables_never_flagged(self):
        # Every multi-input-change transition here flips the only state
        # variable (a<->b), so premature excitation at an intermediate is
        # benign and no hazard may be reported.
        b = FlowTableBuilder(inputs=["x1", "x2"], outputs=["z"])
        b.stable("a", "00", "0").add("a", "11", "b")
        b.stable("b", "11", "1").add("b", "00", "a")
        table = b.build(name="twostates")
        enc = StateEncoding(("y1",), {"a": 0, "b": 1})
        analysis = find_hazards(SpecifiedMachine(table, enc))
        assert analysis.transitions_examined == 2
        assert not analysis.has_hazards

    def test_holding_intermediates_are_benign(self):
        # A state stable under every column holds itself at every
        # intermediate of its multi-input changes: no hazard possible.
        b = FlowTableBuilder(inputs=["x1", "x2"], outputs=["z"])
        for pattern in ("00", "01", "10", "11"):
            b.stable("c", pattern, "0")
        table = b.build(name="holds")
        enc = StateEncoding(("y1",), {"c": 0})
        analysis = find_hazards(SpecifiedMachine(table, enc))
        assert analysis.transitions_examined > 0
        assert not analysis.has_hazards

    def test_unspecified_intermediate_becomes_pin(self):
        b = FlowTableBuilder(inputs=["x1", "x2"], outputs=["z"])
        b.stable("a", "00", "0").stable("a", "01", "0")
        b.add("a", "11", "a2")  # MIC with unspecified intermediate 10
        b.stable("a2", "11", "0")
        b.add("a2", "01", "a")
        b.add("a2", "00", "a")
        table = b.build(name="pins", check=False)
        enc = StateEncoding(("y1", "y2"), {"a": 0b00, "a2": 0b01})
        spec = SpecifiedMachine(table, enc)
        analysis = find_hazards(spec)
        # transition a@00->11 (dest a2): y2 (bit 1) is invariant and the
        # intermediate (10, code a) is unspecified -> pinned to 0.
        point = spec.pack(table.column_of("10"), 0b00)
        assert analysis.pins.get((point, 1)) == 0
        assert point not in analysis.fl


class TestBenchmarks:
    def test_lion_has_guaranteed_hazards(self):
        from repro.api import synthesize

        result = synthesize(benchmark("lion"))
        # mid_in resting under two beam patterns with the 00 column
        # exciting 'in' guarantees hazard points regardless of encoding.
        assert result.analysis.has_hazards
        assert len(result.analysis.fl) >= 2

    def test_all_table1_machines_have_hazards(self):
        from repro.bench import TABLE1_BENCHMARKS
        from repro.api import synthesize

        for name in TABLE1_BENCHMARKS:
            result = synthesize(benchmark(name))
            assert result.analysis.has_hazards, f"{name} lost its hazards"

    def test_hazard_points_are_unstable_entries(self):
        from repro.api import synthesize

        for name in ("lion", "traffic", "lion9"):
            result = synthesize(benchmark(name))
            spec = result.spec
            for minterm in result.analysis.fl:
                column, code = spec.unpack(minterm)
                state = spec.encoding.state_of(code)
                assert state is not None
                assert not spec.table.is_stable(state, column)
