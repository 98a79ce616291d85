"""Unit tests for the FANTOM architecture builder (paper Figures 1-2)."""

import pytest

from repro.api import synthesize
from repro.bench import benchmark
from repro.netlist.fantom import build_fantom
from repro.netlist.gates import GateType
from repro.netlist.timing import timing_report


def lion_machine():
    return build_fantom(synthesize(benchmark("lion")))


class TestStructure:
    def test_ffx_bank_per_input(self):
        machine = lion_machine()
        ffx = [f for f in machine.netlist.dffs if f.name.startswith("FFX")]
        assert len(ffx) == 2
        assert all(f.clock == "G" for f in ffx)

    def test_ffz_bank_per_output(self):
        machine = lion_machine()
        ffz = [f for f in machine.netlist.dffs if f.name.startswith("FFZ")]
        assert len(ffz) == 1
        assert all(f.clock == "VOM" for f in ffz)

    def test_state_nets_have_no_flip_flop(self):
        # "Delay elements are not allowed in the feedback path."
        machine = lion_machine()
        dff_outputs = {f.q for f in machine.netlist.dffs}
        for net in machine.state_nets:
            assert net not in dff_outputs
            driver = machine.netlist.driver_of(net)
            assert driver is not None  # driven by combinational logic

    def test_vom_block_shape(self):
        # Figure 2: VOM = AND(NOR(G), NOR(fsv), SSD)
        machine = lion_machine()
        gate_a = next(
            g for g in machine.netlist.gates if g.name == "gateA"
        )
        assert gate_a.type is GateType.AND
        assert set(gate_a.inputs) == {"G_n", "fsv_n", "SSD"}
        assert gate_a.output == "VOM"

    def test_g_latch_shape(self):
        machine = lion_machine()
        g_and = next(g for g in machine.netlist.gates if g.name == "G_and")
        g_or = next(g for g in machine.netlist.gates if g.name == "G_or")
        assert g_and.inputs == ("VI", "G_hold")
        assert set(g_or.inputs) == {"VOM", "G"}  # the remembering loop

    def test_vom_gate_delay_override(self):
        machine = build_fantom(
            synthesize(benchmark("lion")), vom_gate_delay=7.5
        )
        gate_a = next(
            g for g in machine.netlist.gates if g.name == "gateA"
        )
        assert gate_a.delay == 7.5

    def test_ablated_machine_has_constant_fsv(self):
        machine = build_fantom(synthesize(benchmark("lion")), use_fsv=False)
        driver_name = machine.netlist.driver_of("fsv")
        driver = next(
            g for g in machine.netlist.gates if g.name == driver_name
        )
        assert driver.type is GateType.CONST0
        assert not machine.uses_fsv


class TestInitialValues:
    def test_reset_point_is_fixpoint(self):
        machine = lion_machine()
        values = machine.initial_values()
        spec = machine.result.spec
        code = spec.encoding.code(machine.reset_state())
        for n, net in enumerate(machine.state_nets):
            assert values[net] == code >> n & 1

    def test_vom_asserted_at_reset(self):
        values = lion_machine().initial_values()
        assert values["VOM"] == 1
        assert values["G"] == 0
        assert values["fsv"] == 0
        assert values["SSD"] == 1

    def test_outputs_match_reset_entry(self):
        machine = lion_machine()
        values = machine.initial_values()
        table = machine.result.table
        reset = machine.reset_state()
        column = machine.reset_column()
        for k, net in enumerate(machine.output_nets):
            expected = table.output_vector(reset, column)[k]
            if expected is not None:
                assert values[net] == expected

    @pytest.mark.parametrize(
        "name", ["lion", "traffic", "test_example", "train4", "hazard_demo"]
    )
    def test_all_benchmarks_initialise(self, name):
        machine = build_fantom(synthesize(benchmark(name)))
        machine.initial_values()  # must not raise


class TestTimingReport:
    def test_all_paths_satisfied_for_benchmarks(self):
        for name in ("lion", "traffic", "hazard_demo"):
            report = timing_report(synthesize(benchmark(name)))
            assert report.all_satisfied(), (name, report.rows())

    def test_vom_formula(self):
        report = timing_report(synthesize(benchmark("lion")))
        assert report.t_vom == report.t_f + min(
            report.t_g,
            min(report.a + report.t_ssd, report.a + report.t_fsv),
        )

    def test_rows_render(self):
        report = timing_report(synthesize(benchmark("lion")))
        rows = report.rows()
        assert len(rows) == 4
        assert all(len(row) == 3 for row in rows)

    def test_starved_environment_breaks_path4(self):
        # with no environment round-trip budget, fsv/SSD cannot take over
        # before G would deassert — the relation the paper warns about.
        report = timing_report(
            synthesize(benchmark("lion")), t_env=-10
        )
        assert not report.check_path4()
