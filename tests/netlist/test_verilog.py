"""Tests for the structural Verilog exporter."""

import re

import pytest

from repro.api import synthesize
from repro.bench import benchmark
from repro.errors import NetlistError
from repro.netlist.fantom import build_fantom
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.netlist.verilog import machine_to_verilog, netlist_to_verilog


def small_netlist():
    nl = Netlist("demo")
    nl.add_input("a")
    nl.add_input("b")
    nl.add_gate("g1", GateType.AND, ("a", "b"), "w1")
    nl.add_gate("g2", GateType.NOR, ("w1",), "f")
    nl.mark_output("f")
    return nl


class TestNetlistToVerilog:
    def test_module_shape(self):
        text = netlist_to_verilog(small_netlist())
        assert "module demo (" in text
        assert "input  wire a" in text
        assert "output wire f" in text
        assert "wire w1;" in text
        assert "and g1 (w1, a, b);" in text
        assert "nor g2 (f, w1);" in text
        assert text.strip().endswith("endmodule")

    def test_module_name_override(self):
        text = netlist_to_verilog(small_netlist(), module_name="top")
        assert "module top (" in text

    def test_constants_become_assigns(self):
        nl = Netlist("consts")
        nl.add_gate("k0", GateType.CONST0, (), "zero")
        nl.add_gate("k1", GateType.CONST1, (), "one")
        nl.mark_output("zero")
        nl.mark_output("one")
        text = netlist_to_verilog(nl)
        assert "assign zero = 1'b0;" in text
        assert "assign one = 1'b1;" in text

    def test_dff_instantiation(self):
        nl = Netlist("ff")
        nl.add_input("d")
        nl.add_input("clk")
        nl.add_dff("ff1", d="d", q="q", clock="clk")
        nl.mark_output("q")
        text = netlist_to_verilog(nl)
        assert "module FANTOM_DFF" in text
        assert "FANTOM_DFF ff1 (.d(d), .clk(clk), .q(q));" in text

    def test_bad_identifier_rejected(self):
        nl = Netlist("bad-name")
        nl.add_input("a")
        nl.add_gate("g", GateType.BUF, ("a",), "f")
        with pytest.raises(NetlistError):
            netlist_to_verilog(nl)


class TestMachineToVerilog:
    def test_full_machine_exports(self):
        machine = build_fantom(synthesize(benchmark("lion")))
        text = machine_to_verilog(machine)
        assert "FANTOM machine for flow table 'lion'" in text
        assert "module fantom_lion (" in text
        # every gate of the netlist appears exactly once
        for gate in machine.netlist.gates:
            assert re.search(rf"\b{re.escape(gate.name)}\b", text), gate.name
        # the architecture's signature gates
        assert "gateA (VOM, " in text
        assert "G_and (G, VI, G_hold);" in text

    def test_every_benchmark_exports(self):
        for name in ("hazard_demo", "traffic", "test_example"):
            machine = build_fantom(synthesize(benchmark(name)))
            text = machine_to_verilog(machine)
            assert "endmodule" in text

    def test_identifiers_all_legal(self):
        machine = build_fantom(synthesize(benchmark("lion9")))
        text = machine_to_verilog(machine)
        # no stray characters (merged-state names contain '+') outside
        # of comments that would break elaboration
        for line in text.splitlines():
            if line.strip().startswith("//"):
                continue
            assert "+" not in line, line
