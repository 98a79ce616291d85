"""Tests for the SIC Huffman baseline and the STG-expansion cost model."""

import pytest

from repro.api import synthesize
from repro.baselines.huffman import sic_walk_is_legal, synthesize_huffman
from repro.baselines.stg_expansion import (
    comparison_row,
    fantom_expansion_cost,
    stg_expansion_cost,
    stg_expansion_cost_from_stg,
)
from repro.bench import benchmark
from repro.flowtable.stg import Stg
from repro.hazards.logic_hazards import is_sic_hazard_free
from repro.logic.expr import expr_truth


class TestHuffmanBaseline:
    def test_equations_cover_functions(self):
        result = synthesize_huffman(benchmark("lion"))
        spec = result.spec
        for n, fn in enumerate(spec.excitations()):
            name = spec.encoding.variables[n]
            table = expr_truth(result.equations[name], spec.names)
            for m in range(fn.space):
                v = fn.value(m)
                if v is not None:
                    assert table[m] == v

    def test_covers_are_sic_hazard_free(self):
        result = synthesize_huffman(benchmark("lion"))
        for name, cover in result.next_state.items():
            assert is_sic_hazard_free(list(cover), result.spec.width), name

    def test_no_fsv_anywhere(self):
        result = synthesize_huffman(benchmark("lion"))
        for expr in result.equations.values():
            assert "fsv" not in expr.variables()

    def test_depth_is_two_level(self):
        # all-primes SOP in first-level gates: at most 3 levels.
        result = synthesize_huffman(benchmark("lion"))
        assert 1 <= result.y_depth <= 3

    def test_cost_report(self):
        result = synthesize_huffman(benchmark("lion"))
        assert result.cost.gate_count > 0
        assert result.cost.literal_count > 0

    def test_describe(self):
        text = synthesize_huffman(benchmark("lion")).describe()
        assert "single-input changes only" in text


class TestSicWalk:
    def test_single_bit_walk_legal(self):
        table = benchmark("hazard_demo")
        # 00 -> 10 -> 11: single-bit steps
        walk = [table.column_of("10"), table.column_of("11")]
        assert sic_walk_is_legal(table, walk)

    def test_multi_bit_walk_illegal(self):
        table = benchmark("hazard_demo")
        walk = [table.column_of("11")]  # from 00: two bits change
        assert not sic_walk_is_legal(table, walk)


class TestStgExpansionCost:
    def test_lion_costs(self):
        table = benchmark("lion")
        cost = stg_expansion_cost(table)
        assert cost.mic_transitions == len(
            list(table.transitions(min_input_distance=2))
        )
        # every MIC in the suite is a 2-bit change: one extra phase each.
        assert cost.extra_phases == cost.mic_transitions
        assert cost.max_steps_per_input_change == 2

    def test_fantom_costs(self):
        result = synthesize(benchmark("lion"))
        cost = fantom_expansion_cost(result)
        assert cost.extra_state_variables == 1
        assert cost.doubled_minterm_space == 2 * cost.base_minterm_space
        assert cost.max_state_changes_per_input_change == 2

    def test_hazard_free_machine_needs_nothing(self):
        from repro.flowtable.builder import FlowTableBuilder

        b = FlowTableBuilder(inputs=["x1"], outputs=["z"])
        b.stable("a", "0", "0").add("a", "1", "b")
        b.stable("b", "1", "1").add("b", "0", "a")
        result = synthesize(b.build(name="toggle"))
        cost = fantom_expansion_cost(result)
        assert cost.extra_state_variables == 0
        assert cost.max_state_changes_per_input_change == 1

    def test_comparison_row(self):
        table = benchmark("lion")
        row = comparison_row(table, synthesize(table))
        assert row["benchmark"] == "lion"
        assert row["fantom_max_state_changes"] <= row["stg_max_steps"] or (
            row["stg_max_steps"] == 2
        )

    def test_stg_based_costing_matches_expansion(self):
        stg = Stg(
            inputs=["req", "ack"],
            outputs=["busy"],
            initial_phase="idle",
            initial_inputs={"req": 0, "ack": 0},
        )
        stg.phase("idle", "0").phase("working", "1").phase("done", "0")
        stg.arc("idle", "working", ["req+"])
        stg.arc("working", "done", ["ack+", "req-"])
        stg.arc("done", "idle", ["ack-"])
        cost = stg_expansion_cost_from_stg(stg)
        assert cost.mic_transitions == 1
        assert cost.extra_phases == 1
        assert cost.extra_arcs == 1
        assert cost.max_steps_per_input_change == 2
