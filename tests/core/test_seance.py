"""Integration tests for the full SEANCE pipeline (paper Figure 3)."""

import pytest

from repro.api import SynthesisOptions, synthesize
from repro.bench import PAPER_TABLE1, TABLE1_BENCHMARKS, benchmark
from repro.errors import FlowTableError
from repro.logic.expr import expr_truth


class TestPipelineSteps:
    def test_pipeline_steps_all_timed(self):
        result = synthesize(benchmark("lion"))
        for stage in (
            "validate",
            "reduce",
            "assign",
            "outputs",
            "hazards",
            "fsv",
            "factor",
        ):
            assert stage in result.stage_seconds

    def test_invalid_table_rejected(self):
        from repro.flowtable.builder import FlowTableBuilder

        b = FlowTableBuilder(inputs=["x1"], outputs=["z"])
        b.stable("a", "0", "0").add("a", "1", "b").add("b", "1", "a")
        table = b.build(check=False)
        with pytest.raises(FlowTableError):
            synthesize(table)

    def test_validation_can_be_disabled(self):
        from repro.flowtable.builder import FlowTableBuilder

        b = FlowTableBuilder(inputs=["x1"], outputs=["z"])
        b.stable("a", "0", "0").add("a", "1", "b")
        b.stable("b", "1", "1")  # not strongly connected (no way back)
        b.add("b", "0", "a")
        table = b.build(check=False)
        synthesize(table, SynthesisOptions(validate_input=False))

    def test_minimize_can_be_disabled(self):
        table = benchmark("test_example")  # reducible
        with_min = synthesize(table)
        without = synthesize(table, SynthesisOptions(minimize=False))
        assert with_min.table.num_states < without.table.num_states


class TestEquationSemantics:
    """The synthesised covers must equal their source functions on the
    care set — the end-to-end functional-correctness check."""

    @pytest.mark.parametrize("name", ["lion", "traffic", "test_example"])
    def test_next_state_covers_match_functions(self, name):
        from repro.core.fsv import next_state_functions

        result = synthesize(benchmark(name))
        functions = next_state_functions(result.spec, result.analysis)
        for fn, eq in zip(functions, result.next_state):
            table = expr_truth(eq.expr, fn.names)
            for m in range(fn.space):
                spec_value = fn.value(m)
                if spec_value is not None:
                    assert table[m] == spec_value, (
                        f"{name}.{eq.name} differs at minterm {m:b}"
                    )

    @pytest.mark.parametrize("name", ["lion", "traffic", "test_example"])
    def test_fsv_cover_matches_function(self, name):
        from repro.core.fsv import fsv_function

        result = synthesize(benchmark(name))
        fn = fsv_function(result.spec, result.analysis)
        table = expr_truth(result.fsv.expr, fn.names)
        for m in range(fn.space):
            assert table[m] == fn.value(m)

    @pytest.mark.parametrize("name", ["lion", "traffic"])
    def test_output_and_ssd_covers_match(self, name):
        result = synthesize(benchmark(name))
        spec = result.spec
        for k, eq in enumerate(result.outputs):
            fn = spec.output_function(k)
            table = expr_truth(eq.expr, spec.names)
            for m in range(fn.space):
                v = fn.value(m)
                if v is not None:
                    assert table[m] == v
        ssd_fn = spec.ssd_function()
        ssd_table = expr_truth(result.ssd.expr, spec.names)
        for m in range(ssd_fn.space):
            v = ssd_fn.value(m)
            if v is not None:
                assert ssd_table[m] == v

    def test_fsv_zero_at_stable_points(self):
        for name in TABLE1_BENCHMARKS:
            result = synthesize(benchmark(name))
            fsv_table = expr_truth(result.fsv.expr, result.spec.names)
            for m in result.spec.stable_minterms():
                assert fsv_table[m] == 0, f"{name}: fsv high at rest"


class TestTable1Shape:
    """Table 1's qualitative shape must reproduce (see EXPERIMENTS.md for
    the exact measured-vs-paper values)."""

    def test_depth_ranges(self):
        for name in TABLE1_BENCHMARKS:
            report = synthesize(benchmark(name)).depth_report
            assert 2 <= report.fsv_depth <= 4, name
            assert 4 <= report.y_depth <= 6, name

    def test_total_is_fsv_plus_y_plus_one(self):
        for name in TABLE1_BENCHMARKS:
            report = synthesize(benchmark(name)).depth_report
            assert (
                report.total_depth
                == report.fsv_depth + report.y_depth + 1
            )

    def test_lion_matches_paper_exactly(self):
        row = synthesize(benchmark("lion")).table1_row()
        assert row[1:] == PAPER_TABLE1["lion"]

    def test_runtime_is_modest(self):
        # The paper reports ~4 s per example on a 1989 workstation; the
        # reproduction should stay well under that on anything modern.
        for name in TABLE1_BENCHMARKS:
            result = synthesize(benchmark(name))
            assert result.total_seconds < 4.0, name


class TestResultReporting:
    def test_describe_mentions_key_facts(self):
        result = synthesize(benchmark("lion"))
        text = result.describe()
        assert "lion" in text
        assert "fsv=" in text
        assert "equations" in text

    def test_equations_and_covers_aligned(self):
        result = synthesize(benchmark("lion"))
        eqs = result.equations()
        covers = result.covers()
        assert set(eqs) == set(covers)
        assert "fsv" in eqs
        assert "SSD" in eqs
        for var in result.assignment.encoding.variables:
            assert var in eqs

    def test_table1_row_shape(self):
        row = synthesize(benchmark("traffic")).table1_row()
        assert row[0] == "traffic"
        assert len(row) == 4
