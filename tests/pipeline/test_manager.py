"""PassManager contract tests: ordering, timing, error wrapping."""

import pytest

from repro.bench import benchmark
from repro.errors import FlowTableError, SynthesisError
from repro.pipeline import (
    PassError,
    PassManager,
    PipelineContext,
    SynthesisOptions,
    default_passes,
)

EXPECTED_ORDER = (
    "validate", "reduce", "assign", "outputs", "hazards", "fsv", "factor",
)


class RecordingPass:
    """A stub pass that appends its name to a shared log."""

    def __init__(self, name, log, requires=(), provides=(), fail=None):
        self.name = name
        self.requires = tuple(requires)
        self.provides = tuple(provides)
        self.log = log
        self.fail = fail

    def run(self, ctx: PipelineContext) -> None:
        self.log.append(self.name)
        if self.fail is not None:
            raise self.fail
        for key in self.provides:
            ctx.set(key, f"artifact:{key}")


def run_stub_pipeline(passes):
    """Run a stub pass list over a real table, without result assembly."""
    manager = PassManager(passes=passes)
    table = benchmark("lion")
    ctx = PipelineContext(table, SynthesisOptions())
    # Exercise the manager loop without the SynthesisResult assembly,
    # which stub passes don't feed.
    with pytest.raises(SynthesisError, match="artifact"):
        manager.run(table)
    return ctx


class TestDefaultPipeline:
    def test_passes_run_in_figure3_order(self):
        assert tuple(p.name for p in default_passes()) == EXPECTED_ORDER

    def test_stage_seconds_keyed_by_pass_name(self):
        result = PassManager().run(benchmark("lion"))
        assert tuple(result.stage_seconds) == EXPECTED_ORDER
        assert all(s >= 0 for s in result.stage_seconds.values())

    def test_report_events_match_stages(self):
        manager = PassManager()
        result, report = manager.run_with_report(benchmark("traffic"))
        assert [e.name for e in report.events] == list(EXPECTED_ORDER)
        assert report.total_seconds == pytest.approx(
            sum(result.stage_seconds.values())
        )
        assert manager.last_report is report

    def test_without_a_store_a_repeated_run_runs_every_pass(self):
        manager = PassManager()
        table = benchmark("lion")
        manager.run(table)
        _, report = manager.run_with_report(table)
        assert not report.store_hit
        assert [e.name for e in report.events] == list(EXPECTED_ORDER)

    def test_report_describe_mentions_every_pass(self):
        manager = PassManager()
        _, report = manager.run_with_report(benchmark("lion"))
        text = report.describe()
        for name in EXPECTED_ORDER:
            assert name in text


class TestCustomPassLists:
    def test_stub_passes_execute_in_list_order(self):
        log = []
        passes = [
            RecordingPass("a", log, provides=("x",)),
            RecordingPass("b", log, requires=("x",), provides=("y",)),
            RecordingPass("c", log, requires=("x", "y")),
        ]
        run_stub_pipeline(passes)
        assert log == ["a", "b", "c"]

    def test_missing_requirement_is_reported_with_pass_name(self):
        log = []
        passes = [RecordingPass("needs_x", log, requires=("x",))]
        manager = PassManager(passes=passes)
        with pytest.raises(SynthesisError, match="needs_x"):
            manager.run(benchmark("lion"))
        assert log == []  # never executed

    def test_undeclared_provides_is_an_error(self):
        class LyingPass(RecordingPass):
            def run(self, ctx):
                self.log.append(self.name)  # provides nothing

        manager = PassManager(
            passes=[LyingPass("liar", [], provides=("ghost",))]
        )
        with pytest.raises(SynthesisError, match="liar"):
            manager.run(benchmark("lion"))

    def test_duplicate_pass_names_rejected(self):
        log = []
        with pytest.raises(SynthesisError, match="duplicate"):
            PassManager(
                passes=[RecordingPass("p", log), RecordingPass("p", log)]
            )


class TestErrorWrapping:
    def test_unexpected_exception_wrapped_with_pass_name(self):
        log = []
        boom = ValueError("boom")
        manager = PassManager(
            passes=[RecordingPass("exploder", log, fail=boom)]
        )
        with pytest.raises(PassError, match="exploder") as info:
            manager.run(benchmark("lion"))
        assert info.value.pass_name == "exploder"
        assert info.value.__cause__ is boom

    def test_domain_errors_propagate_unwrapped(self):
        log = []
        failure = FlowTableError("bad table")
        manager = PassManager(
            passes=[RecordingPass("checker", log, fail=failure)]
        )
        with pytest.raises(FlowTableError, match="bad table"):
            manager.run(benchmark("lion"))

    def test_pass_error_is_a_synthesis_error(self):
        assert issubclass(PassError, SynthesisError)


class TestContext:
    def test_artifacts_are_write_once(self):
        ctx = PipelineContext(benchmark("lion"), SynthesisOptions())
        ctx.set("k", "v1")
        with pytest.raises(SynthesisError, match="overwrite"):
            ctx.set("k", "v1")
        with pytest.raises(SynthesisError, match="overwrite"):
            ctx.set("k", "v2")

    def test_get_missing_artifact_names_available_keys(self):
        ctx = PipelineContext(benchmark("lion"), SynthesisOptions())
        ctx.set("present", 1)
        with pytest.raises(SynthesisError, match="present"):
            ctx.get("absent")
