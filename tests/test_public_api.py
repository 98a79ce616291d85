"""The documented public API surface: every promise in README/docstrings."""

import repro
import repro.api

#: The pinned `repro.api` surface.  A change here is an API change:
#: update the snapshot deliberately, never incidentally.
API_ALL_SNAPSHOT = [
    "BatchItem",
    "BatchRunner",
    "CampaignCell",
    "CampaignResult",
    "DEFAULT_PIPELINE",
    "DELAY_MODELS",
    "FlowTable",
    "PassEvent",
    "PassManager",
    "PipelineReport",
    "PipelineSpec",
    "ResultStore",
    "Session",
    "ShardedBatch",
    "ShardedCampaign",
    "SynthesisOptions",
    "SynthesisResult",
    "ValidationCampaign",
    "batch",
    "load",
    "load_table",
    "synthesize",
]

#: The pinned stage list (name -> pass class).  Older spec files and
#: queued units carry these names, in this order, as their "passes".
REGISTRY_SNAPSHOT = {
    "validate": "ValidatePass",
    "reduce": "ReducePass",
    "assign": "AssignPass",
    "outputs": "OutputsPass",
    "hazards": "HazardsPass",
    "fsv": "FsvPass",
    "factor": "FactorPass",
}


class TestApiSnapshot:
    """CI tripwire: the typed front door and the stage list."""

    def test_api_all_matches_snapshot(self):
        assert sorted(repro.api.__all__) == sorted(API_ALL_SNAPSHOT)

    def test_api_names_resolvable(self):
        for name in repro.api.__all__:
            assert hasattr(repro.api, name), name

    def test_registry_matches_snapshot(self):
        from repro.pipeline.registry import DEFAULT_PIPELINE, create_pass

        observed = {
            key: type(create_pass(key)).__name__ for key in DEFAULT_PIPELINE
        }
        assert observed == REGISTRY_SNAPSHOT
        assert tuple(observed) == tuple(REGISTRY_SNAPSHOT)

    def test_default_pipeline_snapshot(self):
        assert repro.api.DEFAULT_PIPELINE == (
            "validate", "reduce", "assign", "outputs", "hazards", "fsv",
            "factor",
        )

    def test_front_door_session_idiom(self):
        """The README's API block, executed literally."""
        from repro import api

        result = (
            api.load("lion")
            .with_options(minimize=False, reduce_mode="joint")
            .with_options(hazard_correction=False)
            .run()
        )
        assert result.table1_row()[0] == "lion"
        spec = api.PipelineSpec().with_options(reduce_mode="joint")
        assert api.PipelineSpec.from_dict(spec.to_dict()) == spec


class TestPackageSurface:
    def test_all_names_resolvable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_docstring_quickstart(self):
        """The doctest in the package docstring, executed literally."""
        from repro import benchmark, synthesize

        result = synthesize(benchmark("lion"))
        assert result.table1_row() == ("lion", 3, 5, 9)

    def test_readme_quickstart(self):
        """The README's quickstart block, executed end to end."""
        from repro import benchmark, build_fantom, synthesize
        from repro.sim import FantomHarness, loop_safe_random

        table = benchmark("lion")
        result = synthesize(table)
        assert "lion" in result.describe()
        machine = build_fantom(result)
        harness = FantomHarness(machine, delays=loop_safe_random(seed=1))
        state, outputs = harness.apply(table.column_of("11"))
        assert state == "mid_in"
        assert len(outputs) == 1

    def test_subpackage_alls_resolvable(self):
        import repro.assign
        import repro.baselines
        import repro.bench
        import repro.core
        import repro.flowtable
        import repro.hazards
        import repro.logic
        import repro.minimize
        import repro.netlist
        import repro.sim
        import repro.util

        for module in (
            repro.assign,
            repro.baselines,
            repro.bench,
            repro.core,
            repro.flowtable,
            repro.hazards,
            repro.logic,
            repro.minimize,
            repro.netlist,
            repro.sim,
            repro.util,
        ):
            for name in module.__all__:
                assert hasattr(module, name), (module.__name__, name)
