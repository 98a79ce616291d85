"""PipelineSpec and the named-pass registry: contracts and round-trips."""

import dataclasses
import json

import pytest

from repro.errors import SynthesisError
from repro.pipeline import (
    DEFAULT_PIPELINE,
    CacheSpec,
    PipelineSpec,
    StageCache,
    SynthesisOptions,
    base_name,
    create_pass,
    default_passes,
    register_pass,
    registered_passes,
    substitute,
)
from repro.pipeline.passes import SkipHazardsPass

#: One ill-typed or out-of-range value per option field.
BAD_OPTIONS = [
    ("minimize", "no"),
    ("validate_input", None),
    ("verify_assignment", 1),
    ("hazard_correction", 0),
    ("reduce_mode", "bogus"),
    ("output_policy", True),
    ("ssd_dc_policy", "loose"),
]


class TestRegistry:
    def test_default_pipeline_is_registered(self):
        registered = set(registered_passes())
        for key in DEFAULT_PIPELINE:
            assert key in registered

    def test_create_pass_stamps_registry_key(self):
        p = create_pass("hazards:off")
        assert isinstance(p, SkipHazardsPass)
        assert p.registry_key == "hazards:off"
        assert p.name == "hazards"

    def test_unknown_key_lists_registered_passes(self):
        with pytest.raises(SynthesisError, match="registered passes"):
            create_pass("no_such_pass")

    def test_base_name(self):
        assert base_name("hazards:off") == "hazards"
        assert base_name("factor") == "factor"

    def test_substitute_replaces_by_base_name(self):
        swapped = substitute(
            DEFAULT_PIPELINE, "outputs:all-primes", "hazards:off"
        )
        assert swapped[3:5] == ("outputs:all-primes", "hazards:off")
        assert len(swapped) == len(DEFAULT_PIPELINE)

    def test_substitute_unmatched_stage_is_an_error(self):
        with pytest.raises(SynthesisError, match="matches no pipeline"):
            substitute(("validate", "reduce"), "hazards:off")

    def test_reregistration_is_an_error(self):
        with pytest.raises(SynthesisError, match="already registered"):
            register_pass("hazards:off")(SkipHazardsPass)

    def test_variants_must_keep_their_base_name(self):
        @register_pass("_bogus_stage:variant")
        class Misnamed:
            name = "something_else"
            requires = ()
            provides = ()
            cacheable = True

            def run(self, ctx):
                pass

        try:
            with pytest.raises(SynthesisError, match="base name"):
                create_pass("_bogus_stage:variant")
        finally:
            from repro.pipeline import registry

            registry._REGISTRY.pop("_bogus_stage:variant")

    def test_default_passes_come_from_the_registry(self):
        for p, key in zip(default_passes(), DEFAULT_PIPELINE):
            assert p.registry_key == key


class TestPipelineSpec:
    def test_default_spec_resolves_to_the_paper_pipeline(self):
        spec = PipelineSpec()
        assert spec.passes == DEFAULT_PIPELINE
        assert [type(p) for p in spec.resolve()] == [
            type(p) for p in default_passes()
        ]

    def test_unknown_pass_name_fails_at_construction(self):
        with pytest.raises(SynthesisError, match="unknown pass name"):
            PipelineSpec(passes=("validate", "typo"))

    def test_empty_pipeline_is_an_error(self):
        with pytest.raises(SynthesisError, match="at least one pass"):
            PipelineSpec(passes=())

    def test_substitute_builder(self):
        spec = PipelineSpec().substitute("hazards:off")
        assert "hazards:off" in spec.passes
        assert PipelineSpec().passes == DEFAULT_PIPELINE  # immutable

    def test_with_options_overrides_fields(self):
        spec = PipelineSpec().with_options(minimize=False)
        assert spec.options.minimize is False
        assert spec.options.hazard_correction is True
        with pytest.raises(SynthesisError, match="bad options"):
            PipelineSpec().with_options(bogus=1)

    def test_with_cache_forms(self):
        assert PipelineSpec().with_cache(None).cache == CacheSpec(enabled=False)
        disabled = CacheSpec(enabled=False)
        assert PipelineSpec().with_cache(disabled).cache == disabled

    def test_with_cache_rejects_a_path(self, tmp_path):
        # The stage cache is in-memory only; a location names a store.
        with pytest.raises(SynthesisError, match="with_store"):
            PipelineSpec().with_cache("stages")
        with pytest.raises(SynthesisError, match="with_store"):
            PipelineSpec().with_cache(tmp_path)

    def test_build_manager_runs(self):
        from repro.bench import benchmark

        result = PipelineSpec().build_manager(cache=None).run(
            benchmark("lion")
        )
        assert result.table1_row() == ("lion", 3, 5, 9)

    def test_build_manager_cache_override(self, tmp_path):
        cache = StageCache()
        manager = PipelineSpec().build_manager(cache=cache)
        assert manager.cache is cache
        assert PipelineSpec().with_cache(None).build_manager().cache is None

    def test_fingerprint_tracks_passes_and_options_not_cache(self):
        base = PipelineSpec()
        assert base.fingerprint() == PipelineSpec().fingerprint()
        assert (
            base.substitute("hazards:off").fingerprint()
            != base.fingerprint()
        )
        assert (
            base.with_options(minimize=False).fingerprint()
            != base.fingerprint()
        )
        assert (
            base.with_cache(None).fingerprint()
            == base.fingerprint()
        )


class TestSpecRoundTrip:
    def specs(self):
        return [
            PipelineSpec(),
            PipelineSpec().substitute("outputs:all-primes", "hazards:off"),
            PipelineSpec(
                passes=(*DEFAULT_PIPELINE, "verify"),
                options=SynthesisOptions(
                    minimize=False, validate_input=False,
                    reduce_mode="joint", hazard_correction=False,
                    output_policy="as_specified",
                ),
                cache=CacheSpec(enabled=False),
            ),
        ]

    def test_to_from_dict_identity(self):
        for spec in self.specs():
            assert PipelineSpec.from_dict(spec.to_dict()) == spec

    def test_byte_identical_reserialisation(self):
        for spec in self.specs():
            first = json.dumps(spec.to_dict(), sort_keys=True)
            again = json.dumps(
                PipelineSpec.from_dict(json.loads(first)).to_dict(),
                sort_keys=True,
            )
            assert first == again

    def test_json_text_round_trip(self):
        for spec in self.specs():
            assert PipelineSpec.from_json(spec.to_json()) == spec

    def test_save_load(self, tmp_path):
        spec = PipelineSpec().substitute("hazards:off")
        path = tmp_path / "spec.json"
        spec.save(path)
        assert PipelineSpec.load(path) == spec

    def test_unknown_key_is_strictly_rejected(self):
        payload = PipelineSpec().to_dict()
        payload["surprise"] = 1
        with pytest.raises(SynthesisError, match="unknown pipeline spec"):
            PipelineSpec.from_dict(payload)

    def test_unknown_option_is_strictly_rejected(self):
        payload = PipelineSpec().to_dict()
        payload["options"]["surprise"] = 1
        with pytest.raises(SynthesisError, match="unknown options"):
            PipelineSpec.from_dict(payload)

    @pytest.mark.parametrize("option,value", BAD_OPTIONS)
    def test_ill_typed_option_fails_at_load(
        self, tmp_path, capsys, option, value
    ):
        from repro.cli import main

        payload = PipelineSpec().to_dict()
        payload["options"][option] = value
        with pytest.raises(SynthesisError, match=f"option {option!r}"):
            PipelineSpec.from_dict(payload)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        assert main(["synth", "lion", "--spec", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: option ")

    @pytest.mark.parametrize("option,value", BAD_OPTIONS)
    def test_bad_option_fails_at_construction(self, option, value):
        from repro import api

        match = f"option {option!r} must be one of"
        with pytest.raises(SynthesisError, match=match):
            SynthesisOptions(**{option: value})
        with pytest.raises(SynthesisError, match=match):
            PipelineSpec().with_options(**{option: value})
        with pytest.raises(SynthesisError, match=match):
            api.load("lion").with_options(**{option: value})

    @pytest.mark.parametrize("option,value", BAD_OPTIONS)
    def test_bad_option_fails_in_a_queue_unit(self, option, value):
        from repro.bench import benchmark
        from repro.store.sharding import ShardedBatch, WorkUnit

        [unit] = ShardedBatch([benchmark("lion")]).units
        payload = json.loads(json.dumps(unit.to_payload()))
        assert WorkUnit.from_payload(payload).key == unit.key
        payload["spec"]["options"][option] = value
        with pytest.raises(SynthesisError, match=f"option {option!r}"):
            WorkUnit.from_payload(payload)

    def test_default_fingerprint_is_pinned(self):
        # Every store key hashes it: checking options at construction
        # must leave it byte-identical.
        assert PipelineSpec().fingerprint() == (
            "c04502682854e68916543d4aeee215648377b7b4f18300818ae064510b5590ab"
        )

    def test_unknown_cache_key_is_strictly_rejected(self):
        payload = PipelineSpec().to_dict()
        payload["cache"]["surprise"] = 1
        with pytest.raises(SynthesisError, match="unknown cache spec"):
            PipelineSpec.from_dict(payload)

    def test_null_cache_path_still_loads(self):
        # Older builds emitted `"path": null` in every spec file.
        payload = PipelineSpec().to_dict()
        assert "path" not in payload["cache"]
        payload["cache"]["path"] = None
        assert PipelineSpec.from_dict(payload) == PipelineSpec()

    def test_default_max_entries_still_loads(self):
        # Older builds emitted `"max_entries": 4096` in every spec file.
        payload = PipelineSpec().to_dict()
        assert "max_entries" not in payload["cache"]
        payload["cache"]["max_entries"] = 4096
        assert PipelineSpec.from_dict(payload) == PipelineSpec()

    @pytest.mark.parametrize("bound", [7, 0, None, "4096"])
    def test_other_max_entries_are_rejected(self, bound):
        payload = PipelineSpec().to_dict()
        payload["cache"]["max_entries"] = bound
        with pytest.raises(SynthesisError, match="max_entries"):
            PipelineSpec.from_dict(payload)

    def test_cache_path_is_rejected(self):
        payload = PipelineSpec().to_dict()
        payload["cache"]["path"] = "stages"
        with pytest.raises(SynthesisError, match="--store"):
            PipelineSpec.from_dict(payload)

    def test_future_format_is_rejected(self):
        payload = PipelineSpec().to_dict()
        payload["format"] = 99
        with pytest.raises(SynthesisError, match="unsupported"):
            PipelineSpec.from_dict(payload)

    def test_options_fields_all_serialised(self):
        payload = PipelineSpec().to_dict()
        assert set(payload["options"]) == {
            f.name for f in dataclasses.fields(SynthesisOptions)
        }
