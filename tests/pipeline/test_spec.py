"""PipelineSpec and the fixed stage list: contracts and round-trips."""

import dataclasses
import json

import pytest

from repro.errors import SynthesisError
from repro.pipeline import (
    DEFAULT_PIPELINE,
    PassManager,
    PipelineSpec,
    SynthesisOptions,
    default_passes,
)
from repro.pipeline.registry import create_pass

#: The default spec as the builds with a stage cache saved it.
LEGACY_SPEC_JSON = """{
  "cache": {
    "enabled": true
  },
  "format": 1,
  "options": {
    "hazard_correction": true,
    "minimize": true,
    "output_policy": "stable_only",
    "reduce_mode": "split",
    "ssd_dc_policy": "unspecified",
    "validate_input": true,
    "verify_assignment": true
  }
}
"""

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


def with_passes(passes) -> dict:
    """The default spec's dict carrying an older build's pass list."""
    payload = PipelineSpec().to_dict()
    payload["passes"] = list(passes)
    return payload


class TestRegistry:
    def test_default_pipeline_is_registered(self):
        for key in DEFAULT_PIPELINE:
            assert create_pass(key).name == key

    def test_unknown_key_lists_registered_passes(self):
        with pytest.raises(SynthesisError, match="the pipeline is validate"):
            create_pass("no_such_pass")

    def test_default_passes_come_from_the_registry(self):
        assert [type(p) for p in default_passes()] == [
            type(create_pass(key)) for key in DEFAULT_PIPELINE
        ]


class TestPipelineSpec:
    def test_default_spec_resolves_to_the_paper_pipeline(self):
        manager = PassManager()
        assert tuple(p.name for p in manager.passes) == DEFAULT_PIPELINE
        assert "passes" not in PipelineSpec().to_dict()
        assert "cache" not in PipelineSpec().to_dict()

    def test_unknown_pass_name_fails_at_construction(self):
        with pytest.raises(TypeError):
            PipelineSpec(passes=("validate", "typo"))
        with pytest.raises(SynthesisError, match="no longer supported"):
            PipelineSpec.from_dict(with_passes(("validate", "typo")))

    def test_empty_pipeline_is_an_error(self):
        with pytest.raises(SynthesisError, match="no longer supported"):
            PipelineSpec.from_dict(with_passes(()))

    def test_with_options_overrides_fields(self):
        spec = PipelineSpec().with_options(minimize=False)
        assert spec.options.minimize is False
        assert spec.options.hazard_correction is True
        with pytest.raises(SynthesisError, match="bad options"):
            PipelineSpec().with_options(bogus=1)

    def test_fingerprint_tracks_passes_and_options_not_cache(
        self, monkeypatch
    ):
        base = PipelineSpec()
        assert base.fingerprint() == PipelineSpec().fingerprint()
        # The stage list is hashed: a pipeline that grew a stage would
        # name its results apart from the seven-stage ones.
        from repro.pipeline import spec as spec_module

        seven = base.fingerprint()
        with monkeypatch.context() as patch:
            patch.setattr(
                spec_module, "DEFAULT_PIPELINE", (*DEFAULT_PIPELINE, "extra")
            )
            assert PipelineSpec().fingerprint() != seven
        assert (
            base.with_options(minimize=False).fingerprint()
            != base.fingerprint()
        )
        legacy = dict(base.to_dict(), cache={"enabled": False})
        assert (
            PipelineSpec.from_dict(legacy).fingerprint()
            == base.fingerprint()
        )


class TestSpecRoundTrip:
    def specs(self):
        return [
            PipelineSpec(),
            PipelineSpec().with_options(hazard_correction=False),
            PipelineSpec(
                options=SynthesisOptions(
                    minimize=False, validate_input=False,
                    reduce_mode="joint", hazard_correction=False,
                    output_policy="as_specified",
                ),
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
        spec = PipelineSpec().with_options(hazard_correction=False)
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

    def test_default_pass_list_still_loads(self):
        # Older builds wrote the seven stage names into every spec.
        spec = PipelineSpec.from_dict(with_passes(DEFAULT_PIPELINE))
        assert spec == PipelineSpec()
        assert spec.fingerprint() == PipelineSpec().fingerprint()

    def test_default_pass_list_still_loads_in_a_queue_unit(self):
        from repro.bench import benchmark
        from repro.store.sharding import ShardedBatch, WorkUnit

        [unit] = ShardedBatch([benchmark("lion")]).units
        payload = json.loads(json.dumps(unit.to_payload()))
        assert "passes" not in payload["spec"]
        payload["spec"]["passes"] = list(DEFAULT_PIPELINE)
        assert WorkUnit.from_payload(payload).key == unit.key

    @pytest.mark.parametrize(
        "passes",
        [
            (*DEFAULT_PIPELINE, "verify"),
            (*DEFAULT_PIPELINE[:4], "hazards:off", *DEFAULT_PIPELINE[5:]),
            tuple(reversed(DEFAULT_PIPELINE)),
        ],
    )
    def test_other_pass_lists_name_the_replacement(self, passes):
        with pytest.raises(SynthesisError) as error:
            PipelineSpec.from_dict(with_passes(passes))
        assert "hazard_correction: false" in str(error.value)
        assert "seance validate" in str(error.value)

    def test_parent_written_spec_with_a_cache_still_loads(self, tmp_path):
        # Builds with a stage cache wrote `"cache": {"enabled": ...}`
        # into every spec file; it is read and ignored.
        assert PipelineSpec.from_json(LEGACY_SPEC_JSON) == PipelineSpec()
        path = tmp_path / "spec.json"
        path.write_text(LEGACY_SPEC_JSON)
        assert PipelineSpec.load(path).fingerprint() == (
            PipelineSpec().fingerprint()
        )
        disabled = LEGACY_SPEC_JSON.replace("true\n  }", "false\n  }", 1)
        assert '"enabled": false' in disabled
        assert PipelineSpec.from_json(disabled) == PipelineSpec()

    def test_parent_written_cache_still_loads_in_a_queue_unit(self):
        from repro.bench import benchmark
        from repro.store.sharding import ShardedBatch, WorkUnit

        [unit] = ShardedBatch([benchmark("lion")]).units
        payload = json.loads(json.dumps(unit.to_payload()))
        assert "cache" not in payload["spec"]
        payload["spec"]["cache"] = {"enabled": True}
        assert WorkUnit.from_payload(payload).key == unit.key

    def test_unknown_cache_key_is_strictly_rejected(self):
        payload = PipelineSpec().to_dict()
        payload["cache"] = {"enabled": True, "surprise": 1}
        with pytest.raises(SynthesisError, match="--store"):
            PipelineSpec.from_dict(payload)

    def test_null_cache_path_still_loads(self):
        # Older builds emitted `"path": null` in every spec file.
        payload = PipelineSpec().to_dict()
        payload["cache"] = {"enabled": True, "path": None}
        assert PipelineSpec.from_dict(payload) == PipelineSpec()

    def test_default_max_entries_still_loads(self):
        # Older builds emitted `"max_entries": 4096` in every spec file.
        payload = PipelineSpec().to_dict()
        payload["cache"] = {"enabled": True, "max_entries": 4096}
        assert PipelineSpec.from_dict(payload) == PipelineSpec()

    @pytest.mark.parametrize("bound", [7, 0, None, "4096"])
    def test_other_max_entries_are_rejected(self, bound):
        payload = PipelineSpec().to_dict()
        payload["cache"] = {"max_entries": bound}
        with pytest.raises(SynthesisError, match="max_entries"):
            PipelineSpec.from_dict(payload)

    def test_cache_path_is_rejected(self):
        payload = PipelineSpec().to_dict()
        payload["cache"] = {"enabled": True, "path": "stages"}
        with pytest.raises(SynthesisError, match="--store"):
            PipelineSpec.from_dict(payload)

    @pytest.mark.parametrize("cache", [{"enabled": "yes"}, [], None, True])
    def test_other_cache_values_are_rejected(self, cache):
        payload = PipelineSpec().to_dict()
        payload["cache"] = cache
        with pytest.raises(SynthesisError, match="--store") as error:
            PipelineSpec.from_dict(payload)
        assert "no stage cache" in str(error.value)

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
