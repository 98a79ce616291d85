"""Tests for the seance command-line interface."""

import pytest

from repro.cli import main


class TestSynth:
    def test_synth_benchmark(self, capsys):
        assert main(["synth", "lion"]) == 0
        out = capsys.readouterr().out
        assert "SEANCE synthesis of 'lion'" in out
        assert "fsv=" in out

    def test_synth_kiss_file(self, tmp_path, capsys):
        from repro.bench import kiss_source

        path = tmp_path / "machine.kiss2"
        path.write_text(kiss_source("hazard_demo"))
        assert main(["synth", str(path)]) == 0
        assert "machine" in capsys.readouterr().out

    def test_synth_with_flags(self, capsys):
        assert main(["synth", "lion", "--hazards", "--encoding"]) == 0
        out = capsys.readouterr().out
        assert "hazard point" in out
        assert "states on" in out

    def test_synth_no_fsv(self, capsys):
        assert main(["synth", "hazard_demo", "--no-fsv"]) == 0
        out = capsys.readouterr().out
        assert "fsv = 0" in out

    def test_unknown_spec(self, capsys):
        assert main(["synth", "no_such_benchmark"]) == 2
        assert "error" in capsys.readouterr().err

    def test_too_many_inputs_is_a_cli_error(self, tmp_path, capsys):
        path = tmp_path / "wide.kiss2"
        path.write_text(".i 30\n.o 1\n.s 1\n" + "-" * 30 + " a a 0\n.e\n")
        assert main(["synth", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "limit of 20" in err


class TestTable1:
    def test_table1_lists_all_benchmarks(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        for name in ("test_example", "traffic", "lion", "lion9", "train11"):
            assert name in out


class TestValidate:
    def test_validate_clean_machine(self, capsys):
        assert main(["validate", "hazard_demo", "--steps", "8",
                     "--seeds", "1"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_validate_ablated_machine_fails(self, capsys):
        code = main([
            "validate", "hazard_demo", "--no-fsv", "--skewed",
            "--steps", "20", "--seeds", "2",
        ])
        out = capsys.readouterr().out
        # the unprotected machine must either fail outright or
        # demonstrate errors; both exit non-zero.
        assert code == 1
        assert "FAILED" in out


class TestBatch:
    def test_batch_default_runs_whole_suite(self, capsys):
        from repro.bench import benchmark_names

        assert main(["batch"]) == 0
        out = capsys.readouterr().out
        for name in benchmark_names():
            assert name in out
        assert "0 failed" in out

    def test_batch_named_subset_in_order(self, capsys):
        assert main(["batch", "traffic", "lion"]) == 0
        out = capsys.readouterr().out
        assert out.index("traffic") < out.index("lion")

    def test_batch_json_reports(self, capsys):
        import json

        assert main(["batch", "lion", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["name"] == "lion"
        assert payload[0]["ok"] is True
        assert payload[0]["result"]["depths"]["total"] == 9

    def test_batch_kiss_file_and_options(self, tmp_path, capsys):
        from repro.bench import kiss_source

        path = tmp_path / "machine.kiss2"
        path.write_text(kiss_source("hazard_demo"))
        assert main(["batch", str(path), "--no-fsv"]) == 0
        assert "machine" in capsys.readouterr().out

    def test_batch_unknown_spec_is_a_cli_error(self, capsys):
        assert main(["batch", "no_such_benchmark"]) == 2
        assert "error" in capsys.readouterr().err

    def test_batch_has_no_jobs_flag(self, capsys):
        # Batches run serially; scale-out is `seance shard run`/`work`.
        with pytest.raises(SystemExit) as raised:
            main(["batch", "lion", "-j", "2"])
        assert raised.value.code == 2
        assert "-j" in capsys.readouterr().err

    def test_batch_has_no_cache_dir_flag(self, tmp_path, capsys):
        # Cross-process reuse is the result store's job (`--store`).
        with pytest.raises(SystemExit) as raised:
            main(["batch", "lion", "--cache-dir", str(tmp_path)])
        assert raised.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--store"])
    def test_batch_unknown_url_scheme_is_a_cli_error(
        self, flag, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["batch", flag, "cache://127.0.0.1:1", "lion"]) == 2
        assert "http(s)://" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSpecWorkflow:
    """`--spec` / `--pass` / `--emit-spec`: declarative pipeline runs."""

    def test_emit_spec_prints_default_spec(self, capsys):
        import json

        assert main(["synth", "lion", "--emit-spec"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passes"][-1] == "factor"
        assert payload["options"]["minimize"] is True

    def test_emit_spec_reflects_flags_and_substitutions(self, capsys):
        import json

        assert main([
            "synth", "lion", "--emit-spec", "--no-minimize",
            "--pass", "factor:joint",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["options"]["minimize"] is False
        assert payload["passes"][-1] == "factor:joint"

    def test_spec_file_reproduces_an_ablation_run(self, tmp_path, capsys):
        """The acceptance criterion: an ablation run is reproducible
        from a PipelineSpec JSON file alone."""
        import json

        assert main([
            "synth", "hazard_demo", "--emit-spec",
            "--pass", "fsv:unprotected",
        ]) == 0
        spec_path = tmp_path / "unprotected.json"
        spec_path.write_text(capsys.readouterr().out)

        assert main([
            "synth", "hazard_demo", "--spec", str(spec_path), "--json",
        ]) == 0
        from_spec = json.loads(capsys.readouterr().out)
        assert main([
            "synth", "hazard_demo", "--pass", "fsv:unprotected", "--json",
        ]) == 0
        from_flags = json.loads(capsys.readouterr().out)
        from_spec.pop("stage_seconds")
        from_flags.pop("stage_seconds")
        assert from_spec == from_flags
        # the unprotected machine really has no fsv
        assert from_spec["equations"]["fsv"] == "0"

    def test_unknown_pass_substitution_is_a_cli_error(self, capsys):
        assert main(["synth", "lion", "--pass", "factor:typo"]) == 2
        assert "registered passes" in capsys.readouterr().err

    def test_unreadable_spec_is_a_cli_error(self, capsys):
        assert main(["synth", "lion", "--spec", "/no/such/file.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_passes_subcommand_lists_registry(self, capsys):
        assert main(["passes"]) == 0
        out = capsys.readouterr().out
        assert "factor:joint" in out
        assert "fsv:unprotected" in out

    def test_batch_json_emits_per_pass_telemetry(self, capsys):
        import json

        assert main(["batch", "lion", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        events = payload[0]["passes"]
        assert [e["name"] for e in events] == [
            "validate", "reduce", "assign", "outputs", "hazards", "fsv",
            "factor",
        ]
        for event in events:
            assert event["seconds"] >= 0.0
            assert event["cached"] is False

    def test_batch_json_telemetry_marks_cache_hits(self, capsys):
        import json

        # One in-memory stage cache spans the batch: the repeat of a
        # table is served from it, stage by stage.
        assert main(["batch", "lion", "lion", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert not any(e["cached"] for e in payload[0]["passes"])
        assert payload[1]["passes"]
        assert all(e["cached"] for e in payload[1]["passes"])

    def test_batch_with_substitution(self, capsys):
        assert main(["batch", "lion", "--pass", "factor:joint"]) == 0
        assert "lion" in capsys.readouterr().out

    def test_synth_json_round_trips(self, capsys):
        import json

        from repro.core.result import SynthesisResult

        assert main(["synth", "lion", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        rebuilt = SynthesisResult.from_dict(payload)
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == json.dumps(
            payload, sort_keys=True
        )


class TestListing:
    def test_bench_list(self, capsys):
        assert main(["bench-list"]) == 0
        out = capsys.readouterr().out
        assert "lion" in out
        assert "Table 1" in out

    def test_show(self, capsys):
        assert main(["show", "lion"]) == 0
        assert ".i 2" in capsys.readouterr().out

    def test_show_unknown(self, capsys):
        assert main(["show", "zzz"]) == 2


class TestExport:
    def test_export_to_stdout(self, capsys):
        assert main(["export", "lion"]) == 0
        out = capsys.readouterr().out
        assert "module fantom_lion (" in out
        assert "endmodule" in out

    def test_export_to_file(self, tmp_path, capsys):
        target = tmp_path / "lion.v"
        assert main(["export", "lion", "-o", str(target)]) == 0
        assert "FANTOM_DFF" in target.read_text()
        assert "wrote" in capsys.readouterr().out

    def test_export_no_fsv(self, capsys):
        assert main(["export", "hazard_demo", "--no-fsv"]) == 0
        out = capsys.readouterr().out
        assert "assign fsv = 1'b0;" in out


class TestStoreFlags:
    def test_batch_store_hit_in_json_telemetry(self, tmp_path, capsys):
        import json

        store = str(tmp_path / "rs")
        assert main(["batch", "lion", "--store", store, "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert [item["store_hit"] for item in cold] == [False]
        assert cold[0]["passes"]
        assert main(["batch", "lion", "--store", store, "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert [item["store_hit"] for item in warm] == [True]
        # zero synthesis passes on the warm run (PassEvent telemetry)
        assert warm[0]["passes"] == []

    def test_batch_canonical_is_run_independent(self, tmp_path, capsys):
        assert main(["batch", "lion", "traffic", "--canonical"]) == 0
        first = capsys.readouterr().out
        assert main(["batch", "lion", "traffic", "--canonical"]) == 0
        assert capsys.readouterr().out == first
        assert "seconds" not in first

    def test_synth_store_short_circuit_note(self, tmp_path, capsys):
        store = str(tmp_path / "rs")
        assert main(["synth", "lion", "--store", store]) == 0
        assert "result store" not in capsys.readouterr().out
        assert main(["synth", "lion", "--store", store]) == 0
        assert "served whole from the result store" in (
            capsys.readouterr().out
        )

    def test_validate_store_and_json(self, tmp_path, capsys):
        import json

        store = str(tmp_path / "rs")
        args = [
            "validate", "hazard_demo", "--sweep", "1", "--steps", "5",
            "--delay-model", "unit", "--store", store, "--json",
        ]
        assert main(args) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["all_clean"] and cold["store_hits"] == 0
        assert main(args) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["store_hits"] == len(warm["cells"]) == 1
        assert warm["cells"] == cold["cells"]


class TestShard:
    def test_plan_partitions_the_suite(self, capsys):
        assert main(["shard", "plan", "lion", "traffic", "-n", "2",
                     "-v"]) == 0
        out = capsys.readouterr().out
        assert "2 work units over 2 shard(s)" in out
        assert "lion" in out and "traffic" in out

    def test_run_and_merge_match_single_process_batch(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "rs")
        names = ["lion", "traffic", "hazard_demo"]
        for shard in ("0/2", "1/2"):
            assert main(
                ["shard", "run", "--shard", shard, "--store", store]
                + names
            ) == 0
            capsys.readouterr()
        assert main(
            ["shard", "merge", "--store", store, "-n", "2", "--json"]
            + names
        ) == 0
        merged = capsys.readouterr().out
        assert main(["batch", "--json", "--canonical"] + names) == 0
        assert merged == capsys.readouterr().out

    def test_merge_with_missing_units_fails_loudly(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "rs")
        assert main(
            ["shard", "run", "--shard", "0/2", "--store", store, "lion",
             "traffic"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["shard", "merge", "--store", store, "-n", "2", "lion",
             "traffic"]
        ) == 2
        err = capsys.readouterr().err
        assert "missing" in err and "shard 1/2" in err

    def test_campaign_mode_run_merge(self, tmp_path, capsys):
        store = str(tmp_path / "rs")
        args = ["--campaign", "--store", store, "hazard_demo",
                "--sweep", "1", "--steps", "5", "--delay-model", "unit"]
        assert main(["shard", "run", "--shard", "0/1"] + args) == 0
        capsys.readouterr()
        assert main(["shard", "merge", "-n", "1"] + args) == 0
        out = capsys.readouterr().out
        assert "validation campaign" in out

    def test_shard_run_has_no_jobs_flag(self, tmp_path, capsys):
        store = str(tmp_path / "rs")
        with pytest.raises(SystemExit) as raised:
            main(["shard", "run", "--shard", "0/1", "--store", store,
                  "-j", "2", "lion"])
        assert raised.value.code == 2
        assert "-j" in capsys.readouterr().err

    def test_bad_shard_spec_rejected(self, tmp_path, capsys):
        store = str(tmp_path / "rs")
        assert main(["shard", "run", "--shard", "2/2", "--store", store,
                     "lion"]) == 2
        assert "out of range" in capsys.readouterr().err
        assert main(["shard", "run", "--shard", "nope", "--store", store,
                     "lion"]) == 2

    def test_shard_run_exits_nonzero_on_failed_units(
        self, tmp_path, capsys
    ):
        import json

        from repro.flowtable.table import FlowTable

        bad = tmp_path / "bad.json"
        # A structurally valid flow-table JSON that fails pipeline
        # validation (state b unreachable: not strongly connected).
        bad.write_text(json.dumps({
            "inputs": ["x"], "outputs": ["z"], "states": ["a", "b"],
            "reset": "a", "name": "broken",
            "entries": [["a", 0, "a", [0]], ["b", 1, "b", [1]]],
        }))
        store = str(tmp_path / "rs")
        code = main(["shard", "run", "--shard", "0/1", "--store", store,
                     "lion", str(bad)])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out
