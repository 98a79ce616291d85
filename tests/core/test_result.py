"""Tests for the synthesis result object (reporting surfaces)."""

import json

from repro.api import synthesize
from repro.bench import benchmark


class TestToDict:
    def test_json_serialisable(self):
        result = synthesize(benchmark("lion"))
        payload = json.dumps(result.to_dict())
        assert "lion" in payload

    def test_structure(self):
        result = synthesize(benchmark("lion"))
        data = result.to_dict()
        assert data["name"] == "lion"
        assert data["flow_table"]["states"] == 4
        assert data["flow_table"]["mic_transitions"] > 0
        assert data["depths"]["total"] == (
            data["depths"]["fsv"] + data["depths"]["y"] + 1
        )
        assert set(data["encoding"]["codes"]) == set(result.table.states)
        assert "fsv" in data["equations"]
        assert "SSD" in data["equations"]

    def test_reduction_classes_recorded(self):
        result = synthesize(benchmark("test_example"))
        data = result.to_dict()
        merged = [
            members
            for members in data["reduction"]["classes"].values()
            if len(members) > 1
        ]
        assert merged  # test_example genuinely reduces

    def test_hazard_minterms_sorted(self):
        result = synthesize(benchmark("lion"))
        minterms = result.to_dict()["hazards"]["fsv_minterms"]
        assert minterms == sorted(minterms)
        assert minterms == sorted(result.analysis.fl)

    def test_stage_seconds_present(self):
        data = synthesize(benchmark("lion")).to_dict()
        assert "factor" in data["stage_seconds"]


class TestDescribe:
    """The encoding line says when a greedy cover is provably minimum."""

    @staticmethod
    def encoding_line(name):
        text = synthesize(benchmark(name)).describe()
        return next(line for line in text.splitlines() if "encoding" in line)

    def test_exact_cover(self):
        assert self.encoding_line("lion").endswith("2 state variables (exact)")

    def test_greedy_cover_meeting_the_log_bound(self):
        # lion9: 9 states, 4 variables = ceil(log2 9).
        result = synthesize(benchmark("lion9"))
        assert not result.assignment.exact
        assert self.encoding_line("lion9").endswith(
            "4 state variables (heuristic, meets ⌈log₂ n⌉ bound)"
        )
        assert "bound" not in json.dumps(result.to_dict())

    def test_greedy_cover_above_the_log_bound(self):
        # train11: 11 states, 5 variables > ceil(log2 11) = 4.
        assert self.encoding_line("train11").endswith(
            "5 state variables (heuristic)"
        )


class TestCliJson:
    def test_cli_json_flag(self, capsys):
        from repro.cli import main

        assert main(["synth", "lion", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["name"] == "lion"
        assert data["depths"]["fsv"] == 3
