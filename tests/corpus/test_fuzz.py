"""Fuzz-loop mechanics: keys, loaders, stores, shards, selftest, CLI.

The acceptance property of the whole subsystem lives here too: with
``REPRO_FUZZ_SELFTEST`` armed, a deliberately perturbed truth table is
caught as a divergence, auto-minimised to a handful of rows, and lands
as a loadable fixture with a non-empty VCD diff.
"""

from pathlib import Path

import pytest

from repro import api
from repro.cli import main
from repro.corpus import (
    SELFTEST_ENV,
    CorpusKey,
    fuzz_table,
    generate,
    load_fixture,
    make_key,
    parse_key,
    perturb_table,
    run_fuzz,
    selftest_enabled,
    write_finding_fixture,
)
from repro.errors import CorpusError


class TestKeys:
    def test_round_trip_with_params(self):
        key = make_key("random-flow", 7, {"states": 4, "inputs": 2})
        assert parse_key(str(key)) == key
        assert key.family == "random-flow" and key.seed == 7

    def test_default_equal_overrides_are_dropped(self):
        bare = make_key("random-stg", 1)
        spelled = make_key("random-stg", 1, {"phases": 6})
        assert str(bare) == str(spelled) == "corpus:random-stg:1"

    def test_unknown_family_names_the_alternatives(self):
        with pytest.raises(CorpusError, match="random-flow"):
            parse_key("corpus:bogus:0")

    def test_unknown_parameter_names_the_legal_ones(self):
        with pytest.raises(CorpusError, match="stations"):
            make_key("protocol-ring", 0, {"states": 4})


class TestLoaderIntegration:
    def test_corpus_keys_resolve_through_api_load(self):
        table = api.load_table("corpus:random-flow:0")
        assert table.name == "corpus:random-flow:0"
        # Identical to direct generation — the loader adds no state.
        from repro.core.serialize import table_to_dict

        assert table_to_dict(table) == table_to_dict(
            generate("corpus:random-flow:0")
        )

    def test_corpus_keys_synthesise_end_to_end(self):
        result = api.synthesize("corpus:hazard-dense:1")
        assert result.table.name.startswith("corpus:hazard-dense:1")

    def test_unknown_family_error_is_clear(self):
        with pytest.raises(CorpusError, match="unknown corpus family"):
            api.load_table("corpus:no-such-family:0")


class TestPerturbation:
    def test_inverts_every_specified_output0_bit(self):
        table = generate("corpus:random-flow:1")
        perturbed = perturb_table(table)
        for point, entry in table.entry_map().items():
            twin = perturbed.entry_map()[point]
            if entry.outputs and entry.outputs[0] is not None:
                assert twin.outputs[0] == 1 - entry.outputs[0]
            assert twin.outputs[1:] == entry.outputs[1:]
            assert twin.next_state == entry.next_state

    def test_none_when_nothing_to_flip(self):
        from repro.flowtable.table import Entry, FlowTable

        table = FlowTable(
            ("x1",),
            ("z1",),
            ("a",),
            {
                ("a", 0): Entry("a", (None,)),
                ("a", 1): Entry("a", (None,)),
            },
            "a",
        )
        assert perturb_table(table) is None


class TestSelftestAcceptance:
    def test_disarmed_by_default(self, monkeypatch):
        monkeypatch.delenv(SELFTEST_ENV, raising=False)
        assert not selftest_enabled()
        findings = fuzz_table(
            generate("corpus:random-flow:0"), models=("unit",)
        )
        assert not any(f.check.startswith("selftest") for f in findings)

    def test_injected_divergence_is_caught_minimised_and_fixtured(
        self, tmp_path, monkeypatch
    ):
        """The ISSUE's acceptance property, end to end."""
        monkeypatch.setenv(SELFTEST_ENV, "1")
        assert selftest_enabled()
        table = generate("corpus:random-flow:3")
        findings = fuzz_table(table, models=("unit",))
        caught = [f for f in findings if f.check == "selftest"]
        assert caught, "armed selftest must catch the perturbation"
        assert not [f for f in findings if f.check == "selftest-miss"]
        path = write_finding_fixture(
            tmp_path, table, caught[0], budget=150
        )
        loaded, meta = load_fixture(path)
        assert loaded.num_states <= 6, "minimiser left too many rows"
        assert meta["expect"] == "divergent"
        assert meta["history"], "shrink history must be recorded"
        diff = path.with_suffix("").with_suffix(".diff").read_text()
        assert diff.strip(), "fixture must carry a non-empty VCD diff"
        from repro.corpus import check_fixture

        ok, detail = check_fixture(path)
        assert ok, detail
        # The fixture doubles as an ordinary table file.
        assert api.load_table(str(path)).num_states == loaded.num_states

    def test_armed_machine_is_synthesised_once(self, monkeypatch):
        """The self-test reuses the clean machine the walks ran on:
        one synthesis for it and one for the perturbed table."""
        from repro.corpus import fuzz

        tables = []

        def counting(table):
            tables.append(table.name)
            return api.synthesize(table)

        monkeypatch.setattr(fuzz, "synthesize", counting)
        table = generate("corpus:random-flow:3")
        findings = fuzz_table(table, models=("unit",), selftest=True)
        assert [f.check for f in findings] == ["selftest"]
        assert tables == [table.name, f"{table.name}#selftest"]


class TestLegsStillCompare:
    """Injected logic-engine faults must surface through the fuzz legs.

    Every perfbench digest of a fuzz run means "zero findings", so a leg
    that silently stopped comparing would still pass the benchmark.
    Each test breaks one engine function and requires its finding.  The
    FANTOM synthesis runs before the fault goes in, so only the legs
    under test see it.
    """

    KEY = "corpus:random-flow:2"

    @staticmethod
    def _checks(monkeypatch, key, owner, name, fault) -> dict[str, list]:
        from repro.corpus import fuzz

        table = generate(key)
        result = api.synthesize(table)
        monkeypatch.setattr(fuzz, "synthesize", lambda _table: result)
        monkeypatch.setattr(owner, name, fault(getattr(owner, name)))
        found: dict[str, list] = {}
        for finding in fuzz_table(
            table, models=("unit",), steps=4, selftest=False
        ):
            found.setdefault(finding.check, []).append(finding.detail)
        return found

    def test_clean_without_a_fault(self, monkeypatch):
        from repro.logic import quine_mccluskey

        found = self._checks(
            monkeypatch,
            self.KEY,
            quine_mccluskey,
            "prime_implicants",
            lambda real: real,
        )
        assert found == {}

    def test_dropped_bitset_prime(self, monkeypatch):
        from repro.logic import quine_mccluskey

        found = self._checks(
            monkeypatch,
            self.KEY,
            quine_mccluskey,
            "prime_implicants",
            lambda real: lambda on, dc, width: real(on, dc, width)[1:],
        )
        assert "logic-primes" in found
        assert "huffman-cover" in found

    def test_dropped_reference_useful_prime(self, monkeypatch):
        from repro.logic import _reference

        found = self._checks(
            monkeypatch,
            self.KEY,
            _reference,
            "useful_primes_reference",
            lambda real: lambda primes, on: real(primes, on)[:-1],
        )
        assert "logic-useful" in found

    def test_different_bitset_cover(self, monkeypatch):
        import dataclasses

        from repro.corpus import fuzz

        def fault(real):
            def minimal_cover(fn, **kwargs):
                cover = real(fn, **kwargs)
                return dataclasses.replace(cover, cubes=cover.cubes[:-1])

            return minimal_cover

        found = self._checks(
            monkeypatch, self.KEY, fuzz, "minimal_cover", fault
        )
        assert set(found) == {"logic-cover"}

    def test_huffman_leg_derives_functions_the_logic_leg_never_saw(
        self, monkeypatch
    ):
        """An ``as_specified`` output function is the baseline's alone.

        The fault hits only that function's reference primes, so only
        a Huffman leg that derives and compares it on its own can
        report it.
        """
        from repro.logic import _reference

        key = "corpus:protocol-ring:0"
        spec = api.synthesize(generate(key)).spec
        index = 0  # g1: its unstable points carry specified values
        target = spec.output_function(index, policy="as_specified")

        def identity(fn):
            return (fn.on, fn.dc, fn.width)

        logic_leg = [identity(fn) for fn in spec.excitations()] + [
            identity(spec.output_function(k))
            for k in range(len(spec.table.outputs))
        ]
        assert identity(target) not in logic_leg

        def fault(real):
            def prime_implicants_reference(on, dc, width):
                primes = real(on, dc, width)
                if (set(on), set(dc), width) == identity(target):
                    return primes[1:]
                return primes

            return prime_implicants_reference

        found = self._checks(
            monkeypatch, key, _reference, "prime_implicants_reference", fault
        )
        assert list(found) == ["huffman-cover"]
        name = spec.table.outputs[index]
        assert [d.split(":")[0] for d in found["huffman-cover"]] == [name]


class TestRunFuzz:
    CORPUS = [make_key("random-flow", s) for s in range(4)] + [
        make_key("hazard-dense", s) for s in range(2)
    ]

    def test_store_caching_skips_warm_machines(self, tmp_path):
        from repro.store import ResultStore

        store = ResultStore(tmp_path)
        cold = run_fuzz(self.CORPUS, store=store)
        warm = run_fuzz(self.CORPUS, store=store)
        assert cold.store_hits == 0
        assert warm.store_hits == warm.machines == cold.machines
        assert warm.findings == cold.findings == []

    def test_shards_partition_the_corpus_disjointly(self):
        seen: dict[int, list[str]] = {0: [], 1: []}
        for index in (0, 1):
            run_fuzz(
                self.CORPUS,
                shard=(index, 2),
                progress=lambda key, _f, index=index: seen[index].append(
                    key
                ),
            )
        assert not set(seen[0]) & set(seen[1])
        assert sorted(seen[0] + seen[1]) == sorted(
            str(key) for key in self.CORPUS
        )

    def test_flow_tables_fuzz_under_their_own_name(self):
        report = run_fuzz([api.load_table("hazard_demo")])
        assert report.machines == 1
        assert report.clean

    def test_family_seconds_cover_every_family(self):
        report = run_fuzz(self.CORPUS)
        assert set(report.family_seconds) == {
            "random-flow",
            "hazard-dense",
        }
        assert report.checks == report.machines * 11  # 2 + 3 models * 3


    @pytest.mark.parametrize("steps", [0, -3])
    def test_walks_of_no_cycles_are_rejected(self, steps):
        """A walk of no cycles would pass every check vacuously."""
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="steps must be >= 1"):
            run_fuzz(self.CORPUS[:1], steps=steps)
        with pytest.raises(ReproError, match="steps must be >= 1"):
            fuzz_table(generate(self.CORPUS[0]), steps=steps)


class TestCorpusCli:
    def test_corpus_list(self, capsys):
        assert main(["corpus", "list"]) == 0
        out = capsys.readouterr().out
        assert "random-flow" in out and "protocol-ring" in out

    def test_corpus_build_manifest_and_json(self, tmp_path, capsys):
        manifest = tmp_path / "corpus.txt"
        assert (
            main(
                [
                    "corpus",
                    "build",
                    "--family",
                    "random-stg",
                    "--count",
                    "3",
                    "--seed",
                    "5",
                    "--manifest",
                    str(manifest),
                    "--json",
                ]
            )
            == 0
        )
        keys = manifest.read_text().split()
        assert keys == [f"corpus:random-stg:{s}" for s in (5, 6, 7)]
        import json

        rows = json.loads(capsys.readouterr().out)
        assert [row["key"] for row in rows] == keys
        assert all(len(row["fingerprint"]) == 64 for row in rows)

    def test_fuzz_manifest_timing_and_exit_code(self, tmp_path, capsys):
        manifest = tmp_path / "corpus.txt"
        manifest.write_text("corpus:random-flow:0\ncorpus:random-flow:1\n")
        timing = tmp_path / "timing.json"
        assert (
            main(
                [
                    "fuzz",
                    "--manifest",
                    str(manifest),
                    "--timing",
                    str(timing),
                ]
            )
            == 0
        )
        assert "no divergences" in capsys.readouterr().out
        import json

        payload = json.loads(timing.read_text())
        assert payload["corpus_fuzz_machines"] == 2
        assert payload["corpus_fuzz_findings"] == 0
        assert payload["corpus_fuzz_seconds"] > 0

    def test_fuzz_bad_param_is_a_clean_error(self, capsys):
        assert main(["fuzz", "--family", "random-flow", "--param", "x"]) == 2
        assert "name=value" in capsys.readouterr().err

    def test_fuzz_nothing_to_do_is_a_clean_error(self, capsys):
        assert main(["fuzz"]) == 2
        assert "nothing to fuzz" in capsys.readouterr().err

    def test_fuzz_zero_steps_is_a_clean_error(self, capsys):
        assert main(["fuzz", "corpus:random-flow:0", "--steps", "0"]) == 2
        captured = capsys.readouterr()
        assert "steps must be >= 1" in captured.err
        assert "no divergences" not in captured.out

    def test_vcd_diff_cli(self, tmp_path, capsys):
        fixtures = Path(__file__).parent / "fixtures"
        pairs = sorted(fixtures.glob("*.a.vcd"))
        assert pairs, "committed fixture must ship its VCD pair"
        a = pairs[0]
        b = a.with_suffix("").with_suffix(".b.vcd")
        assert main(["vcd", "diff", str(a), str(a)]) == 0
        assert "equivalent" in capsys.readouterr().out
        assert main(["vcd", "diff", str(a), str(b)]) == 1
        assert capsys.readouterr().out.strip()
