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
    """Injected engine faults must surface through the fuzz legs.

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

    @pytest.mark.parametrize("check", ["logic-useful", "huffman-cover"])
    def test_shrink_predicates_run_the_legs(self, monkeypatch, check):
        # The shrinker re-runs the logic and Huffman legs on their own,
        # with fresh derivation maps.
        from repro.corpus.shrink import finding_predicate
        from repro.logic import _reference

        table = generate(self.KEY)
        predicate = finding_predicate(check)
        assert not predicate(table)
        real = _reference.useful_primes_reference
        monkeypatch.setattr(
            _reference,
            "useful_primes_reference",
            lambda primes, on: real(primes, on)[:-1],
        )
        assert predicate(table)

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

    def test_memo_fault_is_a_trace_finding(self, monkeypatch):
        """A cycle replay that lands a wrong state is a ``trace`` finding.

        The ``compiled`` engine is the kernel with its cycle memo off,
        so it runs every cycle live and never restores: the fault reaches
        only the ``ring`` leg, which alone reads dirty for it.
        """
        from repro.sim.harness import build_timed_fantom
        from repro.sim.simulator import Simulator

        table = generate(self.KEY)
        net = build_timed_fantom(api.synthesize(table)).state_nets[0]
        restores = []
        real = Simulator.cycle_restore

        def cycle_restore(self, *args):
            replays = real(self, *args)
            restores.append(replays)
            self._values[self.compiled.net_ids[net]] ^= 1
            return replays

        monkeypatch.setattr(Simulator, "cycle_restore", cycle_restore)
        findings = fuzz_table(
            table, key=self.KEY, models=("unit",), steps=18, selftest=False
        )
        assert len(restores) > 1  # a run of hits landed before a live cycle
        assert [f.check for f in findings].count("trace") == 1
        assert {
            (f.check, f.engine) for f in findings if f.check != "trace"
        } == {("dirty-cell", "ring")}


class TestSimLeg:
    """The simulation leg's walks: shared set-up and kernel regimes."""

    KEY = "corpus:random-flow:2"

    @staticmethod
    def _machine_and_walk(key):
        from repro.sim.harness import random_legal_walk

        table = generate(key)
        result = api.synthesize(table)
        walk = random_legal_walk(table, 18, seed=0)
        return result, walk

    def test_each_delay_model_is_resolved_once_per_machine(
        self, monkeypatch
    ):
        """Both engines' walks of one model share one resolution."""
        from collections import Counter

        from repro.corpus import fuzz
        from repro.sim.delays import DelayModel
        from repro.sim.harness import build_timed_fantom

        class Counting(DelayModel):
            def __init__(self, inner):
                self.inner = inner
                self.calls = Counter()

            def gate_delay(self, gate):
                self.calls["g", gate.name] += 1
                return self.inner.gate_delay(gate)

            def clk_to_q(self, dff):
                self.calls["f", dff.name] += 1
                return self.inner.clk_to_q(dff)

        real = fuzz._delays_for
        models = []

        def counting(model, seed, machine):
            models.append(Counting(real(model, seed, machine)))
            return models[-1]

        monkeypatch.setattr(fuzz, "_delays_for", counting)
        result, walk = self._machine_and_walk(self.KEY)
        machine = build_timed_fantom(result)
        findings = fuzz._sim_findings(
            self.KEY, machine, walk, fuzz.DEFAULT_MODELS, 0, "fp"
        )
        assert findings == []
        netlist = machine.netlist
        instances = {("g", gate.name) for gate in netlist.gates}
        instances |= {("f", dff.name) for dff in netlist.dffs}
        assert len(models) == len(fuzz.DEFAULT_MODELS)
        for model in models:
            assert set(model.calls) == instances
            assert set(model.calls.values()) == {1}

    @pytest.mark.parametrize(
        "model", ["unit", "loop-safe", "loop-safe-offgrid"]
    )
    def test_shared_set_up_leaves_the_reports_unchanged(self, model):
        """A walk on a warm program equals one on a freshly built machine.

        On the warm machine, each engine's walk after the first reuses
        the initial counts, and the second engine's walk of a model
        reuses the first one's resolution, while a second seed's model
        must get its own.  A freshly built machine has a new compiled
        program, so its walk computes everything anew.
        """
        from repro.corpus import fuzz
        from repro.sim.harness import (
            build_timed_fantom,
            export_walk_vcd,
            validate_walk,
        )

        def observe(machine, delays, factory):
            # The reports, and the timed waveform of every hand-shake
            # net (which a wrongly shared delay vector would move).
            summary = validate_walk(
                machine, walk, delays, simulator_factory=factory
            )
            vcd = export_walk_vcd(
                machine, walk, delays, simulator_factory=factory
            )
            return summary.to_dict(), vcd

        result, walk = self._machine_and_walk(self.KEY)
        warm_machine = build_timed_fantom(result)
        for seed in (0, 1):
            shared = fuzz._delays_for(model, seed, warm_machine)
            for _engine, factory in fuzz._ENGINES:
                cold_machine = build_timed_fantom(result)
                cold_delays = fuzz._delays_for(model, seed, cold_machine)
                assert observe(warm_machine, shared, factory) == observe(
                    cold_machine, cold_delays, factory
                )

    def test_models_pin_their_kernel_regimes(self):
        """``unit``/``loop-safe`` replay on the ring leg; off-grid is heap.

        The ``compiled`` leg is the memo-off kernel, always on the heap
        path.  Under ``loop-safe-offgrid`` the ``ring`` leg has no time
        quantum either, so there both legs run the heap path and the
        ``trace`` comparison checks that path, not replay.
        """
        from repro.corpus import fuzz
        from repro.sim.harness import build_timed_fantom, validate_walk

        result, walk = self._machine_and_walk(self.KEY)
        machine = build_timed_fantom(result)
        expected = {
            "unit": {"compiled": {"heap"}, "ring": {"ring"}},
            "loop-safe": {"compiled": {"heap"}, "ring": {"ticks"}},
            "loop-safe-offgrid": {"compiled": {"heap"}, "ring": {"heap"}},
        }
        assert set(expected) == set(fuzz.DEFAULT_MODELS)
        for model, paths in expected.items():
            delays = fuzz._delays_for(model, 0, machine)
            for engine, factory in fuzz._ENGINES:
                summary = validate_walk(
                    machine, walk, delays, simulator_factory=factory
                )
                assert set(summary.kernel["paths"]) == paths[engine], (
                    model, engine,
                )
                assert summary.kernel["migrations"] == {}


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
