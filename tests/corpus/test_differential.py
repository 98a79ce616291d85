"""Tier-1 differential gate: the pinned mini-corpus fuzzes clean.

Fifty generated machines — ten fixed seeds from each family — go
through every redundant engine pair on every run of the suite: the
bitset logic engine vs the reference engine (byte-identical primes and
covers), the compiled simulation kernel vs the event-ring kernel on
both its tick and heap paths (trace-equivalent walks), and the
Huffman baseline's consensus covers.  Zero hard findings is the gate;
``burst-mode`` is the one family allowed *known* dirty cells (the
characterised MIC dynamic-hazard synthesis gap it deliberately keeps
reproducing — see :data:`repro.corpus.fuzz.KNOWN_DIRTY_FAMILIES`), and
even those count only while both kernels agree on the trace.

The committed fixtures under ``fixtures/`` are auto-collected and
replayed: a ``divergent`` fixture must keep diverging, a ``clean`` one
must stay clean.
"""

from pathlib import Path

import pytest

from repro.api import synthesize
from repro.corpus import (
    FAMILIES,
    build_corpus,
    check_fixture,
    collect_fixtures,
    generate,
    run_fuzz,
)
from repro.logic import _reference as ref
from repro.logic.cover import minimal_cover

FIXTURES_DIR = Path(__file__).parent / "fixtures"

#: The pinned gate corpus: ten fixed seeds per family.
MINI_CORPUS = build_corpus(count=10, seed=0)


class TestMiniCorpus:
    def test_fifty_machines_fuzz_clean(self):
        report = run_fuzz(MINI_CORPUS)
        assert report.machines == 10 * len(FAMILIES) == 50
        details = [finding.to_dict() for finding in report.findings]
        assert report.findings == [], details
        # Known anomalies may only come from the families documented as
        # standing reproducers of the MIC hazard gap.
        assert {f.key.split(":")[1] for f in report.known_findings} <= {
            "burst-mode"
        }

    def test_strict_mode_promotes_known_findings(self):
        """--strict turns a pinned burst-mode anomaly into a hard
        finding.  ``corpus:burst-mode:70`` is the live reproducer of
        the MIC dynamic-hazard gap (the LION9 pinning convention: if a
        generator change moves the anomaly, re-scan and re-pin
        deliberately; if a synthesis fix clears it, celebrate and
        update)."""
        key = "corpus:burst-mode:70"
        relaxed = run_fuzz([key])
        strict = run_fuzz([key], strict=True)
        assert relaxed.findings == []
        assert relaxed.known_findings, "reproducer went clean"
        assert {f.check for f in relaxed.known_findings} == {"dirty-cell"}
        assert len(strict.findings) == len(relaxed.known_findings)
        assert strict.known_findings == []

    def test_covers_are_byte_identical_across_engines(self):
        """The property the ``logic-*`` checks rest on, asserted
        directly for one machine per family: covers travel as cube
        strings, and both engines must emit the same bytes."""
        for family in sorted(FAMILIES):
            result = synthesize(generate(f"corpus:{family}:0"))
            for n, fn in enumerate(result.spec.excitations()):
                fast = minimal_cover(fn)
                slow_cubes, slow_essential, slow_exact = (
                    ref.minimal_cover_reference(fn)
                )
                assert [str(c) for c in fast.cubes] == [
                    str(c) for c in slow_cubes
                ], (family, n)
                assert fast.exact == slow_exact


class TestCommittedFixtures:
    def test_fixture_directory_is_populated(self):
        assert collect_fixtures(FIXTURES_DIR), (
            "tests/corpus/fixtures/ must hold at least the minimised "
            "protocol-ring MIC-race reproducer"
        )

    @pytest.mark.parametrize(
        "path",
        collect_fixtures(FIXTURES_DIR),
        ids=lambda path: path.name,
    )
    def test_fixture_replays_as_recorded(self, path):
        ok, detail = check_fixture(path)
        assert ok, detail

    @pytest.mark.parametrize(
        "path",
        collect_fixtures(FIXTURES_DIR),
        ids=lambda path: path.name,
    )
    def test_fixture_is_loadable_by_the_generic_loader(self, path):
        """A fixture is a plain flow-table JSON with an extra block —
        every ``seance`` command must be able to load it directly."""
        from repro import api

        table = api.load_table(str(path))
        assert table.num_states >= 1
