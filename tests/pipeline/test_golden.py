"""Golden regression: the pipeline reproduces the pre-refactor monolith.

``golden_seed.json`` was captured from the seed's monolithic
``Seance.run`` (one ``to_dict()`` per built-in benchmark, with the
non-deterministic ``stage_seconds`` dropped) *before* the pass-manager
refactor.  These tests pin today's pipeline — the ``repro.api``
one-shot, PassManager, warm-store, and batch paths — to those bytes, so any
behavioural drift in the refactored engine is caught against the
original implementation, not against itself.

When ``to_dict`` grew its full ``artifacts`` section (the JSON
round-trip wire format), the file was regenerated *additively*: the
regeneration asserted that every pre-existing summary section was
byte-identical to the seed capture before writing, so the pin's anchor
is unchanged.  The golden now also pins the artifacts wire format
(tests/pipeline/test_roundtrip.py reads the same file).
"""

import json
from pathlib import Path

import pytest

from repro.api import load, synthesize
from repro.bench import benchmark, benchmark_names
from repro.pipeline import BatchRunner, PassManager
from repro.store import MemoryBackend, ResultStore

GOLDEN_PATH = Path(__file__).with_name("golden_seed.json")
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: (benchmark, fsv depth, Y depth, total depth) as the seed produced them.
GOLDEN_TABLE1_ROWS = {
    "test_example": ("test_example", 3, 4, 8),
    "traffic": ("traffic", 3, 5, 9),
    "lion": ("lion", 3, 5, 9),
    "lion9": ("lion9", 3, 5, 9),
    "train11": ("train11", 3, 5, 9),
    "dme": ("dme", 2, 5, 8),
    "hazard_demo": ("hazard_demo", 2, 4, 7),
    "parity": ("parity", 2, 5, 8),
    "train4": ("train4", 3, 5, 9),
}


def canonical(result) -> str:
    d = result.to_dict()
    d.pop("stage_seconds")
    return json.dumps(d, sort_keys=True)


def golden(name) -> str:
    return json.dumps(GOLDEN[name], sort_keys=True)


def test_golden_covers_the_whole_suite():
    assert set(GOLDEN) == set(benchmark_names())
    assert set(GOLDEN_TABLE1_ROWS) == set(benchmark_names())


@pytest.mark.parametrize("name", benchmark_names())
def test_facade_is_byte_identical_to_seed(name):
    assert canonical(synthesize(benchmark(name))) == golden(name)


@pytest.mark.parametrize("name", benchmark_names())
def test_table1_rows_pinned_to_seed(name):
    result = PassManager().run(benchmark(name))
    assert result.table1_row() == GOLDEN_TABLE1_ROWS[name]


def test_cached_pipeline_is_byte_identical_to_seed():
    store = ResultStore(MemoryBackend())
    for name in benchmark_names():
        load(benchmark(name), store=store).run()  # prime
    for name in benchmark_names():
        result, report = load(benchmark(name), store=store).run_with_report()
        assert report.store_hit, "expected a warm store hit"
        assert canonical(result) == golden(name)


def test_batch_stream_is_byte_identical_to_seed():
    tables = [benchmark(name) for name in benchmark_names()]
    for item in BatchRunner().run(tables):
        assert item.ok, item.error
        assert canonical(item.result) == golden(item.name)
