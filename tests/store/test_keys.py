"""Store keys: pinned digests and the canonical flow-table text."""

import dataclasses

import pytest

from repro.bench import benchmark, benchmark_names
from repro.flowtable.table import Entry, FlowTable
from repro.pipeline.options import SynthesisOptions
from repro.pipeline.spec import PipelineSpec
from repro.store.keys import synthesis_key, table_fingerprint

#: ``synthesis_key(benchmark(name), PipelineSpec()).digest``.  A change
#: here orphans every stored synthesis result, so it must be deliberate.
PINNED_SYNTHESIS_KEYS = {
    "dme": "f0c32f85837be9f928867b7afd004a5ad1782dea8e06cde6c10eae44ff2c8907",
    "hazard_demo": (
        "bb8f2889ab797ccdf15baf202834f10cfe01b55471582030c36359aa09b7ce95"
    ),
    "lion": "d206d631f499607da8965ce5ce8e54214d16b156dca4dfeded3c0c395409da0c",
    "lion9": (
        "1d7103d677eec97dbb81b6102b418b5fb215fc404f864e7d3657523e41baba63"
    ),
    "parity": (
        "0b29f42b7b6a5e75d8dcbf6d2239e629dce9bbdf2352b4342bd730f6b0085187"
    ),
    "test_example": (
        "030cf8b73ad9ead08624a438ca8ecb29c61d0be458459cbc7652895246be917e"
    ),
    "traffic": (
        "6cc02c5d8f6a4f2d2f08e10a72ed23712f49cd61ec8a9ccb9832f29b47c9f21b"
    ),
    "train4": (
        "7be47c0d0944c03a2e1b43cb5301a6642984c9266043483d81af71f8ff076b72"
    ),
    "train11": (
        "67ab5d2700defd46e56e5ad1db78fda12e033cd53a116f74e614f4064a7b85df"
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SYNTHESIS_KEYS))
def test_synthesis_key_is_pinned(name):
    key = synthesis_key(benchmark(name), PipelineSpec())
    assert key.digest == PINNED_SYNTHESIS_KEYS[name]


def test_every_suite_table_is_pinned():
    assert sorted(PINNED_SYNTHESIS_KEYS) == sorted(benchmark_names())


#: A value other than the paper default for each option.
NON_DEFAULT_OPTIONS = {
    "minimize": False,
    "validate_input": False,
    "output_policy": "as_specified",
    "ssd_dc_policy": "strict",
    "verify_assignment": False,
    "reduce_mode": "joint",
    "hazard_correction": False,
}


def test_every_option_has_a_non_default_value():
    fields = [f.name for f in dataclasses.fields(SynthesisOptions)]
    assert sorted(NON_DEFAULT_OPTIONS) == sorted(fields)


@pytest.mark.parametrize("option", sorted(NON_DEFAULT_OPTIONS))
def test_every_option_moves_the_key(option):
    """A result synthesised under other options is never served for
    these: each option, alone, moves the key."""
    table = benchmark("lion")
    spec = PipelineSpec()
    moved = spec.with_options(**{option: NON_DEFAULT_OPTIONS[option]})
    assert synthesis_key(table, moved).digest != (
        synthesis_key(table, spec).digest
    )


class TestTableFingerprint:
    def test_fingerprint_distinguishes_signal_names(self):
        table = benchmark("lion")
        renamed = table.with_name("other")
        assert table_fingerprint(table) != table_fingerprint(renamed)

    def test_fingerprint_stable_across_calls(self):
        table = benchmark("lion9")
        assert table_fingerprint(table) == table_fingerprint(table)

    def test_fingerprint_sees_outputs_of_unspecified_successor_cells(self):
        def cage(dont_care_bit):
            return FlowTable(
                inputs=["x"],
                outputs=["z"],
                states=["a", "b"],
                entries={
                    ("a", 0): Entry("a", (0,)),
                    ("a", 1): Entry("b", (None,)),
                    ("b", 1): Entry("b", (1,)),
                    ("b", 0): Entry(None, (dont_care_bit,)),
                },
                reset_state="a",
                name="cage",
            )

        # The cells differ only in the output bit of an
        # unspecified-successor entry — which still feeds output
        # compatibility during reduction, so the keys must differ.
        assert table_fingerprint(cage(0)) != table_fingerprint(cage(1))
