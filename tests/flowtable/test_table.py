"""Unit tests for repro.flowtable.table."""

import pytest

from repro.core.serialize import table_from_dict
from repro.errors import FlowTableError
from repro.flowtable.builder import FlowTableBuilder
from repro.flowtable.table import (
    MAX_INPUTS,
    Entry,
    FlowTable,
    TableStats,
    Transition,
)
from repro.logic.bitset import MAX_WIDTH


def gray4() -> FlowTable:
    """Four states around the Gray cycle 00-10-11-01 with diagonal jumps."""
    b = FlowTableBuilder(inputs=["x1", "x2"], outputs=["z"])
    b.stable("s0", "00", "0").add("s0", "10", "s1").add("s0", "01", "s3")
    b.add("s0", "11", "s2")
    b.stable("s1", "10", "0").add("s1", "11", "s2").add("s1", "00", "s0")
    b.add("s1", "01", "s3")
    b.stable("s2", "11", "1").add("s2", "01", "s3").add("s2", "10", "s1")
    b.add("s2", "00", "s0")
    b.stable("s3", "01", "1").add("s3", "00", "s0").add("s3", "11", "s2")
    b.add("s3", "10", "s1")
    return b.build(reset="s0", name="gray4")


class TestEntry:
    def test_rejects_bad_output_bit(self):
        with pytest.raises(ValueError):
            Entry("s0", (2,))

    def test_is_specified(self):
        assert Entry("s0", (None,)).is_specified
        assert not Entry(None, (None,)).is_specified


class TestConstruction:
    def test_duplicate_states_rejected(self):
        with pytest.raises(FlowTableError):
            FlowTable(["x"], ["z"], ["a", "a"], {})

    def test_unknown_state_in_entry(self):
        with pytest.raises(FlowTableError):
            FlowTable(["x"], ["z"], ["a"], {("b", 0): Entry("a", (0,))})

    def test_unknown_next_state(self):
        with pytest.raises(FlowTableError):
            FlowTable(["x"], ["z"], ["a"], {("a", 0): Entry("b", (0,))})

    def test_column_out_of_range(self):
        with pytest.raises(FlowTableError):
            FlowTable(["x"], ["z"], ["a"], {("a", 2): Entry("a", (0,))})

    def test_wrong_output_width(self):
        with pytest.raises(FlowTableError):
            FlowTable(["x"], ["z"], ["a"], {("a", 0): Entry("a", (0, 1))})

    def test_unknown_reset_state(self):
        with pytest.raises(FlowTableError):
            FlowTable(["x"], ["z"], ["a"], {}, reset_state="zzz")

    def test_rejects_more_inputs_than_max_width_allows(self):
        inputs = [f"x{i}" for i in range(MAX_INPUTS + 1)]
        with pytest.raises(FlowTableError, match=f"limit of {MAX_INPUTS}"):
            FlowTable(inputs, ["z"], ["a"], {})
        with pytest.raises(FlowTableError, match=f"limit of {MAX_INPUTS}"):
            FlowTableBuilder(inputs, ["z"])
        with pytest.raises(FlowTableError, match=f"limit of {MAX_INPUTS}"):
            table_from_dict(
                {"inputs": inputs, "outputs": ["z"], "states": ["a"],
                 "entries": [["a", 0, "a", [0]]]}
            )

    def test_accepts_max_inputs(self):
        # Inputs, one state variable and the fsv fill MAX_WIDTH exactly.
        assert MAX_INPUTS + 2 == MAX_WIDTH
        inputs = [f"x{i}" for i in range(MAX_INPUTS)]
        assert FlowTable(inputs, ["z"], ["a"], {}).num_inputs == MAX_INPUTS

    def test_needs_inputs_and_states(self):
        with pytest.raises(FlowTableError):
            FlowTable([], ["z"], ["a"], {})
        with pytest.raises(FlowTableError):
            FlowTable(["x"], ["z"], [], {})


class TestColumns:
    def test_column_of_string(self):
        table = gray4()
        assert table.column_of("00") == 0
        assert table.column_of("10") == 1  # x1 is bit 0
        assert table.column_of("01") == 2
        assert table.column_of("11") == 3

    def test_column_of_mapping(self):
        table = gray4()
        assert table.column_of({"x1": 1, "x2": 0}) == 1

    def test_column_of_bad_pattern(self):
        with pytest.raises(FlowTableError):
            gray4().column_of("0")
        with pytest.raises(FlowTableError):
            gray4().column_of("0-")
        with pytest.raises(FlowTableError):
            gray4().column_of({"x1": 1})

    def test_column_string_roundtrip(self):
        table = gray4()
        for c in table.columns:
            assert table.column_of(table.column_string(c)) == c


class TestEntries:
    def test_stability(self):
        table = gray4()
        assert table.is_stable("s0", table.column_of("00"))
        assert not table.is_stable("s0", table.column_of("10"))
        assert table.stable_columns("s2") == [table.column_of("11")]

    def test_unspecified_cells_are_blank(self):
        b = FlowTableBuilder(inputs=["x1"], outputs=["z"])
        b.stable("a", "0", "0").add("a", "1", "b").stable("b", "1", "1")
        b.add("b", "0", "a")
        table = b.build(name="two", check=False)
        # no cell is missing here, so extend with a fresh state view
        entry = table.entry("a", 0)
        assert entry.is_specified

    def test_stable_points(self):
        table = gray4()
        points = set(table.stable_points())
        assert ("s0", 0) in points
        assert len(points) == 4

    def test_unknown_state_raises(self):
        with pytest.raises(FlowTableError):
            gray4().entry("zzz", 0)

    def test_specified_entries_order_deterministic(self):
        table = gray4()
        listed = list(table.specified_entries())
        assert listed == list(table.specified_entries())
        assert len(listed) == 16


class TestTransitions:
    def test_all_transitions_counted(self):
        table = gray4()
        transitions = list(table.transitions())
        # 4 stable points x 3 other columns, all specified.
        assert len(transitions) == 12

    def test_min_distance_filter(self):
        table = gray4()
        mic = list(table.transitions(min_input_distance=2))
        assert len(mic) == 4
        assert all(t.input_distance() == 2 for t in mic)

    def test_transition_dest(self):
        table = gray4()
        t = next(
            t for t in table.transitions()
            if t.state == "s0" and t.to_column == table.column_of("11")
        )
        assert t.dest == "s2"
        assert t.from_column == table.column_of("00")

    def test_intermediate_columns(self):
        t = Transition("s0", 0b00, 0b11, "s2")
        assert sorted(t.intermediate_columns()) == [0b01, 0b10]

    def test_intermediate_columns_three_bit_change(self):
        t = Transition("s", 0b000, 0b111, "t")
        inter = sorted(t.intermediate_columns())
        assert len(inter) == 6  # 2^3 - 2 endpoints
        assert 0b000 not in inter and 0b111 not in inter

    def test_intermediate_respects_unchanged_bits(self):
        # from 100 to 111: bit 0 stays 1 in every intermediate.
        t = Transition("s", 0b001, 0b111, "t")
        for c in t.intermediate_columns():
            assert c & 0b001


class TestPrettyAndStats:
    def test_pretty_contains_stable_parens(self):
        text = gray4().pretty()
        assert "(s0)" in text
        assert "s1" in text

    def test_stats(self):
        stats = TableStats.of(gray4())
        assert stats.num_states == 4
        assert stats.num_specified == 16
        assert stats.num_stable == 4
        assert stats.num_transitions == 12
        assert stats.num_mic_transitions == 4

    def test_replace_entries_roundtrip(self):
        table = gray4()
        clone = table.replace_entries(table.entry_map())
        assert clone.entry_map() == table.entry_map()

    def test_with_name(self):
        assert gray4().with_name("renamed").name == "renamed"
