"""Unit tests for repro.flowtable.kiss."""

import pytest

from repro.errors import KissFormatError
from repro.flowtable.kiss import parse_kiss, write_kiss

GRAY4 = """\
# four states around the Gray cycle with diagonal jumps
.i 2
.o 1
.s 4
.p 16
.r s0
00 s0 s0 0
10 s0 s1 -
01 s0 s3 -
11 s0 s2 -
10 s1 s1 0
11 s1 s2 -
00 s1 s0 -
01 s1 s3 -
11 s2 s2 1
01 s2 s3 -
10 s2 s1 -
00 s2 s0 -
01 s3 s3 1
00 s3 s0 -
11 s3 s2 -
10 s3 s1 -
.e
"""


class TestParse:
    def test_shape(self):
        table = parse_kiss(GRAY4, name="gray4")
        assert table.num_inputs == 2
        assert table.num_outputs == 1
        assert table.num_states == 4
        assert table.reset_state == "s0"
        assert table.inputs == ("x1", "x2")

    def test_entries(self):
        table = parse_kiss(GRAY4)
        assert table.next_state("s0", table.column_of("11")) == "s2"
        assert table.is_stable("s2", table.column_of("11"))
        assert table.output_vector("s2", table.column_of("11")) == (1,)
        assert table.output_vector("s0", table.column_of("10")) == (None,)

    def test_wildcard_expansion(self):
        text = """\
.i 2
.o 1
0- a a 0
1- a b -
1- b b 1
0- b a -
.e
"""
        table = parse_kiss(text)
        # '0-' covers columns 00 and 01
        assert table.is_stable("a", table.column_of("00"))
        assert table.is_stable("a", table.column_of("01"))
        assert table.next_state("a", table.column_of("10")) == "b"
        assert table.next_state("a", table.column_of("11")) == "b"

    def test_comment_and_blank_lines_ignored(self):
        text = "\n# hi\n.i 1\n.o 1\n\n0 a a 0 # trailing\n1 a b -\n1 b b 1\n0 b a -\n.e\n"
        table = parse_kiss(text)
        assert table.num_states == 2

    def test_state_order_is_first_appearance(self):
        table = parse_kiss(GRAY4)
        # s3 appears (as a destination) before s2 in the source text.
        assert table.states == ("s0", "s1", "s3", "s2")


class TestParseErrors:
    def test_missing_io(self):
        with pytest.raises(KissFormatError):
            parse_kiss("0 a a 0\n")

    def test_wrong_field_count(self):
        with pytest.raises(KissFormatError) as err:
            parse_kiss(".i 1\n.o 1\n0 a a\n")
        assert "4 fields" in str(err.value)

    def test_wrong_input_width(self):
        with pytest.raises(KissFormatError):
            parse_kiss(".i 2\n.o 1\n0 a a 0\n")

    def test_wrong_output_width(self):
        with pytest.raises(KissFormatError):
            parse_kiss(".i 1\n.o 2\n0 a a 0\n")

    def test_bad_pattern_char(self):
        with pytest.raises(KissFormatError):
            parse_kiss(".i 1\n.o 1\n2 a a 0\n")

    def test_conflicting_entries(self):
        text = ".i 1\n.o 1\n0 a a 0\n0 a b -\n"
        with pytest.raises(KissFormatError) as err:
            parse_kiss(text)
        assert "conflicting" in str(err.value)

    def test_duplicate_identical_lines_allowed(self):
        text = ".i 1\n.o 1\n.p 4\n0 a a 0\n0 a a 0\n1 a b 1\n1 b b 1\n"
        with pytest.raises(KissFormatError):
            # .p says 4 but wildcard duplicates are identical: still 4 lines,
            # so this parses; force the error with a wrong count instead.
            parse_kiss(text.replace(".p 4", ".p 3"))

    def test_product_count_mismatch(self):
        text = ".i 1\n.o 1\n.p 5\n0 a a 0\n1 a b -\n1 b b 1\n0 b a -\n"
        with pytest.raises(KissFormatError):
            parse_kiss(text)

    def test_state_count_mismatch(self):
        text = ".i 1\n.o 1\n.s 3\n0 a a 0\n1 a b -\n1 b b 1\n0 b a -\n"
        with pytest.raises(KissFormatError):
            parse_kiss(text)

    def test_unknown_reset(self):
        text = ".i 1\n.o 1\n.r zz\n0 a a 0\n1 a b -\n1 b b 1\n0 b a -\n"
        with pytest.raises(KissFormatError):
            parse_kiss(text)

    def test_unknown_directive(self):
        with pytest.raises(KissFormatError):
            parse_kiss(".q 2\n.i 1\n.o 1\n0 a a 0\n")

    def test_too_many_inputs_rejected_before_expansion(self):
        # One all-'-' product over 30 inputs would expand to 2**30
        # columns; the .i directive is refused first.
        text = ".i 30\n.o 1\n.s 1\n" + "-" * 30 + " a a 0\n.e\n"
        with pytest.raises(KissFormatError, match="limit of 20") as err:
            parse_kiss(text)
        assert err.value.line == 1

    def test_twenty_one_inputs_rejected(self):
        with pytest.raises(KissFormatError, match="MAX_WIDTH=22"):
            parse_kiss(".i 21\n.o 1\n" + "0" * 21 + " a a 0\n")

    def test_line_number_reported(self):
        with pytest.raises(KissFormatError) as err:
            parse_kiss(".i 1\n.o 1\nbad line here also\n")
        assert err.value.line == 3


class TestRoundtrip:
    def test_write_then_parse_identical(self):
        table = parse_kiss(GRAY4, name="gray4")
        text = write_kiss(table)
        again = parse_kiss(text, name="gray4")
        assert again.states == table.states
        assert again.reset_state == table.reset_state
        assert again.entry_map() == table.entry_map()

    def test_written_form_declares_counts(self):
        table = parse_kiss(GRAY4)
        text = write_kiss(table)
        assert ".i 2" in text
        assert ".s 4" in text
        assert ".p 16" in text
        assert text.strip().endswith(".e")
