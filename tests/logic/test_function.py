"""Unit tests for repro.logic.function."""

import pytest

from repro.hazards.logic_hazards import mic_static_one_hazard, static_one_hazards
from repro.logic.cube import Cube
from repro.logic.function import MAX_WIDTH, BooleanFunction, truth_table
from repro.logic.quine_mccluskey import prime_implicants


def xor2() -> BooleanFunction:
    return BooleanFunction(("a", "b"), on=frozenset({0b01, 0b10}))


class TestConstruction:
    def test_basic(self):
        f = xor2()
        assert f.width == 2
        assert f.space == 4
        assert f.off == frozenset({0b00, 0b11})

    def test_rejects_overlapping_sets(self):
        with pytest.raises(ValueError):
            BooleanFunction(("a",), on=frozenset({1}), dc=frozenset({1}))

    def test_rejects_out_of_range_minterm(self):
        with pytest.raises(ValueError):
            BooleanFunction(("a",), on=frozenset({2}))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            BooleanFunction(("a", "a"))

    @pytest.mark.parametrize(
        "entry",
        [
            lambda w: BooleanFunction(tuple(f"v{i}" for i in range(w))),
            lambda w: static_one_hazards([Cube.universe(w)], w),
            lambda w: mic_static_one_hazard([Cube.universe(w)], 0, 1),
            lambda w: prime_implicants({0}, (), w),
        ],
        ids=[
            "BooleanFunction",
            "static_one_hazards",
            "mic_static_one_hazard",
            "prime_implicants",
        ],
    )
    def test_rejects_too_wide(self, entry):
        with pytest.raises(ValueError, match=f"MAX_WIDTH={MAX_WIDTH}"):
            entry(MAX_WIDTH + 1)

    def test_accepts_max_width(self):
        # The widest space: every mask is one dense 2**22-bit int.
        assert MAX_WIDTH == 22
        f = BooleanFunction(
            tuple(f"v{i}" for i in range(MAX_WIDTH)),
            on=frozenset({0, 4_000_000}),
        )
        assert f.on_mask.bit_count() == 2
        assert f.off_mask.bit_count() == (1 << MAX_WIDTH) - 2
        assert f.is_cover(
            [Cube.from_minterm(0, MAX_WIDTH),
             Cube.from_minterm(4_000_000, MAX_WIDTH)]
        )

    def test_constant(self):
        one = BooleanFunction.constant(("a", "b"), 1)
        zero = BooleanFunction.constant(("a", "b"), 0)
        assert one.on == frozenset(range(4))
        assert zero.on == frozenset()
        assert zero.off == frozenset(range(4))

    def test_from_cubes(self):
        f = BooleanFunction.from_cubes(
            ("a", "b", "c"),
            on_cubes=[Cube.from_string("1--")],
            dc_cubes=[Cube.from_string("-1-")],
        )
        assert f.value(0b001) == 1
        # dc cube does not demote on-set minterms
        assert f.value(0b011) == 1
        assert f.value(0b010) is None
        assert f.value(0b000) == 0

    def test_from_cubes_width_mismatch(self):
        with pytest.raises(ValueError):
            BooleanFunction.from_cubes(("a",), on_cubes=[Cube.from_string("1-")])


class TestQueries:
    def test_value(self):
        f = BooleanFunction(("a", "b"), on=frozenset({1}), dc=frozenset({2}))
        assert f.value(1) == 1
        assert f.value(2) is None
        assert f.value(0) == 0
        with pytest.raises(ValueError):
            f.value(4)

    def test_encode_decode_roundtrip(self):
        f = xor2()
        for m in range(4):
            assert f.encode(f.decode(m)) == m

    def test_encode_bit_order(self):
        f = BooleanFunction(("a", "b", "c"))
        # variable i is bit i: a=1,b=0,c=1 -> 0b101
        assert f.encode({"a": 1, "b": 0, "c": 1}) == 0b101

    def test_encode_missing_var(self):
        with pytest.raises(ValueError):
            xor2().encode({"a": 1})

    def test_value_at(self):
        assert xor2().value_at({"a": 1, "b": 0}) == 1
        assert xor2().value_at({"a": 1, "b": 1}) == 0

    def test_var_index(self):
        f = xor2()
        assert f.var_index("b") == 1
        with pytest.raises(ValueError):
            f.var_index("zzz")


class TestCoverRelations:
    def test_is_implicant(self):
        f = xor2()
        assert f.is_implicant(Cube.from_string("10"))  # a=1,b=0 -> on
        assert not f.is_implicant(Cube.from_string("1-"))  # hits 11 (off)

    def test_is_cover(self):
        f = xor2()
        good = [Cube.from_string("10"), Cube.from_string("01")]
        assert f.is_cover(good)
        assert not f.is_cover([Cube.from_string("10")])  # misses 01
        assert not f.is_cover([Cube.from_string("1-")])  # hits off-set

    def test_cover_with_dc_flexibility(self):
        # dc minterm 0b01 is (a=1, b=0), so the cube a=1 ("1-") is usable.
        f = BooleanFunction(("a", "b"), on=frozenset({0b11}), dc=frozenset({0b01}))
        assert f.is_cover([Cube.from_string("1-")])

    def test_cover_equals_on_care_set(self):
        f = BooleanFunction(("a", "b"), on=frozenset({0b11}), dc=frozenset({0b01}))
        assert f.cover_equals_on_care_set([Cube.from_string("1-")])
        assert not f.cover_equals_on_care_set([Cube.from_string("--")])


class TestAlgebra:
    def test_complement(self):
        f = BooleanFunction(("a", "b"), on=frozenset({1}), dc=frozenset({2}))
        g = f.complement()
        assert g.on == frozenset({0, 3})
        assert g.dc == frozenset({2})
        assert g.complement().on == f.on

    def test_specify(self):
        f = BooleanFunction(("a",), dc=frozenset({0, 1}))
        g = f.specify(0, 1).specify(1, 0)
        assert g.value(0) == 1
        assert g.value(1) == 0

    def test_fill_dc(self):
        f = BooleanFunction(("a", "b"), on=frozenset({1}), dc=frozenset({2}))
        assert f.fill_dc(1).on == frozenset({1, 2})
        assert f.fill_dc(0).on == frozenset({1})
        assert f.fill_dc(0).dc == frozenset()

    def test_cofactor(self):
        # f = a XOR b; f|a=1 = b'
        f = xor2()
        g = f.cofactor("a", 1)
        assert g.names == ("b",)
        assert g.value(0) == 1
        assert g.value(1) == 0

    def test_cofactor_middle_variable_squeeze(self):
        # f over (a, b, c) with on = {a=1,b=1,c=0 -> 0b011}; cofactor b=1
        f = BooleanFunction(("a", "b", "c"), on=frozenset({0b011}))
        g = f.cofactor("b", 1)
        assert g.names == ("a", "c")
        # a=1, c=0 -> minterm 0b01
        assert g.value(0b01) == 1

    def test_rename(self):
        f = xor2().rename({"a": "x1"})
        assert f.names == ("x1", "b")
        assert f.on == xor2().on


def test_truth_table():
    assert truth_table(xor2()) == [0, 1, 1, 0]
    f = BooleanFunction(("a",), on=frozenset({1}), dc=frozenset({0}))
    assert truth_table(f) == [None, 1]
