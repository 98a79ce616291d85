"""Unit tests for the packed-bitset substrate of the logic engine."""

import random

import pytest

from repro.logic.bitset import (
    coverage_mask,
    full_mask,
    half_space,
    is_subset,
    iter_bits,
    mask_of,
    popcount,
)
from repro.logic.cube import Cube


class TestRawHelpers:
    def test_mask_of_round_trips_through_iter_bits(self):
        members = {0, 3, 17, 64, 200}
        assert set(iter_bits(mask_of(members))) == members

    @pytest.mark.parametrize("space", [1, 64, 4096, 4097, 1 << 16, 1 << 22])
    def test_mask_of_equals_the_plain_fold(self, space):
        # Both sides of the fold/bitmap split, in any order, repeats and
        # a one-shot generator included.
        rng = random.Random(space)
        for count in (0, 1, 5, 300):
            members = [rng.randrange(space) for _ in range(count)]
            members += members[: count // 3]
            fold = 0
            for m in members:
                fold |= 1 << m
            assert mask_of(members) == fold
            assert mask_of(iter(members)) == fold
            assert mask_of(frozenset(members)) == fold

    @pytest.mark.parametrize("members", [[-1], [5, -3], [1 << 20, -1]])
    def test_mask_of_rejects_negative_members(self, members):
        with pytest.raises(ValueError):
            mask_of(members)

    def test_iter_bits_is_increasing(self):
        assert list(iter_bits(mask_of([5, 1, 9, 2]))) == [1, 2, 5, 9]

    def test_popcount(self):
        assert popcount(0) == 0
        assert popcount(mask_of(range(10))) == 10

    def test_full_mask(self):
        assert full_mask(0) == 0b1
        assert full_mask(2) == 0b1111
        assert full_mask(3).bit_count() == 8

    def test_is_subset(self):
        assert is_subset(0b0101, 0b1101)
        assert not is_subset(0b0101, 0b1001)
        assert is_subset(0, 0)


class TestCoverageMask:
    @pytest.mark.parametrize("text", ["", "-", "1", "0-1", "10-1-", "-----"])
    def test_matches_explicit_enumeration(self, text):
        cube = Cube.from_string(text)
        expected = mask_of(
            m for m in range(1 << cube.width) if (m & cube.mask) == cube.value
        )
        assert coverage_mask(cube.width, cube.mask, cube.value) == expected
        assert cube.coverage_mask() == expected

    def test_minterm_cube_is_single_bit(self):
        cube = Cube.from_minterm(5, 3)
        assert cube.coverage_mask() == 1 << 5

    def test_universe_covers_everything(self):
        assert Cube.universe(4).coverage_mask() == full_mask(4)

    def test_minterms_iterates_coverage_in_order(self):
        cube = Cube.from_string("-0-")
        assert list(cube.minterms()) == list(iter_bits(cube.coverage_mask()))


class TestHalfSpace:
    @pytest.mark.parametrize("width", [1, 2, 3, 5])
    def test_half_space_is_var_equals_zero(self, width):
        for var in range(width):
            expected = mask_of(
                m for m in range(1 << width) if not m >> var & 1
            )
            assert half_space(width, var) == expected
