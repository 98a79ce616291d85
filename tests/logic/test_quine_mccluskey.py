"""Unit tests for repro.logic.quine_mccluskey against brute-force checks."""

import hashlib
import itertools
import random

import pytest

from repro.logic._reference import prime_implicants_reference
from repro.logic.bitset import coverage_mask, iter_bits, mask_of
from repro.logic.cube import Cube
from repro.logic.function import BooleanFunction
from repro.logic.quine_mccluskey import (
    all_primes_cover,
    prime_implicants,
    primes_of,
    useful_primes,
)


def brute_force_primes(care: set[int], width: int) -> set[Cube]:
    """All prime implicants by exhaustive cube enumeration."""
    implicants = set()
    for mask_bits in itertools.product([0, 1], repeat=width):
        mask = sum(bit << i for i, bit in enumerate(mask_bits))
        seen_values = set()
        for value in range(1 << width):
            value &= mask
            if value in seen_values:
                continue
            seen_values.add(value)
            cube = Cube(width, mask, value)
            if all(m in care for m in cube.minterms()):
                implicants.add(cube)
    primes = set()
    for cube in implicants:
        if not any(
            other != cube and other.contains_cube(cube) for other in implicants
        ):
            primes.add(cube)
    return primes


class TestPrimeImplicants:
    def test_classic_example(self):
        # f(a,b,c,d) with on = {4,8,10,11,12,15}, dc = {9,14}
        # (the standard textbook QM example; variable 0 is the LSB).
        on = {4, 8, 10, 11, 12, 15}
        dc = {9, 14}
        primes = prime_implicants(on, dc, 4)
        assert set(primes) == brute_force_primes(on | dc, 4)

    def test_empty_function(self):
        assert prime_implicants(set(), set(), 3) == []

    def test_tautology(self):
        assert prime_implicants(set(range(8)), set(), 3) == [Cube.universe(3)]

    def test_tautology_via_dc(self):
        assert prime_implicants({0, 1}, {2, 3}, 2) == [Cube.universe(2)]

    def test_single_minterm(self):
        primes = prime_implicants({5}, set(), 3)
        assert primes == [Cube.from_minterm(5, 3)]

    def test_xor_has_no_merging(self):
        primes = prime_implicants({0b01, 0b10}, set(), 2)
        assert set(primes) == {Cube.from_string("10"), Cube.from_string("01")}

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            prime_implicants({1}, {1}, 2)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_functions_match_brute_force(self, seed):
        import random

        rng = random.Random(seed)
        width = rng.randint(1, 4)
        space = 1 << width
        on = {m for m in range(space) if rng.random() < 0.4}
        dc = {m for m in range(space) if m not in on and rng.random() < 0.2}
        primes = prime_implicants(on, dc, width)
        assert set(primes) == brute_force_primes(on | dc, width)

    def test_primes_cover_every_care_minterm(self):
        on = {1, 2, 5, 6, 7}
        primes = prime_implicants(on, set(), 3)
        for m in on:
            assert any(p.contains(m) for p in primes)

    def test_primes_stay_inside_care_set(self):
        on = {1, 2, 5}
        dc = {7}
        for p in prime_implicants(on, dc, 3):
            for m in p.minterms():
                assert m in on | dc


class TestUsefulPrimes:
    def test_drops_dc_only_primes(self):
        # on = {0}, dc = {3}: prime '11' covers only the dc minterm.
        primes = prime_implicants({0}, {3}, 2)
        useful = useful_primes(primes, {0})
        assert Cube.from_string("00") in useful
        assert all(any(m == 0 for m in p.minterms()) for p in useful)

    def test_primes_of_wrapper(self):
        f = BooleanFunction(("a", "b"), on=frozenset({0b01, 0b11}))
        assert primes_of(f) == [Cube.from_string("1-")]


class TestAllPrimesCover:
    def test_consensus_term_present(self):
        # f = a·b + a'·c has the hazard-covering consensus b·c.
        f = BooleanFunction.from_cubes(
            ("a", "b", "c"),
            on_cubes=[Cube.from_string("11-"), Cube.from_string("0-1")],
        )
        cover = all_primes_cover(f)
        assert Cube.from_string("-11") in cover
        assert f.is_cover(cover)

    def test_static_hazard_free_for_single_bit_changes(self):
        # In an all-primes cover, any two adjacent on-set minterms share a
        # cube, so no static-1 hazard exists for single-bit changes.
        f = BooleanFunction.from_cubes(
            ("a", "b", "c"),
            on_cubes=[Cube.from_string("11-"), Cube.from_string("0-1")],
        )
        cover = all_primes_cover(f)
        on = sorted(f.on)
        for m in on:
            for bit in range(f.width):
                other = m ^ (1 << bit)
                if other in f.on:
                    assert any(
                        p.contains(m) and p.contains(other) for p in cover
                    ), f"minterm pair {m},{other} not jointly covered"


class TestInputValidation:
    def test_out_of_range_minterm_rejected(self):
        with pytest.raises(ValueError):
            prime_implicants({0, 5}, set(), 2)

    def test_out_of_range_minterm_rejected_even_when_count_fills_space(self):
        # {0,1,2,5} has 2**2 members but is not the full 2-variable space;
        # the full-space shortcut must not fire on cardinality alone.
        with pytest.raises(ValueError):
            prime_implicants({0, 1, 2, 5}, set(), 2)

    def test_negative_minterm_rejected(self):
        with pytest.raises(ValueError):
            prime_implicants({-1}, set(), 2)


class TestPackedInput:
    """``prime_implicants`` takes packed bitset ints as well as sets."""

    @pytest.mark.parametrize("width", [2, 9])
    def test_same_primes_as_iterables(self, width):
        on = {0, 1, 3, (1 << width) - 1}
        dc = {2}
        packed_on = sum(1 << m for m in on)
        assert prime_implicants(packed_on, 0b100, width) == prime_implicants(
            on, dc, width
        )
        assert prime_implicants(on, 0b100, width) == prime_implicants(
            on, dc, width
        )

    def test_empty_masks(self):
        assert prime_implicants(0, 0, 3) == []

    def test_full_space_mask(self):
        assert prime_implicants(0b1111, 0, 2) == [Cube.universe(2)]

    @pytest.mark.parametrize("width", [2, 9])
    def test_overlap_rejected(self, width):
        with pytest.raises(ValueError, match="overlap"):
            prime_implicants(0b0110, 0b0011, width)
        with pytest.raises(ValueError, match="overlap"):
            prime_implicants({1, 2}, 0b0010, width)

    @pytest.mark.parametrize("width", [2, 9])
    def test_out_of_range_rejected(self, width):
        beyond = 1 << (1 << width)
        with pytest.raises(ValueError, match="outside"):
            prime_implicants(beyond | 1, 0, width)
        with pytest.raises(ValueError, match="outside"):
            prime_implicants(0, beyond, width)

    @pytest.mark.parametrize("width", [2, 9])
    def test_negative_rejected(self, width):
        with pytest.raises(ValueError, match="negative"):
            prime_implicants(-1, 0, width)
        with pytest.raises(ValueError, match="negative"):
            prime_implicants(0b1, -4, width)

    def test_primes_of_passes_the_packed_masks(self, monkeypatch):
        from repro.logic import quine_mccluskey

        seen = []
        real = quine_mccluskey.prime_implicants

        def recording(on, dc, width):
            seen.append((on, dc, width))
            return real(on, dc, width)

        monkeypatch.setattr(quine_mccluskey, "prime_implicants", recording)
        f = BooleanFunction(
            ("a", "b"), on=frozenset({0b01}), dc=frozenset({0b11})
        )
        assert primes_of(f) == [Cube.from_string("1-")]
        assert seen == [(f.on_mask, f.dc_mask, 2)]


class TestExhaustiveSmallWidths:
    """Every on/dc/off assignment at widths 0-3 (6,654 functions).

    Pins the kernel's digit order, its position decode, the empty
    function and the universe shortcut against the retained per-Cube
    tabulation, for both input forms.
    """

    @pytest.mark.parametrize("width", range(4))
    def test_every_function_matches_the_reference(self, width):
        space = 1 << width
        for labels in itertools.product((0, 1, 2), repeat=space):
            on = [m for m in range(space) if labels[m] == 1]
            dc = [m for m in range(space) if labels[m] == 2]
            expected = prime_implicants_reference(on, dc, width)
            assert prime_implicants(on, dc, width) == expected
            assert (
                prime_implicants(mask_of(on), mask_of(dc), width) == expected
            )


def wide_masks(width: int, seed: int) -> tuple[int, int]:
    """Packed on/dc sets of ``benchmarks/bench_logic.wide_function``.

    The same generator, copied so the pin does not depend on the
    benchmark: unions of random cubes with most variables bound, a large
    adjacency-rich care set that is far from the full space.
    """
    rng = random.Random(seed * 1000 + width)

    def cube() -> tuple[int, int]:
        bound = rng.randint(max(1, width - 7), width - 1)
        positions = rng.sample(range(width), bound)
        mask = sum(1 << p for p in positions)
        return mask, rng.getrandbits(width) & mask

    on_cubes = [cube() for _ in range(2 * width)]
    dc_cubes = [cube() for _ in range(width)]
    on = dc = 0
    for mask, value in on_cubes:
        on |= coverage_mask(width, mask, value)
    for mask, value in dc_cubes:
        dc |= coverage_mask(width, mask, value)
    return on, dc & ~on


def primes_digest(primes: list[Cube]) -> str:
    text = ";".join(f"{c.mask:x},{c.value:x}" for c in primes)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestWideWidthsPinned:
    """Digests of the primes at widths the reference cannot reach quickly.

    The digests were computed with the previous tabulation (one join
    per free set through a dict per variable, about 30-70 ms a width),
    before the ternary kernel replaced it; the reference engine takes
    minutes at these widths.  Seed 20260729 is ``bench_logic``'s default.
    """

    PINNED = {
        (20260729, 18): (66, "622b3e3d87b49f76"),
        (20260729, 20): (64, "060f78dd2ded3f63"),
        (20260729, 22): (67, "a3948612c7fd701c"),
        (1, 18): (73, "a55ef1684d3b2e2d"),
        (1, 20): (69, "58afb52631cbe19a"),
        (1, 22): (70, "2787f753955897b7"),
    }

    @pytest.mark.parametrize("seed, width", sorted(PINNED))
    def test_digest_is_pinned(self, seed, width):
        on, dc = wide_masks(width, seed)
        primes = prime_implicants(on, dc, width)
        assert (len(primes), primes_digest(primes)) == self.PINNED[
            seed, width
        ]

    def test_iterable_input_gives_the_same_primes(self):
        on, dc = wide_masks(18, 20260729)
        assert prime_implicants(
            list(iter_bits(on)), list(iter_bits(dc)), 18
        ) == prime_implicants(on, dc, 18)
