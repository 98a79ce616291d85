"""Hypothesis cross-checks: bitset engine vs the retained reference engine.

The packed-bitset hot paths (:mod:`repro.logic.quine_mccluskey`,
:mod:`repro.logic.cover`, :mod:`repro.util.setcover`,
:mod:`repro.hazards.logic_hazards`) must be *drop-in* replacements for the
original set-based implementations kept in :mod:`repro.logic._reference`:
identical primes, identical useful-prime filters, identical covers
(cubes, essentials and the ``exact`` flag), identical set-cover index
selections and identical hazard reports — not merely equivalent cost.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logic import _reference as ref
from repro.logic.cover import minimal_cover
from repro.logic.cube import Cube
from repro.logic.function import BooleanFunction
from repro.logic.quine_mccluskey import prime_implicants, useful_primes
from repro.hazards.logic_hazards import static_one_hazards
from repro.util.setcover import minimum_set_cover


@st.composite
def minterm_functions(draw, max_width=8):
    """Dense random on/dc sets over small widths (adversarial values)."""
    width = draw(st.integers(min_value=1, max_value=max_width))
    space = 1 << width
    on = draw(st.sets(st.integers(min_value=0, max_value=space - 1)))
    dc = draw(st.sets(st.integers(min_value=0, max_value=space - 1))) - on
    names = tuple(f"v{i}" for i in range(width))
    return BooleanFunction(names, frozenset(on), frozenset(dc))


@st.composite
def cube_functions(draw, min_width=9, max_width=12):
    """Merge-heavy functions up to width 12, built from random cubes.

    Wide spaces are where the engines could plausibly diverge (big-int
    carries, shift doubling), but dense random minterm sets there are too
    slow for the reference engine — unions of a few wide cubes give large
    coverage with structure instead.
    """
    width = draw(st.integers(min_value=min_width, max_value=max_width))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)

    def cube() -> Cube:
        bound = rng.randint(width - 3, width)
        positions = rng.sample(range(width), bound)
        mask = sum(1 << p for p in positions)
        value = rng.getrandbits(width) & mask
        return Cube(width, mask, value)

    on_cubes = [cube() for _ in range(rng.randint(1, 6))]
    dc_cubes = [cube() for _ in range(rng.randint(0, 3))]
    names = tuple(f"v{i}" for i in range(width))
    return BooleanFunction.from_cubes(names, on_cubes, dc_cubes)


@st.composite
def row_functions(draw):
    """Seeded random on/dc sets of any density, straddling the row width.

    The bitset tabulation slices a function into rows of
    ``2**ROW_BITS`` minterms (one row up to width 8), so widths 7-10
    cover the one-row case and the joins across rows.  Hypothesis' own
    sets stay sparse at these widths; a drawn density fills the space.
    """
    width = draw(st.integers(min_value=7, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = draw(st.sampled_from((0.05, 0.3, 0.6, 0.9)))
    rng = random.Random(seed)
    on, dc = set(), set()
    for m in range(1 << width):
        roll = rng.random()
        if roll < density:
            (on if roll < density * 0.7 else dc).add(m)
    names = tuple(f"v{i}" for i in range(width))
    return BooleanFunction(names, frozenset(on), frozenset(dc))


def assert_same_primes(f):
    """Both input forms of the bitset engine equal the reference."""
    slow = ref.prime_implicants_reference(f.on, f.dc, f.width)
    assert prime_implicants(f.on, f.dc, f.width) == slow
    assert prime_implicants(f.on_mask, f.dc_mask, f.width) == slow


def assert_same_useful(f):
    primes = prime_implicants(f.on, f.dc, f.width)
    assert useful_primes(primes, f.on) == ref.useful_primes_reference(
        primes, f.on
    )
    assert useful_primes(primes, f.on_mask) == ref.useful_primes_reference(
        primes, f.on
    )


def assert_same_cover(f):
    result = minimal_cover(f)
    cubes, essential, exact = ref.minimal_cover_reference(f)
    assert result.cubes == cubes
    assert result.essential == essential
    assert result.exact == exact


@given(minterm_functions())
@settings(max_examples=150, deadline=None)
def test_primes_identical_dense(f):
    assert_same_primes(f)


@given(cube_functions())
@settings(max_examples=25, deadline=None)
def test_primes_identical_wide(f):
    assert_same_primes(f)


@given(row_functions())
@settings(max_examples=30, deadline=None)
def test_primes_identical_across_the_row_boundary(f):
    assert_same_primes(f)


@given(cube_functions(min_width=13, max_width=16))
@settings(max_examples=15, deadline=None)
def test_primes_identical_many_rows(f):
    assert_same_primes(f)


@given(minterm_functions())
@settings(max_examples=100, deadline=None)
def test_useful_primes_identical(f):
    assert_same_useful(f)


@given(minterm_functions(max_width=6))
@settings(max_examples=100, deadline=None)
def test_minimal_cover_identical_dense(f):
    assert_same_cover(f)


@given(cube_functions(min_width=7, max_width=10))
@settings(max_examples=25, deadline=None)
def test_minimal_cover_identical_wide(f):
    assert_same_cover(f)


@given(minterm_functions(max_width=6))
@settings(max_examples=100, deadline=None)
def test_static_one_hazards_identical(f):
    cubes = useful_primes(prime_implicants(f.on, f.dc, f.width), f.on)
    fast = static_one_hazards(cubes, f.width)
    slow = ref.static_one_hazards_reference(cubes, f.width)
    assert [(h.minterm_a, h.minterm_b, h.variable) for h in fast] == slow


@given(
    st.integers(min_value=1, max_value=10),
    st.lists(
        st.sets(st.integers(min_value=0, max_value=9)), max_size=14
    ),
)
@settings(max_examples=150, deadline=None)
def test_minimum_set_cover_identical(universe_size, cand_sets):
    universe = set(range(universe_size))
    candidates = [frozenset(c) for c in cand_sets]
    union = set().union(*candidates) if candidates else set()
    if not universe <= union:
        return  # uncoverable: both raise, covered by the unit suite
    result = minimum_set_cover(universe, candidates)
    chosen, exact = ref.minimum_set_cover_reference(universe, candidates)
    assert result.chosen == chosen
    assert result.exact == exact


@given(
    st.lists(
        st.sets(st.text(alphabet="abcdef", min_size=1, max_size=1)),
        max_size=10,
    )
)
@settings(max_examples=100, deadline=None)
def test_minimum_set_cover_identical_hashable_elements(cand_sets):
    # Non-int elements exercise the repr-ordered element numbering.
    candidates = [frozenset(c) for c in cand_sets]
    universe = set().union(*candidates) if candidates else set()
    if not universe:
        return
    result = minimum_set_cover(universe, candidates)
    chosen, exact = ref.minimum_set_cover_reference(universe, candidates)
    assert result.chosen == chosen
    assert result.exact == exact
