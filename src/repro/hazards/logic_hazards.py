"""Logic (cover-induced) hazards of two-level AND-OR implementations.

A *logic* hazard is a glitch an implementation may produce even though the
function itself is hazard-free for the transition.  For a sum-of-products
cover:

* a **static-1 hazard** for a single-bit change between two covered
  minterms exists iff no single product term covers both (the OR gate's
  holding term is missing) — the hazard the paper removes from ``fsv``
  by keeping *all* prime implicants;
* **static-0 hazards** cannot occur in AND-OR covers that never cover an
  off-set minterm and contain no term with complementary literals (both
  enforced by construction here);
* for a **multiple-input change** whose whole transition subcube lies in
  the on-set, the implementation is glitch-free iff one term covers the
  entire subcube (Eichelberger's condition).

These predicates power both the unit tests and the ablation benchmarks
that contrast essential-SOP covers (Z, SSD — allowed to glitch) with
all-primes covers (fsv — required not to).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..logic.bitset import check_width, half_space, iter_bits
from ..logic.cube import Cube
from ..logic.function import BooleanFunction


@dataclass(frozen=True)
class StaticHazard:
    """A static-1 hazard: adjacent covered minterms with no shared term."""

    minterm_a: int
    minterm_b: int
    variable: int


def static_one_hazards(
    cubes: Sequence[Cube], width: int
) -> list[StaticHazard]:
    """All single-bit static-1 hazards of a cover.

    Reported once per unordered pair (``minterm_a < minterm_b``).

    Runs on packed coverage bitsets: for each variable ``v``, the minterms
    whose ``v``-neighbour is also covered are ``covered & (covered >> 2**v)``
    (restricted to the half-space where bit ``v`` is 0 so the shift is a
    genuine single-bit flip), and the pairs held by a single term are the
    same expression per cube.  The difference of those two masks is
    exactly the hazard set for ``v`` — no per-minterm scanning.  Raises
    :class:`ValueError` when ``width`` exceeds
    :data:`~repro.logic.bitset.MAX_WIDTH`.
    """
    check_width(width)
    coverages = [cube.coverage_mask() for cube in cubes]
    covered = 0
    for cov in coverages:
        covered |= cov
    found: list[tuple[int, int, int]] = []
    for bit in range(width):
        shift = 1 << bit
        low_half = half_space(width, bit)
        pairs = covered & (covered >> shift) & low_half
        if not pairs:
            continue
        held = 0
        for cov in coverages:
            held |= cov & (cov >> shift)
        for m in iter_bits(pairs & ~held):
            found.append((m, m ^ shift, bit))
    found.sort()
    return [StaticHazard(a, b, bit) for a, b, bit in found]


def is_sic_hazard_free(cubes: Sequence[Cube], width: int) -> bool:
    """True when the cover has no single-input-change logic hazard.

    For two-level AND-OR networks, freedom from static-1 hazards implies
    freedom from all single-input-change hazards (static-0 hazards need a
    term with complementary literals, which :class:`Cube` cannot express;
    dynamic hazards in AND-OR need three changes of a gate output, which a
    single input change cannot produce through two levels).
    """
    return not static_one_hazards(cubes, width)


def mic_static_one_hazard(
    cubes: Sequence[Cube], a: int, b: int
) -> bool:
    """Static-1 hazard check for a multiple-input change ``a -> b``.

    Assumes every vertex of the transition subcube is covered (a "1-1"
    transition); the implementation is glitch-free for every bit ordering
    iff some single term covers the whole subcube.  Raises
    :class:`ValueError` when the cubes are wider than
    :data:`~repro.logic.bitset.MAX_WIDTH`.
    """
    if not cubes:
        return True
    width = cubes[0].width
    check_width(width)
    span = Cube.from_minterm(a, width).supercube(Cube.from_minterm(b, width))
    # The transition subcube's minterms are exactly the span's coverage.
    covered = 0
    for cube in cubes:
        covered |= cube.coverage_mask()
    if span.coverage_mask() & ~covered:
        raise ValueError(
            "mic_static_one_hazard expects a fully covered transition cube"
        )
    return not any(cube.contains_cube(span) for cube in cubes)


def cover_hazard_report(
    function: BooleanFunction, cubes: Sequence[Cube]
) -> dict[str, int]:
    """Summary counts used by the cover-ablation benchmark.

    Returns the number of terms, literals, and single-input-change
    static-1 hazards of the cover.
    """
    return {
        "terms": len(cubes),
        "literals": sum(c.num_literals for c in cubes),
        "static_one_hazards": len(
            static_one_hazards(list(cubes), function.width)
        ),
    }
