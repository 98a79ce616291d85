"""Minimum-cover selection over prime implicants, on packed bitsets.

SEANCE reduces ``Z``, ``SSD`` and the next-state equations to an
*essential* sum-of-products (paper Section 5.2): essential primes first,
then a minimum completion of the cover.  This module implements that
selection exactly for the paper-scale problems (branch-and-bound over the
cyclic core) with a greedy fallback for large instances.

Cost model: primary objective is the number of product terms, secondary is
the total literal count — the classic two-level cost used by
Quine-McCluskey treatments (Mano; Kohavi), which is also what the paper's
"depth" metric ultimately depends on.

Engine notes: every candidate's coverage is one packed bitset int
(:meth:`Cube.coverage_mask`), the uncovered on-set is one int, so
"covers something new" is ``coverage & remaining``, essential detection
is a covered-once/covered-twice carry cascade, and the branch-and-bound
memoises on the remaining-universe bitset (a pruned state can never
improve the incumbent again — see the Pareto-prefix check in
:func:`_branch_and_bound`).  The original set-based selection survives in
:mod:`repro.logic._reference` for the equivalence suite.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from ..errors import CoveringError
from .bitset import iter_bits, mask_of
from .cube import Cube, remove_contained
from .function import BooleanFunction
from .quine_mccluskey import primes_of, useful_primes

#: Above this many undecided primes the exact branch-and-bound hands over
#: to the greedy heuristic.  The paper's machines stay far below it.  The
#: value is part of the pinned output contract (the ``exact`` flag of
#: every golden cover), so the bitset rewrite kept it; the generic
#: :data:`repro.util.setcover.EXACT_LIMIT` was raised instead.
EXACT_SEARCH_LIMIT = 26


@dataclass(frozen=True)
class CoverResult:
    """Outcome of a covering run.

    Attributes
    ----------
    cubes:
        The selected cover, sorted for determinism.
    essential:
        The subset of ``cubes`` that was essential (sole cover of some
        on-set minterm among the candidate primes).
    exact:
        True when the selection is provably minimum (essential extraction
        plus exhaustive branch-and-bound); False when the greedy fallback
        decided any part of the cyclic core.
    """

    cubes: tuple[Cube, ...]
    essential: tuple[Cube, ...]
    exact: bool

    @property
    def num_terms(self) -> int:
        return len(self.cubes)

    @property
    def num_literals(self) -> int:
        return sum(cube.num_literals for cube in self.cubes)


def _covered_once_mask(coverage: Sequence[int]) -> int:
    """Packed bitset of the minterms covered by exactly one coverage mask."""
    once = 0
    more = 0
    for cov in coverage:
        more |= once & cov
        once |= cov
    return once & ~more


def _unique_coverer(
    coverage: Sequence[int], unique_mask: int
) -> dict[int, int]:
    """Map each uniquely covered minterm to the index of its sole coverer."""
    coverer: dict[int, int] = {}
    for i, cov in enumerate(coverage):
        hits = cov & unique_mask
        if hits:
            for m in iter_bits(hits):
                coverer[m] = i
    return coverer


def essential_primes(
    primes: Sequence[Cube], on: Iterable[int] | int
) -> list[Cube]:
    """Primes that are the unique cover of at least one on-set minterm."""
    on_mask = on if isinstance(on, int) else mask_of(on)
    primes = list(primes)
    coverage = [p.coverage_mask() for p in primes]
    unique = _covered_once_mask(coverage) & on_mask
    coverer = _unique_coverer(coverage, unique)
    essential: list[Cube] = []
    seen: set[int] = set()
    for m in iter_bits(unique):
        i = coverer[m]
        if i not in seen:
            seen.add(i)
            essential.append(primes[i])
    return essential


def minimal_cover(
    function: BooleanFunction,
    primes: Sequence[Cube] | None = None,
    exact: bool | None = None,
) -> CoverResult:
    """Select a minimum (or near-minimum) prime cover of ``function``.

    Parameters
    ----------
    function:
        The incompletely specified target function.
    primes:
        Candidate implicants; defaults to all primes of ``function``.
        Every candidate must be an implicant of the function.
    exact:
        Force (True) or forbid (False) the exact branch-and-bound.  The
        default picks exact when the cyclic core is small enough.

    Raises
    ------
    CoveringError
        When the candidates cannot cover the on-set (only possible with an
        explicit, insufficient ``primes`` argument).
    """
    if primes is None:
        primes = useful_primes(primes_of(function), function.on_mask)
    primes = list(primes)
    coverage = []
    off_mask = function.off_mask
    for prime in primes:
        function._check_cube_width(prime, function.names)
        cov = prime.coverage_mask()
        if cov & off_mask:
            raise CoveringError(
                f"candidate {prime} intersects the off-set of the function"
            )
        coverage.append(cov)

    remaining = function.on_mask
    if not remaining:
        return CoverResult((), (), True)

    # Uniqueness of coverage is a property of the (static) candidate list,
    # so the covered-exactly-once mask and the sole-coverer map are
    # computed one time; each essential round just intersects with the
    # shrinking remaining-minterm bitset.
    unique = _covered_once_mask(coverage) & remaining
    coverer = _unique_coverer(coverage, unique)

    chosen_idx: list[int] = []
    chosen_set: set[int] = set()
    essential_idx: list[int] = []
    # Iterated essential extraction: picking an essential prime can make
    # further primes essential for the still-uncovered minterms.
    while True:
        found: list[int] = []
        found_set: set[int] = set()
        for m in iter_bits(unique & remaining):
            i = coverer[m]
            if i not in found_set:
                found_set.add(i)
                found.append(i)
        new_essentials = [i for i in found if i not in chosen_set]
        if not new_essentials:
            break
        for i in new_essentials:
            chosen_idx.append(i)
            chosen_set.add(i)
            if i not in essential_idx:
                essential_idx.append(i)
            remaining &= ~coverage[i]
        if not remaining:
            break

    exact_flag = True
    if remaining:
        candidates = [
            i
            for i in range(len(primes))
            if i not in chosen_set and coverage[i] & remaining
        ]
        union = 0
        for i in candidates:
            union |= coverage[i]
        uncoverable = remaining & ~union
        if uncoverable:
            raise CoveringError(
                f"{uncoverable.bit_count()} on-set minterms cannot "
                f"be covered by the supplied candidate implicants"
            )
        use_exact = (
            exact
            if exact is not None
            else len(candidates) <= EXACT_SEARCH_LIMIT
        )
        if use_exact:
            extra = _branch_and_bound(primes, coverage, candidates, remaining)
        else:
            extra = _greedy(primes, coverage, candidates, remaining)
            exact_flag = False
        chosen_idx.extend(extra)

    chosen = remove_contained([primes[i] for i in chosen_idx])
    essential = [primes[i] for i in essential_idx]
    return CoverResult(
        tuple(sorted(chosen)), tuple(sorted(essential)), exact_flag
    )


def _greedy(
    primes: Sequence[Cube],
    coverage: Sequence[int],
    candidates: list[int],
    remaining: int,
) -> list[int]:
    """Greedy set cover: repeatedly take the cube covering the most."""
    chosen: list[int] = []
    while remaining:
        best = max(
            candidates,
            key=lambda i: (
                (coverage[i] & remaining).bit_count(),
                -primes[i].num_literals,
            ),
        )
        gain = coverage[best] & remaining
        if not gain:
            raise CoveringError("greedy cover stalled (internal error)")
        chosen.append(best)
        remaining &= ~gain
    return chosen


def _branch_and_bound(
    primes: Sequence[Cube],
    coverage: Sequence[int],
    candidates: list[int],
    remaining: int,
) -> list[int]:
    """Exact minimum completion of the cover (terms, then literals).

    Depth-first branch-and-bound on the uncovered minterm with the fewest
    covering candidates (most-constrained-first, ties to the smallest
    minterm), bounded by the best solution found so far and memoised on
    the remaining-universe bitset: once a state has been explored with a
    componentwise no-worse (terms, literals) prefix, revisiting it cannot
    produce a strictly better incumbent, so the revisit is pruned without
    changing which cover is returned.
    """
    cover_map = {i: coverage[i] & remaining for i in candidates}
    literals = {i: primes[i].num_literals for i in candidates}
    # Seed the bound with the greedy solution so pruning starts effective.
    best: list[int] = _greedy(primes, coverage, candidates, remaining)
    best_cost = _cost(best, literals)

    # Static most-constrained order: how many candidates cover each
    # minterm never changes during the search.
    counts: dict[int, int] = {}
    for i in candidates:
        for m in iter_bits(cover_map[i]):
            counts[m] = counts.get(m, 0) + 1
    order = sorted(counts, key=lambda m: (counts[m], m))

    # Pareto prefixes per remaining-universe bitset (see docstring).
    explored: dict[int, list[tuple[int, int]]] = {}

    def search(uncovered: int, chosen: list[int], chosen_lits: int) -> None:
        nonlocal best, best_cost
        if not uncovered:
            cost = (len(chosen), chosen_lits)
            if cost < best_cost:
                best = list(chosen)
                best_cost = cost
            return
        if len(chosen) + 1 > best_cost[0]:
            return
        prefixes = explored.setdefault(uncovered, [])
        for terms, lits in prefixes:
            if terms <= len(chosen) and lits <= chosen_lits:
                return
        prefixes.append((len(chosen), chosen_lits))
        target = next(m for m in order if uncovered >> m & 1)
        options = [i for i in candidates if cover_map[i] >> target & 1]
        # Try larger cubes first: covers more, fewer literals.
        options.sort(
            key=lambda i: (cover_map[i] & uncovered).bit_count(), reverse=True
        )
        for option in options:
            if option in chosen:
                continue
            chosen.append(option)
            lits = chosen_lits + literals[option]
            if (len(chosen), lits) <= best_cost:
                search(uncovered & ~cover_map[option], chosen, lits)
            chosen.pop()

    search(remaining, [], 0)
    return best


def _cost(chosen: Sequence[int], literals: dict[int, int]) -> tuple[int, int]:
    return (len(chosen), sum(literals[i] for i in chosen))


def essential_sop(function: BooleanFunction) -> CoverResult:
    """The paper's "essential SOP expression": minimum prime cover.

    Convenience wrapper used for the ``Z`` and ``SSD`` equations, where
    self-synchronisation makes a hazard-free (all-primes) cover
    unnecessary (paper Section 5.2).
    """
    return minimal_cover(function)
