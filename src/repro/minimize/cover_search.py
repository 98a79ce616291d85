"""Minimum closed cover selection (the heart of state minimisation).

A family of compatibles is a valid reduced machine when it

* **covers** — every original state belongs to some chosen compatible, and
* is **closed** — for every chosen compatible ``C`` and every input
  column, the set of specified successors of ``C``'s members is contained
  in some chosen compatible.

The minimum such family gives the smallest reduced machine.  The search
here is an exact branch-and-bound over all compatibles (Grasselli-Luccio
style problems at paper scale are tiny), seeded with the
maximal-compatibles upper bound and pruned with the maximum-incompatible-
set lower bound.  A greedy fallback handles machines whose compatible
count explodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SynthesisError
from ..flowtable.table import FlowTable
from .compatibility import CompatibilityResult, compute_compatibility
from .compatibles import all_compatibles, maximal_compatibles


@dataclass(frozen=True)
class ClosedCover:
    """A chosen family of compatibles with its provenance."""

    classes: tuple[frozenset[str], ...]
    exact: bool

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def class_successors(
    table: FlowTable, members: frozenset[str], column: int
) -> frozenset[str]:
    """Specified successors of a compatible's members in one column."""
    return frozenset(
        nxt
        for state in members
        if (nxt := table.next_state(state, column)) is not None
    )


def is_closed(
    table: FlowTable, family: list[frozenset[str]]
) -> bool:
    """True when every implied successor set fits inside a family member."""
    for members in family:
        for column in table.columns:
            successors = class_successors(table, members, column)
            if not successors:
                continue
            if not any(successors <= other for other in family):
                return False
    return True


def covers_all_states(
    table: FlowTable, family: list[frozenset[str]]
) -> bool:
    union: set[str] = set()
    for members in family:
        union |= members
    return set(table.states) <= union


def find_minimum_closed_cover(
    table: FlowTable,
    compatibility: CompatibilityResult | None = None,
    exact: bool | None = None,
) -> ClosedCover:
    """Find a minimum (or small) closed cover of the table's states.

    The trivial cover by singletons is always closed (successor sets of a
    singleton are singletons), so a solution always exists; the search
    just minimises its size.
    """
    if compatibility is None:
        compatibility = compute_compatibility(table)

    maximals = maximal_compatibles(compatibility)
    # The maximal compatibles cover all states but may not be closed;
    # repair by adding implied classes greedily to get an upper bound.
    upper_family = _close_greedily(table, list(maximals))
    lower_bound = compatibility.incompatibility_number()

    if len(upper_family) == lower_bound:
        return ClosedCover(tuple(_canonical(upper_family)), exact=True)

    try:
        candidates = all_compatibles(compatibility)
    except SynthesisError:
        return ClosedCover(tuple(_canonical(upper_family)), exact=False)

    use_exact = exact if exact is not None else len(candidates) <= 4000
    if not use_exact:
        return ClosedCover(tuple(_canonical(upper_family)), exact=False)

    best = list(upper_family)

    # Packed-bitset plumbing: state k of ``table.states`` is bit k, a compatible
    # is one incidence int, and the per-state candidate options (sorted
    # largest-first with a deterministic name tie-break) are precomputed
    # once instead of rescanned at every search node.
    states = list(table.states)
    state_bit = {s: 1 << k for k, s in enumerate(states)}
    full = (1 << len(states)) - 1

    def members_mask(members: frozenset[str]) -> int:
        bits = 0
        for s in members:
            bits |= state_bit[s]
        return bits

    candidate_masks = [members_mask(c) for c in candidates]
    ranked = sorted(
        range(len(candidates)),
        key=lambda i: (-len(candidates[i]), sorted(candidates[i])),
    )
    options_for_state = [
        [i for i in ranked if candidate_masks[i] >> k & 1]
        for k in range(len(states))
    ]

    def search(family: list[frozenset[str]], covered: int) -> None:
        nonlocal best
        if len(family) >= len(best):
            return
        if covered == full:
            closed_family = _close_greedily(table, family)
            if len(closed_family) < len(best):
                best = closed_family
            return
        if len(family) + 1 >= len(best):
            return
        # First uncovered state in table order (lowest clear bit).
        missing = ~covered & full
        target = (missing & -missing).bit_length() - 1
        for i in options_for_state[target]:
            search(family + [candidates[i]], covered | candidate_masks[i])

    search([], 0)
    return ClosedCover(tuple(_canonical(best)), exact=True)


def _close_greedily(
    table: FlowTable, family: list[frozenset[str]]
) -> list[frozenset[str]]:
    """Add implied classes until the family is closed.

    Every implied successor set is itself a compatible (successors of a
    compatible under one column are pairwise compatible by definition of
    compatibility), so adding the set itself always restores closure and
    the process terminates — the family can only grow towards the finite
    set of all compatibles.
    """
    family = list(dict.fromkeys(family))
    while True:
        missing: frozenset[str] | None = None
        for members in family:
            for column in table.columns:
                successors = class_successors(table, members, column)
                if not successors:
                    continue
                if not any(successors <= other for other in family):
                    missing = successors
                    break
            if missing is not None:
                break
        if missing is None:
            return family
        family.append(missing)


def _canonical(family: list[frozenset[str]]) -> list[frozenset[str]]:
    """Sort a family for deterministic output, dropping duplicates."""
    unique = list(dict.fromkeys(family))
    return sorted(unique, key=lambda c: (-len(c), sorted(c)))
