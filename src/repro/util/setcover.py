"""Generic minimum set cover with exact branch-and-bound, on packed bitsets.

Its one synthesis caller is :func:`~repro.assign.tracey.assign_states`,
choosing merged dichotomies for tables of at most 64 seeds; prime
implicant selection has its own solver in :mod:`repro.logic.cover`.  The
implementation: iterated essential extraction, dominated-candidate
elimination, exact branch-and-bound on the cyclic core, and a greedy
fallback above a size threshold.  That fallback is no longer reached
from ``src/``: ``assign_states`` first asks :func:`goes_greedy`, and
where the cover would go greedy it takes
:func:`~repro.assign.dichotomy.greedy_merge_cover`, which chooses the
same candidates.  The tests' oracles still call it.

Internally every element is numbered (in ``repr``-sorted order, which is
also the deterministic scan order of the original set-based solver, kept
in :mod:`repro.logic._reference`), each candidate becomes one incidence
bitset int, and the element-to-covering-candidates map is built in a
single pass up front.  Dominance elimination probes a popcount-ordered
superset index (:func:`_undominated_indexed`) instead of testing every
pair, essential extraction walks a precomputed covered-exactly-once
list, and the branch-and-bound memoises on the remaining-universe
bitset.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Sequence
from dataclasses import dataclass
from math import comb

from ..errors import CoveringError
from ..logic.bitset import iter_bits

#: Above this many candidates in the cyclic core the solver goes greedy.
#: The bitset rewrite (O(words) dominance/coverage ops plus a memoised
#: search) raised this from the original 30.
EXACT_LIMIT = 48


@dataclass(frozen=True)
class SetCoverResult:
    """Chosen candidate indices (into the input sequence) and provenance."""

    chosen: tuple[int, ...]
    exact: bool


def minimum_set_cover(
    universe: set[Hashable],
    candidates: Sequence[frozenset],
    exact: bool | None = None,
) -> SetCoverResult:
    """Select a minimum family of candidates whose union covers ``universe``.

    Returns indices into ``candidates`` (deterministic for equal inputs).
    Raises :class:`CoveringError` when the union of all candidates misses
    part of the universe.
    """
    universe = set(universe)
    if not universe:
        return SetCoverResult((), True)
    # Number the elements in repr-sorted order; element k of ``order`` is
    # bit k of every incidence bitset below.
    order = sorted(universe, key=repr)
    index = {element: k for k, element in enumerate(order)}
    n = len(order)
    full = (1 << n) - 1

    masks: list[int] = []
    for candidate in candidates:
        bits = 0
        for element in candidate:
            k = index.get(element)
            if k is not None:
                bits |= 1 << k
        masks.append(bits)

    total = 0
    for bits in masks:
        total |= bits
    if total != full:
        missing = sorted(
            (order[k] for k in iter_bits(full & ~total)), key=repr
        )
        raise CoveringError(f"elements cannot be covered: {missing}")

    # Element -> covering-candidates incidence, computed once up front:
    # per element a count and (for the uniquely covered) the sole coverer.
    covering_count = [0] * n
    sole_coverer = [-1] * n
    for i, bits in enumerate(masks):
        for k in iter_bits(bits):
            covering_count[k] += 1
            sole_coverer[k] = i
    forced_order = [k for k in range(n) if covering_count[k] == 1]

    remaining = full
    chosen: list[int] = []
    chosen_set: set[int] = set()

    # Iterated essential extraction: an element covered by exactly one
    # candidate forces that candidate.  Coverage counts are static, so the
    # scan resumes where it left off instead of rescanning every
    # candidate for every element each round.
    cursor = 0
    while remaining:
        forced = None
        while cursor < len(forced_order):
            k = forced_order[cursor]
            if remaining >> k & 1:
                forced = sole_coverer[k]
                break
            cursor += 1
        if forced is None:
            break
        if forced not in chosen_set:
            chosen.append(forced)
            chosen_set.add(forced)
        remaining &= ~masks[forced]

    if not remaining:
        return SetCoverResult(tuple(sorted(chosen)), True)

    live = [
        i
        for i in range(len(candidates))
        if i not in chosen_set and masks[i] & remaining
    ]
    # Dominance: drop candidates whose useful contribution is a subset of
    # another's (ties keep the lower index).
    useful = {i: masks[i] & remaining for i in live}
    live = _undominated_indexed(live, useful)

    use_exact = exact if exact is not None else len(live) <= EXACT_LIMIT
    if use_exact:
        extra = _branch_and_bound(remaining, live, useful)
        return SetCoverResult(tuple(sorted(chosen + extra)), True)
    extra = _greedy(remaining, live, useful)
    return SetCoverResult(tuple(sorted(chosen + extra)), False)


def goes_greedy(masks: Sequence[int], limit: int = EXACT_LIMIT) -> bool:
    """Whether :func:`minimum_set_cover` over candidates with these
    incidence bitsets would go greedy, without its passes.

    ``masks`` covers the universe, in any element numbering: the
    essentials and the dominance count do not depend on it.  The
    elements exactly one mask holds force their candidates; past them,
    the cover goes greedy when more than ``limit`` distinct useful masks
    are undominated.  So it never does with at most ``limit``
    candidates.  The undominated masks are an antichain of subsets of
    the ``c`` elements left, so with ``C(c, c // 2) <= limit``
    (Sperner) it never does either; otherwise
    :func:`undominated_count` counts them, up to ``limit + 1``.
    """
    if len(masks) <= limit:
        return False
    once = twice = 0
    for bits in masks:
        twice |= once & bits
        once |= bits
    sole = once & ~twice
    remaining = once
    for bits in masks:
        if bits & sole:
            remaining &= ~bits
    size = remaining.bit_count()
    if comb(size, size // 2) <= limit:
        return False
    useful = (bits & remaining for bits in masks)
    return undominated_count(useful, limit + 1) > limit


def undominated_count(masks: Iterable[int], cap: int) -> int:
    """How many distinct non-zero masks no other strictly contains
    (the candidates :func:`_undominated_indexed` keeps), counted up to
    ``cap``.

    Largest masks first, a mask is undominated iff no kept one contains
    it (a strict superset is larger, and domination is transitive), so
    each test is against at most ``cap`` kept masks.
    """
    kept: list[int] = []
    for bits in sorted(set(masks) - {0}, key=int.bit_count, reverse=True):
        for other in kept:
            if bits | other == other:
                break
        else:
            kept.append(bits)
            if len(kept) == cap:
                break
    return len(kept)


def _undominated_indexed(
    live: list[int], useful: dict[int, int]
) -> list[int]:
    """Dominance elimination on a popcount-bucketed subset index.

    Computes exactly the survivors of the all-pairs predicate
    ``ui | uj == uj and (ui != uj or j < i)`` without the quadratic
    scan.  Duplicate masks are collapsed to their lowest index first; a
    distinct mask is then dominated iff some *strict* superset exists
    among the other distinct masks.

    Masks are processed in popcount buckets, largest first, so every
    possible dominator of a mask is indexed before the mask is probed
    (a strict superset has strictly larger popcount, and domination is
    transitive, so indexing only the *surviving* masks of earlier
    buckets is complete).  The index is one candidate-axis bitset per
    universe element — bit ``t`` of ``bucket[k]`` says indexed mask
    ``t`` contains element ``k`` — so "some indexed mask contains every
    element of ``m``" is an AND-cascade over ``m``'s elements, walked
    rarest element first and abandoned on the first empty
    intersection, which for an undominated mask is almost immediate.
    The bitsets live in bytearrays (O(1) bit appends when a bucket's
    survivors are inserted) and are materialised as ints lazily per
    probe generation.
    """
    # Lowest live index per distinct mask (``live`` ascends, so first
    # wins); later duplicates are dominated by the equal-mask clause.
    first: dict[int, int] = {}
    for i in live:
        first.setdefault(useful[i], i)
    distinct = list(first)
    nbytes = (len(distinct) + 7) // 8

    freq: dict[int, int] = {}
    for m in distinct:
        for k in iter_bits(m):
            freq[k] = freq.get(k, 0) + 1
    by_size: dict[int, list[int]] = {}
    for m in distinct:
        by_size.setdefault(m.bit_count(), []).append(m)

    arrays: dict[int, bytearray] = {}
    ints: dict[int, int] = {}  # lazy int view of ``arrays``, per element
    dominated: set[int] = set()
    slot = 0
    for size in sorted(by_size, reverse=True):
        group = by_size[size]
        if arrays:
            for m in group:
                elems = sorted(iter_bits(m), key=freq.__getitem__)
                acc = None
                for k in elems:
                    arr = arrays.get(k)
                    if arr is None:
                        acc = 0
                        break
                    bucket = ints.get(k)
                    if bucket is None:
                        bucket = int.from_bytes(arr, "little")
                        ints[k] = bucket
                    acc = bucket if acc is None else acc & bucket
                    if not acc:
                        break
                if acc:
                    dominated.add(m)
        touched: set[int] = set()
        for m in group:
            if m in dominated:
                continue
            byte, bit = slot >> 3, 1 << (slot & 7)
            slot += 1
            for k in iter_bits(m):
                arr = arrays.get(k)
                if arr is None:
                    arr = bytearray(nbytes)
                    arrays[k] = arr
                arr[byte] |= bit
                touched.add(k)
        for k in touched:
            ints.pop(k, None)

    return [
        i
        for i in live
        if first[useful[i]] == i and useful[i] not in dominated
    ]


def _greedy(
    remaining: int, live: list[int], useful: dict[int, int]
) -> list[int]:
    chosen = []
    while remaining:
        best = max(
            live, key=lambda i: ((useful[i] & remaining).bit_count(), -i)
        )
        gain = useful[best] & remaining
        if not gain:
            raise CoveringError("greedy set cover stalled (internal error)")
        chosen.append(best)
        remaining &= ~gain
    return chosen


def _branch_and_bound(
    remaining: int, live: list[int], useful: dict[int, int]
) -> list[int]:
    best = _greedy(remaining, live, useful)

    # Static most-constrained order: the number of live candidates
    # covering an element never changes during the search, and the
    # repr-order element numbering makes the (count, repr) tie-break of
    # the original solver equal to (count, bit index).
    counts: dict[int, int] = {}
    for i in live:
        for k in iter_bits(useful[i]):
            counts[k] = counts.get(k, 0) + 1
    order = sorted(counts, key=lambda k: (counts[k], k))

    # Memo on the remaining-universe bitset: a state revisited with at
    # least as many candidates already chosen cannot improve the
    # incumbent (its first exploration either updated it or was pruned
    # against an incumbent no worse than the final one).
    explored: dict[int, int] = {}

    def search(uncovered: int, chosen: list[int]) -> None:
        nonlocal best
        if not uncovered:
            if len(chosen) < len(best):
                best = list(chosen)
            return
        if len(chosen) + 1 >= len(best):
            return
        if explored.get(uncovered, len(live) + 1) <= len(chosen):
            return
        explored[uncovered] = len(chosen)
        target = next(k for k in order if uncovered >> k & 1)
        options = [i for i in live if useful[i] >> target & 1]
        options.sort(key=lambda i: (-(useful[i] & uncovered).bit_count(), i))
        for option in options:
            if option in chosen:
                continue
            chosen.append(option)
            search(uncovered & ~useful[option], chosen)
            chosen.pop()

    search(remaining, [])
    return sorted(best)
