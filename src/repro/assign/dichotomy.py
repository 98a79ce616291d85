"""Dichotomies: the partition-pair currency of Tracey state assignment.

Paper Step 3 finds "a valid unicode single-time transition (USTT) state
assignment ... using partition sets [Tracey 1966]".  Tracey's method works
with *dichotomies*: ordered pairs of disjoint state blocks ``(L; R)``.  A
state variable *covers* a dichotomy when it is constant 0 on every state
of one block and constant 1 on every state of the other.

Two facts drive the algorithm:

* every pair of transitions ``s -> S`` and ``t -> T`` in the same input
  column with different destinations generates the seed dichotomy
  ``({s, S}; {t, T})`` — a variable covering it keeps the two transition
  subcubes disjoint, which is exactly the USTT race-freedom condition;
* ordered dichotomies merge when their left blocks avoid each other's
  right blocks, and a set of pairwise-compatible dichotomies merges as a
  whole (unions of lefts and rights stay disjoint), so maximal merged
  dichotomies are maximal cliques of the pairwise-compatibility graph.

Two more facts make the clique enumeration cheap:

* **Mirror pairs.**  Reversing every orientation maps the graph onto
  itself, and a seed is never compatible with its own reverse.  So the
  maximal cliques come in mirror pairs with the same canonical merge,
  and it is enough to enumerate the cliques whose lowest seed appears in
  its given orientation.
* **Coverage by maximality.**  A maximal clique with merge ``(L; R)``
  holds every orientation whose blocks lie inside ``L`` and ``R`` — any
  such orientation is compatible with all its members.  So the merge
  covers a seed exactly when the clique holds one of its orientations,
  and the coverage needs no pass over candidates and seeds.

Past a few dozen seeds there are thousands of maximal merges, and the
greedy cover keeps a handful; :func:`greedy_merge_cover` finds those
with one maximum-weight clique search per chosen merge instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StateAssignmentError
from ..logic.bitset import iter_bits


@dataclass(frozen=True)
class Dichotomy:
    """An ordered pair of disjoint, non-empty state blocks."""

    left: frozenset[str]
    right: frozenset[str]

    def __post_init__(self) -> None:
        if not self.left or not self.right:
            raise StateAssignmentError("dichotomy blocks must be non-empty")
        if self.left & self.right:
            raise StateAssignmentError(
                f"dichotomy blocks overlap: {sorted(self.left & self.right)}"
            )

    # ------------------------------------------------------------------
    def reversed(self) -> "Dichotomy":
        """The opposite orientation (blocks swapped)."""
        return Dichotomy(self.right, self.left)

    def canonical(self) -> "Dichotomy":
        """Orientation-independent canonical form (for deduplication)."""
        if sorted(self.left) <= sorted(self.right):
            return self
        return self.reversed()

    def compatible(self, other: "Dichotomy") -> bool:
        """True when the two ordered dichotomies can merge."""
        return not (self.left & other.right) and not (self.right & other.left)

    def merge(self, other: "Dichotomy") -> "Dichotomy":
        """Union of blocks; only valid when :meth:`compatible`."""
        if not self.compatible(other):
            raise StateAssignmentError(
                f"cannot merge incompatible dichotomies {self} and {other}"
            )
        return Dichotomy(self.left | other.left, self.right | other.right)

    def covers(self, seed: "Dichotomy") -> bool:
        """True when this (merged) dichotomy covers ``seed`` in either
        orientation."""
        return (seed.left <= self.left and seed.right <= self.right) or (
            seed.left <= self.right and seed.right <= self.left
        )

    @property
    def states(self) -> frozenset[str]:
        return self.left | self.right

    def __str__(self) -> str:
        left = ",".join(sorted(self.left))
        right = ",".join(sorted(self.right))
        return f"({left} ; {right})"


def merge_all(dichotomies: list[Dichotomy]) -> Dichotomy:
    """Merge a pairwise-compatible family into one dichotomy."""
    if not dichotomies:
        raise StateAssignmentError("cannot merge an empty family")
    merged = dichotomies[0]
    for other in dichotomies[1:]:
        merged = merged.merge(other)
    return merged


def state_bits(dichotomies: list[Dichotomy]) -> dict[str, int]:
    """Assign each state of ``dichotomies`` one bit position (sorted order).

    With :func:`block_mask`, this is the packing convention of every
    bitset consumer of dichotomy blocks.
    """
    states = sorted({s for d in dichotomies for s in d.states})
    return {s: k for k, s in enumerate(states)}


def block_mask(block: frozenset[str], bit_of: dict[str, int]) -> int:
    """Pack a state block into an incidence bitset under ``bit_of``."""
    bits = 0
    for s in block:
        bits |= 1 << bit_of[s]
    return bits


def dichotomy_of(left: int, right: int, states: list[str]) -> Dichotomy:
    """Unpack two block masks (bit ``k`` is ``states[k]``) into a dichotomy."""
    return Dichotomy(
        frozenset(states[k] for k in iter_bits(left)),
        frozenset(states[k] for k in iter_bits(right)),
    )


def merged_dichotomy_masks(
    seeds: list[Dichotomy], bit_of: dict[str, int]
) -> list[tuple[int, int, int]]:
    """``(left, right, clique)`` of every canonical maximal merge.

    ``seeds`` must be distinct and contain no seed together with its
    reverse.  Vertex ``2k`` is ``seeds[k]`` and vertex ``2k+1`` its
    reverse; ``clique`` is the vertex bitset of the merge's maximal
    clique, so seed ``k`` is covered exactly when bit ``2k`` or ``2k+1``
    is set.  Blocks are :func:`block_mask` ints under ``bit_of``, and
    the list is sorted by :func:`merge_key`, as the state-name lists of
    the blocks sort.
    """
    # With no vertex weighted, every maximal clique is a heaviest one.
    found = heaviest_merges(
        orientation_graph(seeds, bit_of), 0, roots=(1 << 2 * len(seeds)) - 1
    )
    found.sort(key=merge_key)
    return found


def merge_key(merge: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Sort key of a canonical merge ``(left, right, ...)``: its blocks'
    state bits, which sort as the blocks' state names do."""
    return tuple(iter_bits(merge[0])), tuple(iter_bits(merge[1]))


def orientation_graph(
    seeds: list[Dichotomy], bit_of: dict[str, int]
) -> tuple[list[int], list[int], list[int]]:
    """``(lefts, rights, compatible)`` of the seed-orientation graph.

    Vertex ``2k`` is ``seeds[k]`` and vertex ``2k+1`` its reverse, with
    blocks packed by :func:`block_mask`.  ``compatible[v]`` is the
    vertex bitset of the orientations that merge with ``v``: their left
    block avoids ``v``'s right block and their right block ``v``'s left.
    """
    lefts: list[int] = []
    rights: list[int] = []
    for seed in seeds:
        left = block_mask(seed.left, bit_of)
        right = block_mask(seed.right, bit_of)
        lefts += (left, right)
        rights += (right, left)
    n = len(lefts)
    compatible = [0] * n
    for i in range(n):
        li, ri = lefts[i], rights[i]
        for j in range(i + 1, n):
            if not (li & rights[j]) and not (ri & lefts[j]):
                compatible[i] |= 1 << j
                compatible[j] |= 1 << i
    return lefts, rights, compatible


def heaviest_merges(
    graph: tuple[list[int], list[int], list[int]],
    weighted: int,
    roots: int,
) -> list[tuple[int, int, int]]:
    """The canonical maximal merges of greatest weight, unsorted.

    A clique weighs the number of its vertices in the bitset
    ``weighted``.  Of the canonical maximal cliques that hold a vertex
    of ``roots``, returns every one of the greatest weight, as ``(left,
    right, clique)`` in the form of :func:`merged_dichotomy_masks`,
    except that ``clique`` is the mirror image that holds the even
    vertex of its lowest root seed.  Both bitsets hold both orientations
    of a seed or neither.  With ``weighted == 0`` and every vertex a
    root, that is every maximal clique, each in the orientation that
    holds its lowest vertex.

    The search is Bron-Kerbosch with Tomita pivots on vertex bitsets,
    started once per root seed ``k`` at vertex ``2k`` with the lower
    roots' vertices excluded, so each clique is found once per mirror
    pair.  It is pruned as in Tomita & Seki's MCQ: a node whose clique
    weight plus a bound on what its candidate set can still add falls
    *strictly* below the best weight so far is cut, so every tie
    survives.  The bound is the size of a greedy colouring of the
    weighted candidates: a clique takes at most one vertex per colour
    class.
    """
    lefts, rights, compatible = graph
    found: list[tuple[int, int, int]] = []
    best = 0

    def colours(p: int, need: int) -> int:
        """Greedy colour classes of ``p``, counted up to ``need``."""
        count = 0
        while p:
            count += 1
            if count >= need:
                break
            q = p
            while q:
                low = q & -q
                q &= ~(compatible[low.bit_length() - 1] | low)
                p ^= low
        return count

    def expand(
        clique: int, left: int, right: int, weight: int, p: int, x: int
    ) -> None:
        nonlocal best
        if not p:
            if not x and weight >= best:  # maximal and heavy enough
                if weight > best:
                    best = weight
                    found.clear()
                # Canonical puts the lowest state on the left.
                if left & -left > right & -right:
                    left, right = right, left
                found.append((left, right, clique))
            return
        need = best - weight
        if need > 0 and colours(p & weighted, need) < need:
            return
        # Tomita pivot: the vertex of P | X with most neighbours in P.
        # One in X adjacent to all of P leaves nothing to branch on.
        size = p.bit_count()
        most = -1
        pool = p | x
        while pool:
            low = pool & -pool
            nbrs = compatible[low.bit_length() - 1]
            count = (nbrs & p).bit_count()
            if count > most:
                most, skip = count, nbrs
                if count == size:
                    return
            pool ^= low
        branch = p & ~skip
        while branch:
            low = branch & -branch
            v = low.bit_length() - 1
            nbrs = compatible[v]
            expand(clique | low, left | lefts[v], right | rights[v],
                   weight + (weighted >> v & 1), p & nbrs, x & nbrs)
            p ^= low
            x |= low
            branch ^= low

    # A clique and its mirror image have the same canonical merge, so
    # each root seed starts in its given orientation only.
    even = (1 << len(lefts)) // 3  # bit 2k for every seed k
    for v in iter_bits(roots & even):
        nbrs = compatible[v]
        lower = nbrs & roots & ((1 << v) - 1)
        expand(1 << v, lefts[v], rights[v], weighted >> v & 1,
               nbrs ^ lower, lower)
    return found


def greedy_merge_cover(
    seeds: list[Dichotomy], bit_of: dict[str, int]
) -> tuple[list[tuple[int, int]], bool]:
    """The greedy cover of the seeds by maximal merges, without
    enumerating the merges.

    Returns the chosen canonical ``(left, right)`` block masks in
    :func:`merge_key` order, and whether the cover is provably minimum.
    The result is exactly what enumerating every merge with
    :func:`merged_dichotomy_masks` and covering with
    :func:`~repro.util.setcover.minimum_set_cover` (``exact=False``)
    chooses, by two facts:

    1. **Essentials without enumeration.**  Seed ``k`` is covered by
       exactly one maximal merge iff the closed neighbourhood of vertex
       ``2k`` is a clique.  That clique, taken in the mirror orientation
       that holds its lowest seed's even vertex, is the only merge that
       covers ``k``.  The set cover takes every such merge first, so its
       ``useful`` masks are coverage minus what those merges cover; when
       they cover every seed the cover is minimum.
    2. **Greedy with dominance and ties.**  Each greedy round takes the
       largest gain among the undominated candidates, lowest candidate
       index (that is, lowest :func:`merge_key`) first.  That is: let
       ``M`` be every canonical maximal clique of the greatest weight,
       where a vertex weighs 1 while its seed is uncovered
       (:func:`heaviest_merges`).  Drop each member of ``M`` another
       member dominates, by the static ``useful`` masks and the set
       cover's predicate ``ui | uj == uj and (ui != uj or j < i)``, and
       take the lowest key left.  ``M`` is enough: a dominator of a
       largest-gain candidate gains at least as much, so it is in ``M``.
    """
    graph = orientation_graph(seeds, bit_of)
    lefts, rights, compatible = graph
    even = (1 << len(compatible)) // 3

    def seeds_of(clique: int) -> int:
        """Seed ``k`` of the clique as bit ``2k``."""
        return (clique | clique >> 1) & even

    # Fact 1: a closed neighbourhood that is a clique is an essential
    # merge (two seeds' neighbourhoods may be one merge's mirror images).
    essential: dict[tuple[int, int], int] = {}
    for v in range(0, len(compatible), 2):
        closed = compatible[v] | 1 << v
        if all(
            closed & ~compatible[u] == 1 << u
            for u in iter_bits(closed ^ 1 << v)
        ):
            left = right = 0
            for u in iter_bits(closed):
                left |= lefts[u]
                right |= rights[u]
            if left & -left > right & -right:
                left, right = right, left
            essential[left, right] = closed
    chosen = list(essential)
    uncovered = even
    for clique in essential.values():
        uncovered &= ~seeds_of(clique)
    exact = not uncovered

    # Fact 2, one round per chosen merge.
    core = uncovered  # the seeds the static ``useful`` masks keep
    while uncovered:
        weighted = uncovered | uncovered << 1
        heaviest = heaviest_merges(graph, weighted, weighted)
        # Lowest key per distinct useful mask; the first key whose mask
        # has no strict superset among the others is undominated.
        first: dict[int, tuple[int, int, int]] = {}
        for merge in sorted(heaviest, key=merge_key):
            first.setdefault(seeds_of(merge[2]) & core, merge)
        masks = list(first)
        for mask, merge in first.items():
            if not any(mask | m == m and m != mask for m in masks):
                break
        chosen.append(merge[:2])
        uncovered &= ~seeds_of(merge[2])

    chosen.sort(key=merge_key)
    return chosen, exact


def maximal_merged_dichotomies(seeds: list[Dichotomy]) -> list[Dichotomy]:
    """All maximal merges of pairwise-compatible seed orientations.

    Both orientations of every seed participate (the seeds are
    canonicalised and deduplicated first); the result is deduplicated up
    to orientation and sorted by block names.  Each returned dichotomy
    corresponds to one candidate state variable.
    """
    unique = list(dict.fromkeys(seed.canonical() for seed in seeds))
    bit_of = state_bits(unique)
    states = sorted(bit_of)
    return [
        dichotomy_of(left, right, states)
        for left, right, _ in merged_dichotomy_masks(unique, bit_of)
    ]
