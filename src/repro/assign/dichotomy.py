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

Two more facts make the clique search cheap:

* **A merge is fixed by its blocks.**  A maximal clique with merge
  ``(L; R)`` holds exactly the orientations whose blocks lie inside
  ``L`` and ``R`` — any such orientation is compatible with all its
  members.  So the search runs over *states* (17 on the largest chain
  table in the benchmarks) rather than seed orientations (296 there):
  each state goes into ``L``, ``R`` or neither, the first one placed
  into ``L`` (the canonical side, so each mirror pair is met once),
  and exact cuts on maximality, support and weight prune the tree
  (:func:`heaviest_merges`).
* **Coverage by maximality.**  The same fact gives the coverage: the
  merge covers a seed exactly when the clique holds one of its
  orientations, and it needs no pass over candidates and seeds.

The set-up's pair tests (which orientations merge, which seed holds
another) are ANDs and ORs over :func:`state_incidence` rows, so the
set-up is linear in the blocks rather than quadratic in the seeds.
Past a few dozen seeds there are thousands of maximal merges, and the
greedy cover keeps a handful; :func:`greedy_merge_cover` finds those
with one maximum-weight search per chosen merge instead.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import StateAssignmentError
from ..logic.bitset import iter_bits, mask_of


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
    return heaviest_merges(
        orientation_graph(seeds, bit_of), 0, roots=(1 << 2 * len(seeds)) - 1
    )


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
    It is the complement of the :func:`state_incidence` rows of ``v``'s
    states, so the graph costs one pass over the blocks, not one test
    per vertex pair.
    """
    lefts: list[int] = []
    rights: list[int] = []
    for seed in seeds:
        left = block_mask(seed.left, bit_of)
        right = block_mask(seed.right, bit_of)
        lefts += (left, right)
        rights += (right, left)
    on_left, on_right = state_incidence(lefts, rights)
    every = (1 << len(lefts)) - 1
    compatible = []
    for v, (left, right) in enumerate(zip(lefts, rights)):
        clash = 1 << v
        for s in iter_bits(right):
            clash |= on_left[s]
        for s in iter_bits(left):
            clash |= on_right[s]
        compatible.append(every ^ clash)
    return lefts, rights, compatible


def state_incidence(
    lefts: list[int], rights: list[int]
) -> tuple[list[int], list[int]]:
    """``(on_left, on_right)``: per state, the bitset of the blocks that
    hold it.

    Bit ``v`` of ``on_left[s]`` is set when state ``s`` lies in
    ``lefts[v]``, and of ``on_right[s]`` when it lies in ``rights[v]``.
    Both lists run over every state bit up to the highest one used.
    """
    top = 0
    for left, right in zip(lefts, rights):
        top |= left | right
    on_left = [0] * top.bit_length()
    on_right = [0] * top.bit_length()
    for v, (left, right) in enumerate(zip(lefts, rights)):
        bit = 1 << v
        for s in iter_bits(left):
            on_left[s] |= bit
        for s in iter_bits(right):
            on_right[s] |= bit
    return on_left, on_right


def heaviest_merges(
    graph: tuple[list[int], list[int], list[int]],
    weighted: int,
    roots: int,
) -> list[tuple[int, int, int]]:
    """The canonical maximal merges of greatest weight, in
    :func:`merge_key` order.

    A clique weighs the number of its vertices in the bitset
    ``weighted``.  Of the canonical maximal cliques that hold a vertex
    of ``roots``, returns every one of the greatest weight, as ``(left,
    right, clique)`` in the form of :func:`merged_dichotomy_masks`,
    except that ``clique`` is the mirror image that holds the even
    vertex of its lowest root seed.  Both bitsets hold both orientations
    of a seed or neither.  With ``weighted == 0`` and every vertex a
    root, that is every maximal clique, each in the orientation that
    holds its lowest vertex.

    The search branches on states, not vertices: a maximal clique is
    the set of orientations that lie *inside* its merge ``(L; R)``, so
    it is fixed by its two blocks, and a table has far fewer states
    than orientations.  States are decided in bit order, each put into
    ``L``, ``R`` or neither; the first state placed goes to ``L``, the
    canonical side, so each mirror pair is met once.  A node carries
    ``dead``, the orientations with a decided state outside its block
    (they can no longer lie inside), and ``clash``, the orientations
    whose blocks meet the opposite blocks placed so far (they can no
    longer merge).  Three exact cuts prune it:

    1. **Maximality.**  An orientation whose states are all decided,
       that merges with ``(L; R)`` but is not inside, would extend the
       clique.
    2. **Support.**  A state placed in ``L`` (or ``R``) needs an
       orientation that is not dead and holds it on that side, or no
       inside block reaches it.
    3. **Weight.**  A node whose weighted seeds with an orientation not
       yet dead fall *strictly* below the best weight so far is cut,
       so every tie survives.

    A leaf is a maximal merge when its inside set is non-empty, holds a
    root, and its blocks' union is exactly ``(L; R)`` (closure: a state
    can lose its support after it is placed).
    """
    lefts, rights, _ = graph
    on_left, on_right = state_incidence(lefts, rights)
    last = len(on_left)
    every = (1 << len(lefts)) - 1
    even = every // 3  # bit 2k for every seed k
    # decided[s]: the orientations whose states all lie below state s.
    decided = [0] * (last + 1)
    for v, (left, right) in enumerate(zip(lefts, rights)):
        decided[(left | right).bit_length()] |= 1 << v
    for s in range(last):
        decided[s + 1] |= decided[s]
    found: list[tuple[int, int, int]] = []
    best = 0

    def place(
        s: int, left: tuple[int, ...], right: tuple[int, ...],
        dead: int, clash: int,
    ) -> None:
        nonlocal best
        if dead & ~clash & decided[s]:  # cut 1
            return
        if best:  # cut 3
            alive = weighted & ~dead
            if ((alive | alive >> 1) & even).bit_count() < best:
                return
        if s == last:
            inside = every ^ dead
            if not inside & roots:
                return
            for t in left:
                if not on_left[t] & inside:
                    return
            for t in right:
                if not on_right[t] & inside:
                    return
            # Cut 3 let no lighter leaf through.
            heavy = inside & weighted
            weight = ((heavy | heavy >> 1) & even).bit_count()
            if weight > best:
                best = weight
                found.clear()
            lowest = inside & roots
            if not lowest & -lowest & even:  # hold the root's even vertex
                inside = (inside & even) << 1 | (inside >> 1) & even
            found.append((left, right, inside))
            return
        into_left, into_right = on_left[s], on_right[s]
        # Cut 2 on each placement; "neither" kills both rows.
        gone = dead | into_right
        if into_left & ~gone:
            place(s + 1, left + (s,), right, gone, clash | into_right)
        if left:
            gone = dead | into_left
            if into_right & ~gone:
                place(s + 1, left, right + (s,), gone, clash | into_left)
        place(s + 1, left, right, dead | into_left | into_right, clash)

    place(0, (), (), 0, 0)
    found.sort()  # state positions sort as merge_key's do
    return [
        (mask_of(left), mask_of(right), clique)
        for left, right, clique in found
    ]


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
        # Lowest key per distinct useful mask (the merges come in key
        # order); the first key whose mask has no strict superset among
        # the others is undominated.
        first: dict[int, tuple[int, int, int]] = {}
        for merge in heaviest:
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
