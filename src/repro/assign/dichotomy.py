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
  (:meth:`StateSearch.heaviest`).
* **Coverage by maximality.**  The same fact gives the coverage: the
  merge covers a seed exactly when the clique holds one of its
  orientations, and it needs no pass over candidates and seeds.

The set-up's pair tests (which orientations merge, which seed holds
another) are ANDs and ORs over :func:`state_incidence` rows, so the
set-up is linear in the blocks rather than quadratic in the seeds.

Past a few dozen seeds there are thousands of maximal merges, and the
greedy cover keeps a handful; :func:`greedy_merge_cover` finds each
without listing the others (:meth:`StateSearch.greedy_round`), by two
more facts:

* **A. A maximal merge is fixed by its left block.**  ``R`` is the
  union of the right blocks of the orientations whose left block lies
  in ``L`` and whose right block avoids it.  Walking the left blocks in
  lexicographic order of their sorted states meets the merges in
  :func:`merge_key` order.
* **B. Superset masks are heaviest too.**  A merge whose seeds strictly
  contain a heaviest merge's is itself a heaviest merge, so "is this
  merge dominated?" is one search for a clique covering its seeds and
  one more.

So a round finds the greatest weight, walks the left blocks in key
order, and stops at the first heaviest merge that no clique dominates.
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
    search = StateSearch(*orientation_blocks(seeds, bit_of))
    # With no vertex weighted, every maximal clique is a heaviest one.
    return search.heaviest(0, search.every)


def merge_key(merge: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Sort key of a canonical merge ``(left, right, ...)``: its blocks'
    state bits, which sort as the blocks' state names do."""
    return tuple(iter_bits(merge[0])), tuple(iter_bits(merge[1]))


def orientation_blocks(
    seeds: list[Dichotomy], bit_of: dict[str, int]
) -> tuple[list[int], list[int]]:
    """``(lefts, rights)`` of the seed orientations: vertex ``2k`` is
    ``seeds[k]`` and vertex ``2k+1`` its reverse, with blocks packed by
    :func:`block_mask`."""
    lefts: list[int] = []
    rights: list[int] = []
    for seed in seeds:
        left = block_mask(seed.left, bit_of)
        right = block_mask(seed.right, bit_of)
        lefts += (left, right)
        rights += (right, left)
    return lefts, rights


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


class StateSearch:
    """The state-level merge searches over one family of orientations.

    ``lefts[v]`` and ``rights[v]`` are the block masks of orientation
    ``v``; vertex ``2k`` is a seed and ``2k+1`` its reverse, as
    :func:`orientation_blocks` lays them out.  The per-state
    :func:`state_incidence` rows and the tables derived from them are
    built once here, so every round of a greedy cover shares them.
    """

    def __init__(self, lefts: list[int], rights: list[int]) -> None:
        self.lefts, self.rights = lefts, rights
        on_left, on_right = state_incidence(lefts, rights)
        self.on_left, self.on_right = on_left, on_right
        self.last = last = len(on_left)
        self.every = (1 << len(lefts)) - 1
        self.even = self.every // 3  # bit 2k for every seed k
        # decided[s]: the orientations whose states all lie below state s;
        # left_from[s]: the orientations with a left-block state at or
        # above s.
        decided = [0] * (last + 1)
        for v, (left, right) in enumerate(zip(lefts, rights)):
            decided[(left | right).bit_length()] |= 1 << v
        for s in range(last):
            decided[s + 1] |= decided[s]
        left_from = [0] * (last + 1)
        for s in reversed(range(last)):
            left_from[s] = left_from[s + 1] | on_left[s]
        self.decided, self.left_from = decided, left_from

    def compatible(self) -> list[int]:
        """Per orientation ``v``, the bitset of the orientations that
        merge with it: their left block avoids ``v``'s right block and
        their right block ``v``'s left.

        It is the complement of the incidence rows of ``v``'s states,
        so the graph costs one pass over the blocks, not one test per
        vertex pair.
        """
        on_left, on_right, every = self.on_left, self.on_right, self.every
        rows = []
        for v, (left, right) in enumerate(zip(self.lefts, self.rights)):
            clash = 1 << v
            for s in iter_bits(right):
                clash |= on_left[s]
            for s in iter_bits(left):
                clash |= on_right[s]
            rows.append(every ^ clash)
        return rows

    def heaviest(
        self, weighted: int, roots: int
    ) -> list[tuple[int, int, int]]:
        """Canonical maximal merges of greatest weight, in
        :func:`merge_key` order.

        A clique weighs the number of its vertices' seeds in the bitset
        ``weighted``.  Of the canonical maximal cliques that hold a
        vertex of ``roots``, returns ones of the greatest weight, as
        ``(left, right, clique)`` in the form of
        :func:`merged_dichotomy_masks`, except that ``clique`` is the
        mirror image that holds the even vertex of its lowest root seed.
        Both bitsets hold both orientations of a seed or neither.  When
        that weight is positive, returns one merge of it (the first the
        search meets); when it is zero, returns every one.  So with
        ``weighted == 0`` and every vertex a root, that is every maximal
        clique, each in the orientation that holds its lowest vertex.

        The search branches on states, not vertices: a maximal clique is
        the set of orientations that lie *inside* its merge ``(L; R)``,
        so it is fixed by its two blocks, and a table has far fewer
        states than orientations.  States are decided in bit order, each
        put into ``L``, ``R`` or neither; the first state placed goes to
        ``L``, the canonical side, so each mirror pair is met once.  A
        node carries ``dead``, the orientations with a decided state
        outside its block (they can no longer lie inside), and
        ``clash``, the orientations whose blocks meet the opposite
        blocks placed so far (they can no longer merge).  Four exact
        cuts prune it:

        1. **Maximality.**  An orientation whose states are all decided,
           that merges with ``(L; R)`` but is not inside, would extend
           the clique.
        2. **Support.**  A state placed in ``L`` (or ``R``) needs an
           orientation that is not dead and holds it on that side, or no
           inside block reaches it.
        3. **Weight.**  Once a leaf of positive weight is found, a node
           whose weighted seeds with an orientation not yet dead cannot
           exceed the best weight so far is cut.
        4. **Roots.**  A node whose roots are all dead is cut: ``dead``
           only grows, and a leaf must hold a root.

        A leaf is a maximal merge when its inside set is non-empty, holds
        a root, and its blocks' union is exactly ``(L; R)`` (closure: a
        state can lose its support after it is placed).
        """
        on_left, on_right, decided = self.on_left, self.on_right, self.decided
        last, every, even = self.last, self.every, self.even
        found: list[tuple[int, int, int]] = []
        best = 0
        # With every vertex a root, cut 4 fires only once all are dead.
        rooted = roots != every

        def place(
            s: int, left: tuple[int, ...], right: tuple[int, ...],
            dead: int, clash: int,
        ) -> None:
            nonlocal best
            if dead & ~clash & decided[s]:  # cut 1
                return
            if rooted and not roots & ~dead:  # cut 4
                return
            if best:  # cut 3
                alive = weighted & ~dead
                if ((alive | alive >> 1) & even).bit_count() <= best:
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
                # Cut 3 let no leaf through unless it is heavier, or
                # every leaf so far weighs 0.
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

    def greedy_round(self, weighted: int, core: int) -> tuple[int, int, int]:
        """The merge a round of :func:`greedy_merge_cover` takes.

        Of the canonical maximal merges of greatest weight (a vertex
        weighs 1 when its seed's bits are in ``weighted``), returns the
        lowest in :func:`merge_key` order whose seeds in ``core`` (seed
        ``k`` as bit ``2k``) are no strict subset of another's, as
        ``(left, right, clique)`` with ``clique`` the orientations inside
        ``(left; right)``.  ``weighted`` must be non-zero and hold both
        orientations of its seeds.

        It finds that merge without listing the ties, by two facts:

        * **A. A maximal merge is fixed by its left block.**  Its right
          block is the union of the right blocks of the orientations
          whose left block lies in ``L`` and whose right block avoids
          it: each of them merges with every member of the clique, so
          maximality puts it inside.  :func:`merge_key` compares left
          blocks first, so the left blocks, walked as sorted tuples in
          lexicographic order (a block before its extensions, each
          extension by one state above its last), meet the merges in
          key order.
        * **B. A superset mask is heaviest too.**  A merge whose core
          seeds strictly contain a heaviest merge's weighs at least as
          much (the weighted seeds lie in ``core``), so it is a heaviest
          merge itself; and any clique extends to a maximal one.

        So the round takes the greatest weight from the one merge
        :meth:`heaviest` returns, walks the left blocks in key
        order (cut where the weighted seeds still alive fall below it,
        or where the state just added has no orientation left to hold
        it), and at each heaviest maximal merge asks
        :meth:`extends` whether a clique covers its core seeds and one
        more.  The first merge for which none does is the answer.
        """
        on_left, on_right = self.on_left, self.on_right
        last, every, even = self.last, self.every, self.even
        left_from = self.left_from
        dominated: dict[int, bool] = {}

        def weight(dead: int) -> int:
            """The weighted seeds with an orientation not in ``dead``."""
            alive = weighted & ~dead
            return ((alive | alive >> 1) & even).bit_count()

        [top] = self.heaviest(weighted, weighted)
        best = weight(every ^ top[2])

        def walk(
            start: int, left: tuple[int, ...], dead: int
        ) -> tuple[int, int, int] | None:
            # ``left`` so far, every state below ``start`` decided, and
            # ``dead`` the orientations that can no longer lie inside.
            if left:
                # The leaf: ``left`` is all of ``L``.
                out = dead | left_from[start]
                inside = every & ~out
                if weight(out) == best and all(
                    on_left[t] & inside for t in left
                ):
                    # Fact A gives R; then no merging orientation may
                    # lie outside.
                    right = clash = 0
                    for t in left:
                        clash |= on_right[t]
                    for s in range(left[0] + 1, last):
                        if on_right[s] & inside:
                            right |= 1 << s
                            clash |= on_left[s]
                    if not every & ~clash & ~inside:
                        mask = (inside | inside >> 1) & even & core
                        if mask not in dominated:
                            dominated[mask] = self.extends(mask, core)
                        if not dominated[mask]:
                            return mask_of(left), right, inside
            for t in range(start, last):
                into = dead | on_right[t]
                if on_left[t] & ~into and weight(into) >= best:
                    merge = walk(t + 1, left + (t,), into)
                    if merge:
                        return merge
                # A state left out of L kills the orientations it would
                # hold on the left; one below L's lowest state would
                # also break canonical form on the right.
                dead |= on_left[t] if left else on_left[t] | on_right[t]
                if weight(dead) < best:
                    break
            return None

        # Finitely many heaviest masks: one has no strict superset.
        return walk(0, (), 0)

    def extends(self, need: int, core: int) -> bool:
        """Whether one clique covers every seed of ``need`` and at least
        one more seed of ``core`` (seed ``k`` as bit ``2k``).

        A state search like :meth:`heaviest`'s with no maximality or
        weight: a node is cut once a seed of ``need``, or every other
        seed of ``core``, has no orientation left alive, so a leaf is a
        witness and the first one ends the search.
        """
        on_left, on_right = self.on_left, self.on_right
        last, every, even = self.last, self.every, self.even
        extra = core & ~need

        def place(s: int, placed: bool, dead: int) -> bool:
            alive = every & ~dead
            alive = (alive | alive >> 1) & even
            if need & ~alive or not extra & alive:
                return False
            if s == last:
                return True
            into_left, into_right = on_left[s], on_right[s]
            # A mirror image covers the same seeds: the first state
            # placed goes to the left.
            gone = dead | into_right
            if into_left & ~gone and place(s + 1, True, gone):
                return True
            if placed:
                gone = dead | into_left
                if into_right & ~gone and place(s + 1, True, gone):
                    return True
            return place(s + 1, placed, dead | into_left | into_right)

        return place(0, False, 0)


def greedy_merge_cover(
    seeds: list[Dichotomy],
    bit_of: dict[str, int],
    search: StateSearch | None = None,
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
       index (that is, lowest :func:`merge_key`) first.  That is: of
       the canonical maximal merges of the greatest weight, where a
       vertex weighs 1 while its seed is uncovered, drop each one whose
       static ``useful`` mask another's strictly contains (a merge
       with an equal mask and a lower key is taken before it), and take
       the lowest key left.  A dominator of a largest-gain candidate
       gains at least as much, so it is among them.
       :meth:`StateSearch.greedy_round` finds that merge by walking
       the left blocks in key order and stopping at the first
       undominated one, without listing the ties.

    The orientations' incidence rows and search tables are built once
    (one :class:`StateSearch`, or ``search`` when the caller built it
    over the same seeds) and every round reads them.
    """
    if search is None:
        search = StateSearch(*orientation_blocks(seeds, bit_of))
    lefts, rights, even = search.lefts, search.rights, search.even
    compatible = search.compatible()

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

    # Fact 2, one round per chosen merge; ``core`` is the seeds the
    # static ``useful`` masks keep.
    core = uncovered
    while uncovered:
        left, right, clique = search.greedy_round(
            uncovered | uncovered << 1, core
        )
        chosen.append((left, right))
        uncovered &= ~seeds_of(clique)

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
