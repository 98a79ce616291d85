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
    the list is sorted as the state-name lists of the blocks sort.
    """
    lefts: list[int] = []
    rights: list[int] = []
    for seed in seeds:
        left = block_mask(seed.left, bit_of)
        right = block_mask(seed.right, bit_of)
        lefts += (left, right)
        rights += (right, left)
    n = len(lefts)

    # compatible[v]: the vertices whose left block avoids v's right block
    # and whose right block avoids v's left block.
    compatible = [0] * n
    for i in range(n):
        li, ri = lefts[i], rights[i]
        for j in range(i + 1, n):
            if not (li & rights[j]) and not (ri & lefts[j]):
                compatible[i] |= 1 << j
                compatible[j] |= 1 << i

    found: list[tuple[int, int, int]] = []

    def expand(clique: int, left: int, right: int, p: int, x: int) -> None:
        if not p:
            if not x:  # maximal; canonical puts the lowest state on the left
                if left & -left > right & -right:
                    left, right = right, left
                found.append((left, right, clique))
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
                   p & nbrs, x & nbrs)
            p ^= low
            x |= low
            branch ^= low

    # Only cliques whose lowest vertex is a seed in its given orientation:
    # the other half are their mirror images, with the same canonical merge.
    for v in range(0, n, 2):
        nbrs = compatible[v]
        later = nbrs >> (v + 1) << (v + 1)
        expand(1 << v, lefts[v], rights[v], later, nbrs ^ later)

    found.sort(key=lambda c: (tuple(iter_bits(c[0])), tuple(iter_bits(c[1]))))
    return found


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
