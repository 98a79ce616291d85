"""Pairwise and Bron-Kerbosch oracles for the Tracey state search.

:mod:`repro.assign.dichotomy` finds maximal merges by branch-and-bound
over states, builds its orientation graph (and
:func:`~repro.assign.tracey.absorb_seeds` its containment test) from
per-state incidence rows, and finds each greedy round's merge by a
key-ordered walk over left blocks, and
:func:`~repro.assign.tracey.assign_states` covers with that search
wherever the set cover over every merge would go greedy.  These are
the independent searches the differential tests and the CI step hold
it against: the pairwise loops over seeds and orientations, a
Bron-Kerbosch clique search over orientation vertices, and the set
cover over every merge the state search enumerates.  They are slow on
purpose and live only here.
"""

from repro.assign.dichotomy import (
    block_mask,
    dichotomy_of,
    merge_key,
    merged_dichotomy_masks,
    state_bits,
)
from repro.assign.tracey import SEARCH_ABOVE_SEEDS, seed_dichotomies
from repro.logic.bitset import iter_bits
from repro.util.setcover import minimum_set_cover


def pairwise_graph(seeds, bit_of):
    """``(lefts, rights, compatible)`` of the seed-orientation graph:
    ``orientation_blocks`` and ``StateSearch.compatible`` by one
    compatibility test per vertex pair."""
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


def pairwise_absorb(seeds):
    """``absorb_seeds`` by one containment test per seed pair."""
    bit_of = state_bits(seeds)
    first = {}
    for d in seeds:
        left, right = block_mask(d.left, bit_of), block_mask(d.right, bit_of)
        first.setdefault(min((left, right), (right, left)), d)
    kept = []
    for (al, ar), d in first.items():
        for bl, br in first:
            inside = (al | bl == bl and ar | br == br) or (
                al | br == br and ar | bl == bl
            )
            if inside and (al, ar) != (bl, br):
                break
        else:
            kept.append(d)
    return kept


def bron_kerbosch_merges(graph, weighted, roots):
    """Every canonical maximal merge of greatest weight, by a clique
    search over orientation vertices.

    ``StateSearch.heaviest``'s contract, unsorted, except that every
    tie is returned (the state search returns one merge when the
    greatest weight is positive).  Bron-Kerbosch with Tomita pivots on
    vertex bitsets, started once per root seed ``k`` at vertex ``2k``
    with the lower roots' vertices excluded, so each clique is found
    once per mirror pair.  A node whose clique weight plus the size of
    a greedy colouring of its weighted candidates falls *strictly*
    below the best weight so far is cut (Tomita & Seki's MCQ bound: a
    clique takes at most one vertex per colour class), so every tie
    survives.
    """
    lefts, rights, compatible = graph
    found = []
    best = 0

    def colours(p, need):
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

    def expand(clique, left, right, weight, p, x):
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

    even = (1 << len(lefts)) // 3  # bit 2k for every seed k
    for v in iter_bits(roots & even):
        nbrs = compatible[v]
        lower = nbrs & roots & ((1 << v) - 1)
        expand(1 << v, lefts[v], rights[v], weighted >> v & 1,
               nbrs ^ lower, lower)
    return found


def oracle_merges(graph, weighted, roots):
    """The Bron-Kerbosch merges in the search's (``merge_key``) order."""
    return sorted(bron_kerbosch_merges(graph, weighted, roots), key=merge_key)


def oracle_candidates(seeds, bit_of):
    """Every canonical maximal merge, by Bron-Kerbosch over the
    pairwise graph: ``merged_dichotomy_masks`` with no state search."""
    every = (1 << 2 * len(seeds)) - 1
    return oracle_merges(pairwise_graph(seeds, bit_of), 0, every)


def enumerated_cover(seeds, candidates, exact=None):
    """The set cover of the seeds by ``candidates`` (``(left, right,
    clique)`` in ``merge_key`` order), as chosen ``(left, right)``
    blocks and the cover's ``exact`` flag; ``exact`` as
    ``minimum_set_cover`` takes it."""
    cover = minimum_set_cover(
        set(range(len(seeds))),
        [frozenset(v >> 1 for v in iter_bits(c)) for _, _, c in candidates],
        exact=exact,
    )
    return [candidates[i][:2] for i in cover.chosen], cover.exact


def enumerated_greedy(seeds, candidates):
    """The set cover's greedy cover, as ``greedy_merge_cover`` returns
    it."""
    return enumerated_cover(seeds, candidates, exact=False)


def enumerated_assignment(table):
    """``assign_states`` by enumerating every maximal merge and covering
    with ``minimum_set_cover``: ``(seeds, chosen, codes, exact)``.

    The cover is the set cover's own choice (exact when its core is
    small enough, greedy otherwise) up to ``SEARCH_ABOVE_SEEDS`` seeds,
    and its greedy cover above.  Codes follow ``assign_states``: a
    variable is 1 on its dichotomy's right block.
    """
    seeds = seed_dichotomies(table)
    bit_of = state_bits(seeds)
    states = sorted(bit_of)
    merges, exact = enumerated_cover(
        seeds,
        merged_dichotomy_masks(seeds, bit_of),
        exact=False if len(seeds) > SEARCH_ABOVE_SEEDS else None,
    )
    chosen = [dichotomy_of(left, right, states) for left, right in merges]
    codes = {
        state: sum(1 << i for i, d in enumerate(chosen) if state in d.right)
        for state in table.states
    }
    return tuple(seeds), tuple(chosen), codes, exact
