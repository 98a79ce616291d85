"""Tracey USTT state assignment (paper Step 3).

The algorithm, following Tracey (1966) as the paper cites:

1. **Seed dichotomies.**  For every input column and every pair of
   transitions ``s -> S``, ``t -> T`` (stable entries count as ``s -> s``)
   with ``S != T``, emit the seed ``({s, S}; {t, T})``.  A state variable
   constant across each block with opposite values keeps the two
   transition subcubes disjoint, so no critical race between them exists.
   Uniqueness seeds ``({s}; {t})`` for every state pair guarantee the
   paper's Section 3 requirement that "each state must have a unique
   bit-vector assignment".

2. **Merged dichotomies.**  Maximal merges of compatible seed
   orientations (:func:`~repro.assign.dichotomy.merged_dichotomy_masks`)
   are the candidate state variables; each covers the seeds its clique
   holds.  A maximal merge is fixed by its blocks ``(L; R)``, so they
   are found by branch-and-bound over the states, each put into ``L``,
   ``R`` or neither (:meth:`~repro.assign.dichotomy.StateSearch.heaviest`).

3. **Covering.**  A minimum family of merged dichotomies covering every
   seed gives the fewest state variables — the paper's "general algorithm
   that will generate the smallest number of state variables".  The
   rule is three-way.  Up to :data:`SEARCH_ABOVE_SEEDS` seeds the merges
   are enumerated, and
   :func:`~repro.util.setcover.minimum_set_cover` solves the cover
   exactly when its cyclic core is small (every paper table but lion9
   and train11).  Where it would go greedy
   (:func:`~repro.util.setcover.goes_greedy`), and above
   :data:`SEARCH_ABOVE_SEEDS` seeds without enumerating,
   :func:`~repro.assign.dichotomy.greedy_merge_cover` finds the same
   greedy cover merge by merge: each round finds the greatest weight
   (seeds still uncovered), walks the left blocks of the merges in key
   order and stops at the first heaviest merge no other dominates.

4. **Code construction.**  Chosen dichotomy ``i`` becomes variable
   ``y{i+1}``: 0 on its left block, 1 on its right block.  States in
   neither block take 0 — any filling is valid because every constraint's
   participating states already lie inside the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from ..errors import StateAssignmentError
from ..flowtable.table import FlowTable
from ..logic.bitset import iter_bits
from ..util.setcover import goes_greedy, minimum_set_cover
from .dichotomy import (
    Dichotomy,
    StateSearch,
    block_mask,
    dichotomy_of,
    greedy_merge_cover,
    orientation_blocks,
    state_bits,
    state_incidence,
)
from .encoding import StateEncoding

#: Above this many seeds (after :func:`absorb_seeds`) the greedy cover is
#: searched merge by merge instead of enumerating every maximal merge.
SEARCH_ABOVE_SEEDS = 64


@dataclass(frozen=True)
class AssignmentResult:
    """The encoding plus the artifacts that produced it."""

    encoding: StateEncoding
    seeds: tuple[Dichotomy, ...]
    chosen: tuple[Dichotomy, ...]
    exact: bool


def seed_dichotomies(
    table: FlowTable, uniqueness: bool = True
) -> list[Dichotomy]:
    """Seed dichotomies of the table (transition pairs + uniqueness).

    Raises :class:`StateAssignmentError` when a transition pair's blocks
    intersect — impossible in a normal-mode table, and fatal for USTT
    assignment otherwise.
    """
    seeds: list[Dichotomy] = []
    seen: set[tuple[frozenset[str], frozenset[str]]] = set()

    def note(left: set[str], right: set[str]) -> None:
        if left & right:
            raise StateAssignmentError(
                f"transition blocks intersect ({sorted(left & right)}); "
                f"the table is not in normal mode"
            )
        d = Dichotomy(frozenset(left), frozenset(right)).canonical()
        key = (d.left, d.right)
        if key not in seen:
            seen.add(key)
            seeds.append(d)

    for column in table.columns:
        moves: list[tuple[str, str]] = []
        for state in table.states:
            dest = table.next_state(state, column)
            if dest is not None:
                moves.append((state, dest))
        for (s, dest_s), (t, dest_t) in combinations(moves, 2):
            if dest_s == dest_t:
                continue
            note({s, dest_s}, {t, dest_t})

    if uniqueness:
        for s, t in combinations(table.states, 2):
            note({s}, {t})
    return absorb_seeds(seeds)


def absorb_seeds(seeds: list[Dichotomy]) -> list[Dichotomy]:
    """Drop seeds whose blocks are contained (blockwise) in another seed.

    Any variable covering the containing seed covers the contained one,
    so removing contained seeds changes neither the covering problem's
    optimum nor its feasible solutions — it only shrinks the merge graph,
    which dominates the assignment runtime on the larger machines.
    """
    # Equal seeds (up to orientation) share a key; the first one stays.
    bit_of = state_bits(seeds)
    first: dict[tuple[int, int], Dichotomy] = {}
    for d in seeds:
        left, right = block_mask(d.left, bit_of), block_mask(d.right, bit_of)
        first.setdefault(min((left, right), (right, left)), d)
    # Seed j holds seed i when i's blocks lie in j's, in the same
    # orientation (``same``) or swapped (``opposite``): one AND of
    # incidence rows per state of i.
    on_left, on_right = state_incidence(
        [left for left, _ in first], [right for _, right in first]
    )
    every = (1 << len(first)) - 1
    kept: list[Dichotomy] = []
    for i, ((left, right), d) in enumerate(first.items()):
        same = opposite = every
        for s in iter_bits(left):
            same &= on_left[s]
            opposite &= on_right[s]
        for s in iter_bits(right):
            same &= on_right[s]
            opposite &= on_left[s]
        if same | opposite == 1 << i:  # only seed i holds seed i
            kept.append(d)
    return kept


def assign_states(table: FlowTable) -> AssignmentResult:
    """Compute a USTT encoding for ``table``.

    The encoding has the fewest state variables when the result's
    ``exact`` flag is true.  A covering problem whose cyclic core is too
    large for the exact search goes greedy (``exact`` false) and may use
    more; of the paper tables, lion9 and train11 do.

    The cover is built one of three ways, by a rule on the input:

    * a table with more than :data:`SEARCH_ABOVE_SEEDS` (64) seeds
      after :func:`absorb_seeds` takes
      :func:`~repro.assign.dichotomy.greedy_merge_cover` without
      enumerating the merges;
    * a smaller one enumerates every maximal merge with the unweighted
      state search, and asks :func:`~repro.util.setcover.goes_greedy`
      whether :func:`~repro.util.setcover.minimum_set_cover` over them
      would go greedy (more than ``EXACT_LIMIT`` undominated merges
      after the essential ones).  If it would, the table takes
      :func:`~repro.assign.dichotomy.greedy_merge_cover` too;
    * otherwise the set cover covers the enumerated merges, exactly.

    :func:`~repro.assign.dichotomy.greedy_merge_cover` finds the set
    cover's greedy cover merge by merge and reports ``exact`` false
    unless the essential merges alone cover every seed.  Each of its
    rounds takes the greatest weight from a branch-and-bound over the
    states, then walks the merges' left blocks in key order (a maximal
    merge is fixed by its left block) and stops at the first heaviest
    merge that no clique dominates, so it never lists the tied merges.
    All three build one :class:`~repro.assign.dichotomy.StateSearch`.
    For scale: lion9 has 42 seeds and 86 undominated merges, train11
    58 and 606 (both take the search), the 13- to 17-state chain
    tables 80-148 seeds.

    A single-state table degenerates to one variable constant 0 (some
    feedback signal must exist for the architecture to instantiate).
    """
    if table.num_states == 1:
        encoding = StateEncoding(("y1",), {table.states[0]: 0})
        return AssignmentResult(encoding, (), (), True)

    seeds = seed_dichotomies(table)
    bit_of = state_bits(seeds)
    states = sorted(bit_of)
    search = StateSearch(*orientation_blocks(seeds, bit_of))
    # Every maximal merge, as merged_dichotomy_masks lists them; a merge
    # covers seed k when its clique holds vertex 2k or 2k+1.
    candidates = (
        search.heaviest(0, search.every)
        if len(seeds) <= SEARCH_ABOVE_SEEDS
        else None
    )
    if candidates is None or goes_greedy(
        [(c | c >> 1) & search.even for _, _, c in candidates]
    ):
        merges, exact = greedy_merge_cover(seeds, bit_of, search)
    else:
        covered = [
            frozenset(v >> 1 for v in iter_bits(c)) for _, _, c in candidates
        ]
        cover = minimum_set_cover(set(range(len(seeds))), covered)
        merges = [candidates[i][:2] for i in cover.chosen]
        exact = cover.exact
    chosen = [dichotomy_of(left, right, states) for left, right in merges]

    # Variable i is 1 on chosen[i]'s right block; every other state takes 0.
    codes = {
        state: sum(1 << i for i, d in enumerate(chosen) if state in d.right)
        for state in table.states
    }
    variables = tuple(f"y{i + 1}" for i in range(len(chosen)))
    encoding = StateEncoding(variables, codes)
    return AssignmentResult(encoding, tuple(seeds), tuple(chosen), exact)
