"""Differential pins for the state-level merge searches.

:meth:`~repro.assign.dichotomy.StateSearch.heaviest` finds maximal merges by
branch-and-bound over states, each greedy round of
:func:`~repro.assign.dichotomy.greedy_merge_cover` walks left blocks in
key order (:meth:`~repro.assign.dichotomy.StateSearch.greedy_round`),
and the set-up builds the orientation graph and the seed containment
test from per-state incidence rows.  These tests hold them against the
pairwise and Bron-Kerbosch oracles of :mod:`tests.assign.oracle`: every
merge enumerated, random weighted rounds, random greedy rounds, and the
covers a sweep of seeded chain tables chooses.
"""

import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.assign import dichotomy
from repro.assign.dichotomy import (
    StateSearch,
    greedy_merge_cover,
    merged_dichotomy_masks,
    orientation_blocks,
    state_bits,
    state_incidence,
)
from repro.assign.tracey import absorb_seeds, seed_dichotomies
from repro.bench import benchmark
from repro.bench.suite import random_flow_table
from repro.logic.bitset import iter_bits

from ..strategies import normal_mode_tables
from .oracle import (
    enumerated_greedy,
    oracle_candidates,
    oracle_merges,
    pairwise_absorb,
    pairwise_graph,
)


def setup(table, uniqueness=True):
    """The seeds, their state bits and ``(lefts, rights, compatible)``
    of the orientation graph, in :func:`pairwise_graph`'s form."""
    seeds = seed_dichotomies(table, uniqueness=uniqueness)
    bit_of = state_bits(seeds)
    lefts, rights = orientation_blocks(seeds, bit_of)
    compatible = StateSearch(lefts, rights).compatible()
    return seeds, bit_of, (lefts, rights, compatible)


@given(normal_mode_tables(max_states=6), st.booleans())
@settings(max_examples=80, deadline=None)
def test_every_merge_matches_the_oracle(table, uniqueness):
    seeds, _, graph = setup(table, uniqueness)
    every = (1 << 2 * len(seeds)) - 1
    assert StateSearch(*graph[:2]).heaviest(0, every) == oracle_merges(
        graph, 0, every
    )


@given(normal_mode_tables(max_states=6), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_weighted_rounds_match_the_oracle(table, uniqueness, data):
    """A weighted search returns one of the oracle's heaviest merges,
    or every one of them when they weigh 0."""
    seeds, _, graph = setup(table, uniqueness)
    assume(seeds)
    indices = st.sets(st.integers(0, len(seeds) - 1), min_size=1)
    weighted = sum(3 << 2 * k for k in data.draw(indices))
    roots = data.draw(
        st.one_of(
            st.just(weighted),
            st.just((1 << 2 * len(seeds)) - 1),
            indices.map(lambda ks: sum(3 << 2 * k for k in ks)),
        )
    )
    found = StateSearch(*graph[:2]).heaviest(weighted, roots)
    expected = oracle_merges(graph, weighted, roots)
    if (expected[0][2] & weighted).bit_count():
        assert len(found) == 1 and found[0] in expected
    else:
        assert found == expected


def seeds_of(clique, even):
    """Seed ``k`` of a clique as bit ``2k``."""
    return (clique | clique >> 1) & even


def oracle_round(graph, weighted, core):
    """A greedy round by listing every tie: the lowest key per core
    mask, then the first mask no other strictly contains."""
    even = (1 << len(graph[0])) // 3
    first = {}
    for merge in oracle_merges(graph, weighted, weighted):
        first.setdefault(seeds_of(merge[2], even) & core, merge)
    for mask, merge in first.items():
        if not any(mask | m == m != mask for m in first):
            return merge


@given(normal_mode_tables(max_states=6), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_greedy_rounds_match_the_oracle(table, uniqueness, data):
    seeds, _, graph = setup(table, uniqueness)
    assume(seeds)
    seed = st.integers(0, len(seeds) - 1)
    uncovered = sum(1 << 2 * k for k in data.draw(st.sets(seed, min_size=1)))
    core = uncovered | sum(1 << 2 * k for k in data.draw(st.sets(seed)))
    weighted = uncovered | uncovered << 1
    left, right, clique = StateSearch(graph[0], graph[1]).greedy_round(
        weighted, core
    )
    expected = oracle_round(graph, weighted, core)
    even = (1 << len(graph[0])) // 3
    assert (left, right) == expected[:2]
    assert seeds_of(clique, even) == seeds_of(expected[2], even)


@given(normal_mode_tables(max_states=6), st.booleans())
@settings(max_examples=80, deadline=None)
def test_every_merge_is_fixed_by_its_left_block(table, uniqueness):
    """Fact A: ``R`` is the union of the right blocks of the
    orientations whose left block lies in ``L`` and whose right block
    avoids it, and those orientations are the clique's."""
    seeds, bit_of, graph = setup(table, uniqueness)
    lefts, rights, _ = graph
    even = (1 << len(lefts)) // 3
    for left, right, clique in oracle_candidates(seeds, bit_of):
        inside = union = 0
        for v, (lv, rv) in enumerate(zip(lefts, rights)):
            if lv | left == left and not rv & left:
                inside |= 1 << v
                union |= rv
        assert union == right
        assert seeds_of(inside, even) == seeds_of(clique, even)


@given(normal_mode_tables(max_states=6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_set_up_matches_the_pairwise_loops(table, uniqueness):
    seeds, bit_of, graph = setup(table, uniqueness)
    assert graph == pairwise_graph(seeds, bit_of)
    # Blocks repeat, nest and mirror each other before absorption.
    doubled = seeds + [seed.reversed() for seed in seeds]
    assert absorb_seeds(doubled) == pairwise_absorb(doubled)


@pytest.mark.parametrize("name", ["lion9", "train11"])
def test_paper_tables_enumerate_as_the_oracle(name):
    seeds, bit_of, graph = setup(benchmark(name))
    every = (1 << 2 * len(seeds)) - 1
    assert merged_dichotomy_masks(seeds, bit_of) == oracle_merges(
        graph, 0, every
    )


@pytest.mark.parametrize("positions", [10, 11, 12, 13, 14])
@pytest.mark.parametrize("seed", range(1, 8))
def test_seeded_chains_choose_the_oracle_cover(positions, seed):
    table = random_flow_table(positions, seed)
    for uniqueness in (True, False):
        seeds, bit_of, _ = setup(table, uniqueness)
        assert greedy_merge_cover(seeds, bit_of) == enumerated_greedy(
            seeds, oracle_candidates(seeds, bit_of)
        ), uniqueness


def test_one_set_up_per_cover(monkeypatch):
    """The incidence rows are built once per cover, not once per round."""
    seeds, bit_of, _ = setup(random_flow_table(17))
    calls = []

    def spy(lefts, rights):
        calls.append(len(lefts))
        return state_incidence(lefts, rights)

    monkeypatch.setattr(dichotomy, "state_incidence", spy)
    chosen, _ = greedy_merge_cover(seeds, bit_of)
    assert len(chosen) == 5
    assert calls == [2 * len(seeds)]


def count_nodes(search, *args):
    """Calls of the state searches' recursive ``place`` and ``walk``,
    one per tree node."""
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code in codes:
            nodes += 1

    codes = {
        c
        for method in (
            StateSearch.heaviest, StateSearch.greedy_round, StateSearch.extends
        )
        for c in method.__code__.co_consts
        if getattr(c, "co_name", None) in ("place", "walk")
    }
    assert len(codes) == 3
    sys.setprofile(profile)
    try:
        search(*args)
    finally:
        sys.setprofile(None)
    return nodes


def test_search_tree_size_is_pinned():
    """Every cut pays: each one removed grows the tree past its pin."""
    seeds, bit_of, graph = setup(random_flow_table(13))
    every = (1 << 2 * len(seeds)) - 1
    assert count_nodes(StateSearch(*graph[:2]).heaviest, 0, every) <= 11437
    assert count_nodes(greedy_merge_cover, seeds, bit_of) <= 3677


def test_root_cut_tree_size_is_pinned():
    """Cut 4 pays on the 20-state chain: without it, the last rounds'
    searches walk every merge that can no longer hold an uncovered
    seed (804,597 nodes)."""
    seeds, bit_of, _ = setup(random_flow_table(20))
    assert count_nodes(greedy_merge_cover, seeds, bit_of) <= 55174
