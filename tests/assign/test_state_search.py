"""Differential pins for the state-level merge search.

:func:`~repro.assign.dichotomy.heaviest_merges` finds maximal merges by
branch-and-bound over states, and the set-up builds the orientation
graph and the seed containment test from per-state incidence rows.
These tests hold all three against the pairwise and Bron-Kerbosch
oracles of :mod:`tests.assign.oracle`: every merge enumerated, random
weighted rounds, and the covers a sweep of seeded chain tables chooses.
"""

import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.assign import dichotomy
from repro.assign.dichotomy import (
    greedy_merge_cover,
    heaviest_merges,
    merge_key,
    merged_dichotomy_masks,
    orientation_graph,
    state_bits,
)
from repro.assign.tracey import absorb_seeds, seed_dichotomies
from repro.bench import benchmark
from repro.bench.suite import random_flow_table

from ..strategies import normal_mode_tables
from .oracle import bron_kerbosch_merges, pairwise_absorb, pairwise_graph


def oracle_merges(graph, weighted, roots):
    """The oracle's merges in the search's (``merge_key``) order."""
    return sorted(bron_kerbosch_merges(graph, weighted, roots), key=merge_key)


def setup(table, uniqueness=True):
    seeds = seed_dichotomies(table, uniqueness=uniqueness)
    bit_of = state_bits(seeds)
    return seeds, bit_of, orientation_graph(seeds, bit_of)


@given(normal_mode_tables(max_states=6), st.booleans())
@settings(max_examples=80, deadline=None)
def test_every_merge_matches_the_oracle(table, uniqueness):
    seeds, _, graph = setup(table, uniqueness)
    every = (1 << 2 * len(seeds)) - 1
    assert heaviest_merges(graph, 0, every) == oracle_merges(graph, 0, every)


@given(normal_mode_tables(max_states=6), st.booleans(), st.data())
@settings(max_examples=80, deadline=None)
def test_weighted_rounds_match_the_oracle(table, uniqueness, data):
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
    assert heaviest_merges(graph, weighted, roots) == oracle_merges(
        graph, weighted, roots
    )


@given(normal_mode_tables(max_states=6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_set_up_matches_the_pairwise_loops(table, uniqueness):
    seeds = seed_dichotomies(table, uniqueness=uniqueness)
    bit_of = state_bits(seeds)
    assert orientation_graph(seeds, bit_of) == pairwise_graph(seeds, bit_of)
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


@pytest.mark.parametrize("positions", [12, 13, 14])
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_seeded_chains_choose_the_oracle_cover(positions, seed, monkeypatch):
    seeds, bit_of, _ = setup(random_flow_table(positions, seed))
    searched = greedy_merge_cover(seeds, bit_of)
    monkeypatch.setattr(dichotomy, "heaviest_merges", oracle_merges)
    assert searched == greedy_merge_cover(seeds, bit_of)


def count_nodes(search, *args):
    """Calls of the search's recursive ``place``, one per tree node."""
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code is place_code:
            nodes += 1

    place_code = next(
        c for c in heaviest_merges.__code__.co_consts
        if getattr(c, "co_name", None) == "place"
    )
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
    assert count_nodes(heaviest_merges, graph, 0, every) <= 11437
    assert count_nodes(greedy_merge_cover, seeds, bit_of) <= 9470
