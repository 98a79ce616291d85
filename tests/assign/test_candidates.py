"""Differential pins for the Tracey candidate enumeration.

:func:`~repro.assign.dichotomy.merged_dichotomy_masks` enumerates one
maximal clique per mirror pair and reads each candidate's coverage off
its clique.  These tests hold both shortcuts against a brute-force
oracle on small random tables, and pin the candidate counts of the
larger machines.
"""

from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign.dichotomy import (
    dichotomy_of,
    maximal_merged_dichotomies,
    merge_all,
    merged_dichotomy_masks,
    state_bits,
)
from repro.assign.tracey import seed_dichotomies
from repro.bench import benchmark
from repro.bench.suite import random_flow_table
from repro.logic.bitset import iter_bits

from ..strategies import normal_mode_tables


def oracle(seeds):
    """Canonical merge -> covered seed indices, for every maximal
    pairwise-compatible family of seed orientations.

    A compatible family lies inside the family of all orientations that
    fit the blocks ``(L; R)`` of its merge, and that family is
    compatible too.  So every maximal family is the fitting family of
    some ``(L; R)``: trying each way to put every state left, right or
    nowhere finds them all, and maximality is then checked directly.
    """
    oriented = [
        (k, d) for k, seed in enumerate(seeds) for d in (seed, seed.reversed())
    ]
    states = sorted({s for seed in seeds for s in seed.states})
    found = {}
    for sides in product("LR-", repeat=len(states)):
        left = frozenset(s for s, side in zip(states, sides) if side == "L")
        right = frozenset(s for s, side in zip(states, sides) if side == "R")
        family = [
            (k, d) for k, d in oriented if d.left <= left and d.right <= right
        ]
        members = [d for _, d in family]
        assert all(a.compatible(b) for a, b in combinations(members, 2))
        extendable = any(
            all(d.compatible(m) for m in members)
            for _, d in oriented
            if d not in members
        )
        if members and not extendable:
            found[merge_all(members).canonical()] = frozenset(
                k for k, _ in family
            )
    return found


def enumerated(seeds):
    """Canonical merge -> covered seed indices, as the enumeration says."""
    bit_of = state_bits(seeds)
    states = sorted(bit_of)
    return {
        dichotomy_of(left, right, states): frozenset(
            v >> 1 for v in iter_bits(clique)
        )
        for left, right, clique in merged_dichotomy_masks(seeds, bit_of)
    }


@given(normal_mode_tables(max_states=5), st.booleans())
@settings(max_examples=60, deadline=None)
def test_candidates_and_coverage_match_brute_force(table, uniqueness):
    seeds = seed_dichotomies(table, uniqueness=uniqueness)
    got = enumerated(seeds)
    assert got == oracle(seeds)
    # The public wrapper returns the same candidates, in name order.
    candidates = maximal_merged_dichotomies(seeds)
    assert candidates == list(got)
    assert candidates == sorted(
        candidates, key=lambda d: (sorted(d.left), sorted(d.right))
    )
    for candidate, covered in got.items():
        assert covered == {
            k for k, seed in enumerate(seeds) if candidate.covers(seed)
        }


@given(normal_mode_tables(max_states=5), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_duplicate_and_reversed_seeds_change_nothing(table, rng):
    seeds = seed_dichotomies(table)
    noisy = seeds + [rng.choice([s, s.reversed()]) for s in seeds]
    rng.shuffle(noisy)
    assert maximal_merged_dichotomies(noisy) == maximal_merged_dichotomies(
        seeds
    )
    reversed_seeds = [s.reversed() for s in seeds]
    assert maximal_merged_dichotomies(
        reversed_seeds
    ) == maximal_merged_dichotomies(seeds)


def test_pinned_candidate_counts():
    tables = {
        "lion9": benchmark("lion9"),
        "train11": benchmark("train11"),
        "rand13": random_flow_table(13),
    }
    counts = {
        name: len(maximal_merged_dichotomies(seed_dichotomies(table)))
        for name, table in tables.items()
    }
    assert counts == {"lion9": 88, "train11": 645, "rand13": 2446}
