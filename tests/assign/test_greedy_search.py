"""Differential pins for the searched Tracey greedy cover.

:func:`~repro.assign.dichotomy.greedy_merge_cover` builds the greedy
cover one key-ordered search per chosen merge, without enumerating the
maximal merges.  These tests hold it against the enumerate-then-cover
path, check the two facts its docstring rests on, and pin the
encodings of chain tables only the search makes cheap.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign.dichotomy import (
    StateSearch,
    greedy_merge_cover,
    merged_dichotomy_masks,
    orientation_blocks,
    state_bits,
)
from repro.assign import tracey
from repro.assign.tracey import assign_states, seed_dichotomies
from repro.bench import benchmark
from repro.bench.suite import random_flow_table
from repro.core.serialize import assignment_to_dict
from repro.logic.bitset import iter_bits
from repro.store.canonical import canonical_json

from ..strategies import normal_mode_tables
from .oracle import enumerated_greedy

#: Tables on both sides of the search rule, all cheap to enumerate.
NAMED = {
    "lion9": lambda: benchmark("lion9"),
    "train11": lambda: benchmark("train11"),
    "rand13": lambda: random_flow_table(13),
    "rand14": lambda: random_flow_table(14),
}


def essential_seeds(seeds, bit_of):
    """Fact 1 by enumeration: the seeds exactly one merge covers."""
    counts = [0] * len(seeds)
    for _, _, clique in merged_dichotomy_masks(seeds, bit_of):
        for v in iter_bits(clique):
            counts[v >> 1] += 1
    return {k for k, count in enumerate(counts) if count == 1}


def closed_neighbourhood_cliques(seeds, bit_of):
    """Fact 1 by the graph: the seeds whose vertex ``2k`` has a closed
    neighbourhood that is a clique."""
    compatible = StateSearch(*orientation_blocks(seeds, bit_of)).compatible()
    found = set()
    for k in range(len(seeds)):
        closed = compatible[2 * k] | 1 << 2 * k
        if all(
            closed & ~(compatible[u] | 1 << u) == 0 for u in iter_bits(closed)
        ):
            found.add(k)
    return found


def check(table, uniqueness=True):
    seeds = seed_dichotomies(table, uniqueness=uniqueness)
    bit_of = state_bits(seeds)
    searched = greedy_merge_cover(seeds, bit_of)
    assert searched == enumerated_greedy(
        seeds, merged_dichotomy_masks(seeds, bit_of)
    )
    assert closed_neighbourhood_cliques(seeds, bit_of) == essential_seeds(
        seeds, bit_of
    )


@given(normal_mode_tables(max_states=6), st.booleans())
@settings(max_examples=80, deadline=None)
def test_search_matches_enumeration_on_random_tables(table, uniqueness):
    check(table, uniqueness)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_search_matches_enumeration_on_named_tables(name):
    check(NAMED[name]())


def test_heaviest_merges_are_the_heaviest_enumerated():
    """A weighted search returns one canonical maximal merge of
    greatest weight."""
    seeds = seed_dichotomies(random_flow_table(13))
    bit_of = state_bits(seeds)
    search = StateSearch(*orientation_blocks(seeds, bit_of))
    candidates = merged_dichotomy_masks(seeds, bit_of)
    for uncovered in (range(len(seeds)), range(20, 28), [7]):
        weighted = sum(3 << 2 * k for k in uncovered)
        weights = [(c & weighted).bit_count() for _, _, c in candidates]
        [top] = search.heaviest(weighted, weighted)
        assert top[:2] in {
            c[:2] for c, w in zip(candidates, weights) if w == max(weights)
        }


def test_greedy_set_covers_take_the_search(monkeypatch):
    """Tables above 64 seeds, and those whose set cover would go greedy
    (lion9: 86 undominated merges, train11: 606), take the search;
    test_example stays on the exact set cover."""
    searched = []

    def spy(seeds, bit_of, *search):
        searched.append(len(seeds))
        return greedy_merge_cover(seeds, bit_of, *search)

    monkeypatch.setattr(tracey, "greedy_merge_cover", spy)
    # Seeds: lion9 42, rand13 82, rand14 80, train11 58.
    for name in sorted(NAMED):
        tracey.assign_states(NAMED[name]())
    assert searched == [42, 82, 80, 58]
    result = tracey.assign_states(benchmark("test_example"))
    assert searched == [42, 82, 80, 58] and result.exact


def test_rand16_encoding_is_pinned():
    """The 16-state chain's assignment, as enumerate-then-cover gave it
    (about 3.5 s there; the search takes a fraction of a second)."""
    result = assign_states(random_flow_table(16))
    assert len(result.seeds) == 126
    assert result.encoding.num_variables == 6
    assert not result.exact
    payload = canonical_json(assignment_to_dict(result)).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "4bb4bb9dd8117735ea652d08f6d38f9f7422acfd3db7755afd5978bbd9617556"
    )


def test_rand21_encoding_is_pinned():
    """The 21-state chain's assignment, as the greedy round that listed
    every tie gave it (about 1.5 s there)."""
    result = assign_states(random_flow_table(21))
    assert len(result.seeds) == 242
    assert result.encoding.num_variables == 6
    assert not result.exact
    payload = canonical_json(assignment_to_dict(result)).encode()
    assert hashlib.sha256(payload).hexdigest() == (
        "f2079a5668ecb0abc08cd11cf39cc840079e215af613616d43d0b8e4918c121a"
    )
