"""Differential pins for the route of Step 3's cover.

:func:`~repro.assign.tracey.assign_states` enumerates every maximal
merge of a table with at most 64 seeds and covers them with
:func:`~repro.util.setcover.minimum_set_cover`, unless that cover would
go greedy (:func:`~repro.util.setcover.goes_greedy`).  Then, like every
larger table, it takes :func:`~repro.assign.dichotomy.greedy_merge_cover`,
which chooses the same merges without the set cover's passes.  These
tests hold the capped count against the set cover's own dominance pass,
and the whole assignment against the enumerate-then-cover oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.assign.dichotomy import merged_dichotomy_masks, state_bits
from repro.assign.tracey import assign_states, seed_dichotomies
from repro.bench import benchmark
from repro.bench.suite import load_all, random_flow_table
from repro.corpus import families
from repro.logic.bitset import iter_bits
from repro.util.setcover import (
    EXACT_LIMIT,
    _undominated_indexed,
    goes_greedy,
    minimum_set_cover,
    undominated_count,
)

from ..strategies import normal_mode_tables
from .oracle import enumerated_assignment


def enumerated_masks(seeds):
    """Every maximal merge's seeds, seed ``k`` as bit ``k``."""
    masks = []
    for _, _, clique in merged_dichotomy_masks(seeds, state_bits(seeds)):
        bits = 0
        for v in iter_bits(clique):
            bits |= 1 << (v >> 1)
        masks.append(bits)
    return masks


def useful_masks(masks):
    """The set cover's useful masks past its essentials: candidate
    index -> mask, for the candidates it still considers."""
    coverers = {}
    for i, bits in enumerate(masks):
        for k in iter_bits(bits):
            coverers.setdefault(k, []).append(i)
    essential = {found[0] for found in coverers.values() if len(found) == 1}
    remaining = sum(1 << k for k in coverers)
    for i in essential:
        remaining &= ~masks[i]
    return {
        i: bits & remaining
        for i, bits in enumerate(masks)
        if i not in essential and bits & remaining
    }


def dominance_count(masks):
    """How many candidates the set cover keeps for its cyclic core."""
    useful = useful_masks(masks)
    return len(_undominated_indexed(sorted(useful), useful))


def check_count(masks, caps):
    count = dominance_count(masks)
    useful = useful_masks(masks).values()
    for cap in caps(count):
        if cap >= 1:
            assert undominated_count(useful, cap) == min(count, cap), cap
        if cap >= 0:
            assert goes_greedy(masks, cap) == (count > cap), cap


def around(count):
    """Caps on both sides of a count, and at the set cover's limit."""
    return {count - 1, count, count + 1, EXACT_LIMIT, EXACT_LIMIT + 1}


@given(normal_mode_tables(max_states=6), st.booleans())
@settings(max_examples=80, deadline=None)
def test_capped_count_matches_the_dominance_pass(table, uniqueness):
    masks = enumerated_masks(seed_dichotomies(table, uniqueness=uniqueness))
    check_count(masks, around)


#: Tables on both sides of the set cover's limit: the 8-state chains
#: of seeds 3 and 8 keep 49 candidates (just greedy) and 47 (exact),
#: lion9 86, train11 606 and the ring and STG tables 111 and 127; the
#: test_example and burst-mode tables stay exact.
COUNT_TABLES = {
    "chain8-3": lambda: random_flow_table(8, 3),
    "chain8-8": lambda: random_flow_table(8, 8),
    "lion9": lambda: benchmark("lion9"),
    "train11": lambda: benchmark("train11"),
    "test_example": lambda: benchmark("test_example"),
    "protocol-ring": lambda: families.generate("corpus:protocol-ring:0"),
    "random-stg": lambda: families.generate("corpus:random-stg:1"),
    "burst-mode": lambda: families.generate("corpus:burst-mode:2"),
}


@pytest.mark.parametrize("name", sorted(COUNT_TABLES))
def test_capped_count_on_named_tables(name):
    seeds = seed_dichotomies(COUNT_TABLES[name]())
    masks = enumerated_masks(seeds)
    check_count(masks, around)
    cover = minimum_set_cover(
        set(range(len(seeds))), [frozenset(iter_bits(m)) for m in masks]
    )
    assert goes_greedy(masks) == (not cover.exact)


def check_assignment(table):
    seeds, chosen, codes, exact = enumerated_assignment(table)
    result = assign_states(table)
    assert result.seeds == seeds
    assert result.chosen == chosen
    assert result.encoding.codes == codes
    assert result.exact == exact


def test_assignment_matches_the_oracle_on_the_corpus():
    for key in families.build_corpus(count=20):
        check_assignment(families.generate(key))


@pytest.mark.parametrize("positions", range(8, 15))
def test_assignment_matches_the_oracle_on_chains(positions):
    for seed in range(1, 6):
        check_assignment(random_flow_table(positions, seed))


def test_assignment_matches_the_oracle_on_named_tables():
    tables = dict(load_all())
    tables.update(rand13=random_flow_table(13), rand14=random_flow_table(14))
    for name, table in sorted(tables.items()):
        if table.num_states > 1:
            check_assignment(table)
