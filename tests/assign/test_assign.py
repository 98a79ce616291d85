"""Unit tests for the Tracey USTT assignment package."""

import itertools

import pytest

from repro.errors import StateAssignmentError
from repro.assign.dichotomy import (
    Dichotomy,
    maximal_merged_dichotomies,
    merge_all,
)
from repro.assign.encoding import StateEncoding
from repro.assign.tracey import assign_states, seed_dichotomies
from repro.assign.verify import is_valid_ustt, ustt_violations
from repro.flowtable.builder import FlowTableBuilder


def gray4():
    b = FlowTableBuilder(inputs=["x1", "x2"], outputs=["z"])
    b.stable("s0", "00", "0").add("s0", "10", "s1").add("s0", "01", "s3")
    b.add("s0", "11", "s2")
    b.stable("s1", "10", "0").add("s1", "11", "s2").add("s1", "00", "s0")
    b.add("s1", "01", "s3")
    b.stable("s2", "11", "1").add("s2", "01", "s3").add("s2", "10", "s1")
    b.add("s2", "00", "s0")
    b.stable("s3", "01", "1").add("s3", "00", "s0").add("s3", "11", "s2")
    b.add("s3", "10", "s1")
    return b.build(reset="s0", name="gray4")


def toggle2():
    b = FlowTableBuilder(inputs=["x1"], outputs=["z"])
    b.stable("a", "0", "0").add("a", "1", "b")
    b.stable("b", "1", "1").add("b", "0", "a")
    return b.build(name="toggle2")


def minimal_vars_brute_force(table, max_vars=4):
    """Smallest variable count admitting a valid USTT encoding."""
    states = table.states
    for n in range(1, max_vars + 1):
        space = 1 << n
        if space < len(states):
            continue
        for codes in itertools.permutations(range(space), len(states)):
            encoding = StateEncoding(
                tuple(f"y{i+1}" for i in range(n)),
                dict(zip(states, codes)),
            )
            if is_valid_ustt(table, encoding):
                return n
    raise AssertionError(f"no USTT encoding within {max_vars} variables")


class TestDichotomy:
    def test_rejects_empty_block(self):
        with pytest.raises(StateAssignmentError):
            Dichotomy(frozenset(), frozenset({"a"}))

    def test_rejects_overlap(self):
        with pytest.raises(StateAssignmentError):
            Dichotomy(frozenset({"a"}), frozenset({"a", "b"}))

    def test_reversed_and_canonical(self):
        d = Dichotomy(frozenset({"b"}), frozenset({"a"}))
        assert d.reversed() == Dichotomy(frozenset({"a"}), frozenset({"b"}))
        assert d.canonical().left == frozenset({"a"})

    def test_compatibility_and_merge(self):
        d1 = Dichotomy(frozenset({"a"}), frozenset({"b"}))
        d2 = Dichotomy(frozenset({"c"}), frozenset({"b", "d"}))
        assert d1.compatible(d2)
        merged = d1.merge(d2)
        assert merged.left == frozenset({"a", "c"})
        assert merged.right == frozenset({"b", "d"})

    def test_incompatible_merge_raises(self):
        d1 = Dichotomy(frozenset({"a"}), frozenset({"b"}))
        d2 = Dichotomy(frozenset({"b"}), frozenset({"a"}))
        assert not d1.compatible(d2)
        with pytest.raises(StateAssignmentError):
            d1.merge(d2)

    def test_covers_either_orientation(self):
        big = Dichotomy(frozenset({"a", "c"}), frozenset({"b", "d"}))
        assert big.covers(Dichotomy(frozenset({"a"}), frozenset({"b"})))
        assert big.covers(Dichotomy(frozenset({"b"}), frozenset({"a"})))
        assert not big.covers(Dichotomy(frozenset({"a"}), frozenset({"c"})))

    def test_merge_all(self):
        d1 = Dichotomy(frozenset({"a"}), frozenset({"b"}))
        d2 = Dichotomy(frozenset({"c"}), frozenset({"d"}))
        merged = merge_all([d1, d2])
        assert merged.states == frozenset("abcd")

    def test_maximal_merged_dichotomies_cover_all_seeds(self):
        seeds = [
            Dichotomy(frozenset({"a"}), frozenset({"b"})),
            Dichotomy(frozenset({"c"}), frozenset({"d"})),
            Dichotomy(frozenset({"a"}), frozenset({"d"})),
        ]
        merged = maximal_merged_dichotomies(seeds)
        for seed in seeds:
            assert any(m.covers(seed) for m in merged)

    def test_no_seeds_no_merged_dichotomies(self):
        # The empty graph's one (empty) clique is no dichotomy.
        assert maximal_merged_dichotomies([]) == []


class TestSeedDichotomies:
    def test_transition_pair_seeds_present(self):
        table = gray4()
        seeds = seed_dichotomies(table, uniqueness=False)
        # column 00: moves s0->s0, s1->s0, s2->s0, s3->s0: all same dest,
        # no seeds from that column.
        # column 11: s0->s2, s1->s2, s2->s2, s3->s2: same dest too.
        # column 10: s0->s1, s1->s1, s2->s1, s3->s1: same dest.
        # gray4's diagonal structure makes every column single-destination
        # except... verify at least uniqueness-free seeds behave sanely.
        for seed in seeds:
            assert seed.left.isdisjoint(seed.right)

    def test_no_seeds_without_uniqueness(self):
        # Every column of gray4 has one destination, so it has no
        # transition-pair seeds: only the uniqueness seeds tell its
        # states apart.
        assert seed_dichotomies(gray4(), uniqueness=False) == []
        seeds = seed_dichotomies(gray4())
        for a, b in itertools.combinations(gray4().states, 2):
            assert any(
                {a, b} <= d.left | d.right
                and (a in d.left) != (b in d.left)
                for d in seeds
            )

    def test_uniqueness_seeds_included(self):
        table = toggle2()
        seeds = seed_dichotomies(table, uniqueness=True)
        assert Dichotomy(frozenset({"a"}), frozenset({"b"})) in seeds

    def test_multi_destination_column_seeds(self):
        b = FlowTableBuilder(inputs=["x1"], outputs=["z"])
        b.stable("a", "0", "0").add("a", "1", "b")
        b.stable("b", "1", "0").add("b", "0", "a")
        b.stable("c", "1", "1").add("c", "0", "d")
        b.stable("d", "0", "1").add("d", "1", "c")
        table = b.build(check=False)
        seeds = seed_dichotomies(table, uniqueness=False)
        # column 1: a->b and d->c (and stables b->b, c->c):
        # pairs with different destinations must appear.
        assert any(
            seed.covers(
                Dichotomy(frozenset({"a", "b"}), frozenset({"c", "d"}))
            )
            or Dichotomy(frozenset({"a", "b"}), frozenset({"c", "d"})).covers(seed)
            for seed in seeds
        )


class TestAssignStates:
    def test_gray4_assignment_is_valid(self):
        table = gray4()
        result = assign_states(table)
        assert is_valid_ustt(table, result.encoding)

    def test_toggle2_single_variable(self):
        table = toggle2()
        result = assign_states(table)
        assert result.encoding.num_variables == 1
        assert is_valid_ustt(table, result.encoding)

    def test_minimality_against_brute_force(self):
        for table in [toggle2(), gray4()]:
            result = assign_states(table)
            assert result.encoding.num_variables == minimal_vars_brute_force(
                table
            )

    def test_all_states_coded_uniquely(self):
        result = assign_states(gray4())
        codes = [result.encoding.code(s) for s in gray4().states]
        assert len(set(codes)) == len(codes)

    def test_single_state_machine(self):
        b = FlowTableBuilder(inputs=["x1"], outputs=["z"])
        b.stable("only", "0", "0").stable("only", "1", "1")
        table = b.build(name="single")
        result = assign_states(table)
        assert result.encoding.num_variables == 1
        assert result.encoding.code("only") == 0


class TestEncoding:
    def test_duplicate_codes_rejected(self):
        with pytest.raises(StateAssignmentError):
            StateEncoding(("y1",), {"a": 0, "b": 0})

    def test_code_out_of_range(self):
        with pytest.raises(StateAssignmentError):
            StateEncoding(("y1",), {"a": 2})

    def test_bits_and_strings(self):
        enc = StateEncoding(("y1", "y2"), {"a": 0b10, "b": 0b01})
        assert enc.bits("a") == (0, 1)
        assert enc.code_string("a") == "01"
        assert enc.bit("a", 1) == 1

    def test_state_of_and_unused(self):
        enc = StateEncoding(("y1", "y2"), {"a": 0, "b": 3})
        assert enc.state_of(0) == "a"
        assert enc.state_of(1) is None
        assert enc.unused_codes() == frozenset({1, 2})

    def test_transition_cube(self):
        enc = StateEncoding(("y1", "y2"), {"a": 0b00, "b": 0b01})
        mask, value = enc.transition_cube("a", "b")
        # codes agree on variable 1 (both 0), differ on variable 0.
        assert mask == 0b10
        assert value == 0b00

    def test_describe_mentions_all_states(self):
        enc = StateEncoding(("y1",), {"a": 0, "b": 1})
        text = enc.describe()
        assert "a: 0" in text and "b: 1" in text


class TestVerify:
    def test_detects_racing_transition_cubes(self):
        # column 1: a->b and c->d; encode so the spanned cubes overlap.
        b = FlowTableBuilder(inputs=["x1"], outputs=["z"])
        b.stable("a", "0", "0").add("a", "1", "b")
        b.stable("b", "1", "0").add("b", "0", "a")
        b.stable("c", "0", "1").add("c", "1", "d")
        b.stable("d", "1", "1").add("d", "0", "c")
        table = b.build(check=False)
        bad = StateEncoding(
            ("y1", "y2"), {"a": 0b00, "b": 0b11, "c": 0b01, "d": 0b10}
        )
        violations = ustt_violations(table, bad)
        assert violations
        assert "intersect" in violations[0]

    def test_valid_encoding_passes(self):
        table = toggle2()
        enc = StateEncoding(("y1",), {"a": 0, "b": 1})
        assert is_valid_ustt(table, enc)
