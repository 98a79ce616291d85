"""Unit tests for the generic minimum set-cover solver."""

import itertools
import random

import pytest

from repro.errors import CoveringError
from repro.util.setcover import (
    EXACT_LIMIT,
    _undominated_indexed,
    goes_greedy,
    minimum_set_cover,
    undominated_count,
)


def brute_force_min(universe, candidates):
    for k in range(0, len(candidates) + 1):
        for combo in itertools.combinations(range(len(candidates)), k):
            union = set()
            for i in combo:
                union |= candidates[i]
            if universe <= union:
                return k
    raise AssertionError("not coverable")


class TestBasics:
    def test_empty_universe(self):
        result = minimum_set_cover(set(), [frozenset({1})])
        assert result.chosen == ()
        assert result.exact

    def test_single_candidate(self):
        result = minimum_set_cover({1, 2}, [frozenset({1, 2})])
        assert result.chosen == (0,)

    def test_uncoverable_raises(self):
        with pytest.raises(CoveringError):
            minimum_set_cover({1, 2}, [frozenset({1})])

    def test_essential_forcing(self):
        # element 3 only in candidate 2: it must be chosen.
        candidates = [frozenset({1}), frozenset({2}), frozenset({2, 3})]
        result = minimum_set_cover({1, 2, 3}, candidates)
        assert 2 in result.chosen
        assert len(result.chosen) == 2

    def test_dominated_candidate_ignored(self):
        candidates = [frozenset({1}), frozenset({1, 2}), frozenset({2})]
        result = minimum_set_cover({1, 2}, candidates)
        assert result.chosen == (1,)

    def test_cyclic_cover_exact(self):
        # triangle cover: {a,b},{b,c},{c,a} over {a,b,c}: minimum is 2.
        candidates = [
            frozenset({"a", "b"}),
            frozenset({"b", "c"}),
            frozenset({"c", "a"}),
        ]
        result = minimum_set_cover({"a", "b", "c"}, candidates)
        assert len(result.chosen) == 2
        assert result.exact


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(20))
    def test_random_instances(self, seed):
        rng = random.Random(seed)
        universe = set(range(rng.randint(1, 8)))
        candidates = []
        for _ in range(rng.randint(1, 10)):
            size = rng.randint(1, max(1, len(universe)))
            candidates.append(frozenset(rng.sample(sorted(universe), size)))
        union = set().union(*candidates) if candidates else set()
        if not universe <= union:
            with pytest.raises(CoveringError):
                minimum_set_cover(universe, candidates)
            return
        result = minimum_set_cover(universe, candidates)
        covered = set()
        for i in result.chosen:
            covered |= candidates[i]
        assert universe <= covered
        assert len(result.chosen) == brute_force_min(universe, candidates)


def quadratic_undominated(live, useful):
    """The direct all-pairs predicate the indexed elimination replaces."""
    out = []
    for i in live:
        ui = useful[i]
        dominated = any(
            ui | useful[j] == useful[j] and (ui != useful[j] or j < i)
            for j in live
            if j != i
        )
        if not dominated:
            out.append(i)
    return out


class TestDominanceIndex:
    """`_undominated_indexed` computes exactly the quadratic survivors."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_quadratic_predicate(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 18)  # universe bits
        count = rng.randint(1, 80)
        live = sorted(rng.sample(range(3 * count), count))
        useful = {
            i: rng.getrandbits(n) | 1 << rng.randrange(n) for i in live
        }
        assert _undominated_indexed(live, useful) == quadratic_undominated(
            live, useful
        )

    def test_duplicates_keep_lowest_index(self):
        live = [2, 5, 9]
        useful = {2: 0b011, 5: 0b011, 9: 0b011}
        assert _undominated_indexed(live, useful) == [2]

    def test_subset_chains_collapse_to_maximal(self):
        live = list(range(4))
        useful = {0: 0b0001, 1: 0b0011, 2: 0b0111, 3: 0b1000}
        assert _undominated_indexed(live, useful) == [2, 3]

    def test_incomparable_masks_all_survive(self):
        live = list(range(3))
        useful = {0: 0b011, 1: 0b110, 2: 0b101}
        assert _undominated_indexed(live, useful) == live

    def test_above_limit_instance_same_cover_as_forced_quadratic(
        self, monkeypatch
    ):
        # A >2000-candidate instance through minimum_set_cover: the
        # cover chosen with the index must match a run with the
        # all-pairs oracle patched in for the dominance step.
        rng = random.Random(17)
        universe = set(range(16))
        candidates = []
        while len(candidates) <= 2000:
            size = rng.randint(1, 6)
            candidates.append(frozenset(rng.sample(sorted(universe), size)))
        indexed = minimum_set_cover(universe, candidates)

        import repro.util.setcover as sc

        monkeypatch.setattr(sc, "_undominated_indexed", quadratic_undominated)
        quadratic = minimum_set_cover(universe, candidates)
        assert indexed == quadratic
        covered = set()
        for i in indexed.chosen:
            covered |= candidates[i]
        assert universe <= covered


class TestGreedy:
    def test_greedy_mode_still_covers(self):
        universe = set(range(12))
        candidates = [frozenset({i, (i + 1) % 12}) for i in range(12)]
        result = minimum_set_cover(universe, candidates, exact=False)
        covered = set()
        for i in result.chosen:
            covered |= candidates[i]
        assert universe <= covered
        assert not result.exact


class TestGoesGreedy:
    """``goes_greedy`` and ``undominated_count`` against the solver's own
    passes, on random instances on both sides of ``EXACT_LIMIT``."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_the_solver(self, seed):
        rng = random.Random(seed)
        universe = list(range(rng.randint(8, 16)))
        candidates = [frozenset({k}) for k in universe if rng.random() < 0.2]
        for _ in range(rng.randint(20, 200)):
            candidates.append(frozenset(rng.sample(universe, rng.randint(1, 5))))
        covered = set().union(*candidates)
        candidates += [frozenset({k}) for k in universe if k not in covered]
        masks = [sum(1 << k for k in c) for c in candidates]
        cover = minimum_set_cover(set(universe), candidates)
        assert goes_greedy(masks) == (not cover.exact)

        # The solver's useful masks past its essentials.
        counts = [sum(k in c for c in candidates) for k in universe]
        forced = {i for i, c in enumerate(candidates)
                  if any(counts[k] == 1 for k in c)}
        remaining = set(universe).difference(*(candidates[i] for i in forced))
        useful = {
            i: sum(1 << k for k in c & remaining)
            for i, c in enumerate(candidates)
            if i not in forced and c & remaining
        }
        count = len(_undominated_indexed(sorted(useful), useful))
        for cap in (count - 1, count, count + 1, EXACT_LIMIT + 1):
            if cap >= 1:
                assert undominated_count(useful.values(), cap) == min(
                    count, cap
                )
            if cap >= 0:
                assert goes_greedy(masks, cap) == (count > cap)
