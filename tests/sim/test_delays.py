"""Distribution and bounds tests for the delay models."""

import math
import random

import pytest

from repro.netlist.gates import Dff, Gate, GateType
from repro.sim.delays import (
    CornerDelay,
    RandomDelay,
    hostile_random,
    loop_safe_random,
    skewed_random,
)


def gates(n):
    return [Gate(f"g{i}", GateType.AND, ("a", "b"), f"o{i}") for i in range(n)]


def dffs(n):
    return [Dff(f"FFX{i}", d="d", q=f"q{i}", clock="G") for i in range(n)]


class TestLoopSafeRandom:
    def test_bounds_hold_over_many_instances(self):
        model = loop_safe_random(0)
        for gate in gates(300):
            assert 1.5 <= model.gate_delay(gate) <= 2.5
        for dff in dffs(300):
            assert 0.2 <= model.clk_to_q(dff) <= 1.0

    def test_loop_delay_assumption(self):
        """Max input-path skew stays below the minimum loop delay."""
        for seed in range(20):
            model = loop_safe_random(seed)
            qs = [model.clk_to_q(dff) for dff in dffs(40)]
            skew = max(qs) - min(qs)
            min_gate = min(model.gate_delay(g) for g in gates(40))
            assert skew < min_gate

    def test_distribution_spreads_over_the_range(self):
        """Draws cover the range, not a corner of it (uniformity smoke:
        each third of the gate range gets a healthy share)."""
        model = loop_safe_random(1)
        draws = [model.gate_delay(g) for g in gates(600)]
        lo = sum(1 for d in draws if d < 1.5 + 1.0 / 3)
        mid = sum(1 for d in draws if 1.5 + 1.0 / 3 <= d < 1.5 + 2.0 / 3)
        hi = sum(1 for d in draws if d >= 1.5 + 2.0 / 3)
        for share in (lo, mid, hi):
            assert share > 600 * 0.2

    def test_same_seed_same_silicon_different_seed_differs(self):
        a = [loop_safe_random(7).gate_delay(g) for g in gates(20)]
        b = [loop_safe_random(7).gate_delay(g) for g in gates(20)]
        c = [loop_safe_random(8).gate_delay(g) for g in gates(20)]
        assert a == b
        assert a != c

    def test_skewed_and_hostile_bounds(self):
        skewed = skewed_random(0)
        hostile = hostile_random(0)
        for dff in dffs(100):
            assert 0.2 <= skewed.clk_to_q(dff) <= 2.0
            assert 0.2 <= hostile.clk_to_q(dff) <= 3.0

    def test_positive_delay_required(self):
        with pytest.raises(ValueError):
            RandomDelay(seed=0, gate_range=(0.0, 1.0))


class TestCornerDelay:
    def test_gates_pinned_to_floor(self):
        model = CornerDelay()
        assert {model.gate_delay(g) for g in gates(10)} == {1.0}

    def test_adjacent_bits_get_opposite_extremes(self):
        model = CornerDelay()
        bank = dffs(6)
        values = [model.clk_to_q(dff) for dff in bank]
        # The extremes sit on the dyadic time grid: snapped 0.2, exact 1.0.
        assert set(values) == set(model.ff_extremes)
        assert model.ff_extremes[1] == 1.0
        assert abs(model.ff_extremes[0] - 0.2) < 2**-24
        for left, right in zip(values, values[1:]):
            assert left != right

    def test_phase_flips_polarity(self):
        bank = dffs(4)
        even_model = CornerDelay(phase=0)
        even = [even_model.clk_to_q(dff) for dff in bank]
        odd = [CornerDelay(phase=1).clk_to_q(dff) for dff in bank]
        slow, fast = even_model.ff_extremes
        flip = {slow: fast, fast: slow}
        assert odd == [flip[value] for value in even]

    def test_assignment_is_name_keyed_not_call_order_keyed(self):
        bank = dffs(5)
        forward = [CornerDelay().clk_to_q(dff) for dff in bank]
        backward = [CornerDelay().clk_to_q(dff) for dff in reversed(bank)]
        assert forward == list(reversed(backward))

    def test_explicit_overrides_win(self):
        model = CornerDelay()
        assert model.gate_delay(
            Gate("g", GateType.AND, ("a",), "o", delay=9.0)
        ) == 9.0
        assert model.clk_to_q(
            Dff("FFX1", d="d", q="q", clock="G", clk_to_q=4.0)
        ) == 4.0

    def test_loop_delay_assumption_enforced(self):
        with pytest.raises(ValueError):
            CornerDelay(gate_floor=0.5)  # 0.8 skew window >= 0.5 loop
        with pytest.raises(ValueError):
            CornerDelay(ff_extremes=(0.0, 0.5))


class TestDrawExactness:
    """Each instance's delay is the seeded generator's uniform draw.

    :class:`RandomDelay` shares one memoised variate per (seed,
    instance) across models; every delay must still equal the fresh
    ``random.Random(f"{seed}:{key}").uniform(lo, hi)``, snapped to the
    grid and clamped into the range exactly as a fresh draw would be.
    """

    #: model -> (gate range, flip-flop range, grid bits), as stated by
    #: the campaign and fuzz delay models.
    MODELS = {
        "loop-safe": ((1.5, 2.5), (0.2, 1.0), 24),
        "skewed": ((0.9, 1.6), (0.2, 2.0), 24),
        "hostile": ((0.5, 1.2), (0.2, 3.0), 24),
        "loop-safe-offgrid": ((1.5, 2.5), (0.2, 1.0), None),
    }

    @staticmethod
    def _fresh_draw(seed, key, lo, hi, bits):
        value = random.Random(f"{seed}:{key}").uniform(lo, hi)
        if bits is None:
            return value
        scale = 1 << bits
        tick = round(value * scale)
        tick = max(tick, math.ceil(lo * scale))
        tick = min(tick, math.floor(hi * scale))
        return tick / scale

    @pytest.fixture(scope="class")
    def machines(self):
        from repro.bench import benchmark
        from repro.corpus.families import build_corpus, generate
        from repro.netlist.fantom import build_fantom
        from repro.sim.harness import build_timed_fantom

        from repro.pipeline import PassManager

        machines = [
            build_fantom(PassManager().run(benchmark(name)))
            for name in ("lion9", "train11")
        ]
        machines += [
            build_timed_fantom(PassManager().run(generate(key)))
            for key in build_corpus(count=4)
        ]
        assert len(machines) == 22
        return machines

    def test_every_instance_matches_a_fresh_draw(self, machines):
        from repro.corpus.fuzz import _delays_for

        checked = 0
        for name, (gate_range, ff_range, bits) in self.MODELS.items():
            for seed in range(3):
                for machine in machines:
                    model = _delays_for(name, seed, machine)
                    netlist = machine.netlist
                    for gate in netlist.gates:
                        expected = gate.delay
                        if expected is None:
                            expected = self._fresh_draw(
                                seed, f"g:{gate.name}", *gate_range, bits
                            )
                            checked += 1
                        assert model.gate_delay(gate) == expected, (
                            name, seed, gate.name,
                        )
                    for dff in netlist.dffs:
                        expected = dff.clk_to_q
                        if expected is None:
                            expected = self._fresh_draw(
                                seed, f"f:{dff.name}", *ff_range, bits
                            )
                            checked += 1
                        assert model.clk_to_q(dff) == expected, (
                            name, seed, dff.name,
                        )
        assert checked > 10_000
