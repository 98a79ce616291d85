"""Unit tests for repro.logic.factor."""

import pytest

from repro.logic.cube import Cube
from repro.logic.expr import And, Lit, Nor, Or, expr_truth, sop_to_expr
from repro.logic.factor import (
    bridge_consensus,
    common_cube,
    divide_cube,
    first_level,
    has_complemented_inputs,
)


class TestFirstLevel:
    def test_folds_complemented_literals_into_nor(self):
        # a·b'·c' -> AND(a, NOR(b, c))
        expr = And([Lit("a"), Lit("b", negated=True), Lit("c", negated=True)])
        converted = first_level(expr)
        assert converted == And([Lit("a"), Nor([Lit("b"), Lit("c")])])

    def test_pure_true_term_unchanged(self):
        expr = And([Lit("a"), Lit("b")])
        assert first_level(expr) == expr

    def test_lone_negated_literal(self):
        assert first_level(Lit("a", negated=True)) == Nor([Lit("a")])

    def test_preserves_function(self):
        names = ["a", "b", "c"]
        cubes = [Cube.from_string("10-"), Cube.from_string("0-1")]
        expr = sop_to_expr(cubes, names)
        converted = first_level(expr)
        assert expr_truth(expr, names) == expr_truth(converted, names)

    def test_preserves_depth(self):
        names = ["a", "b", "c"]
        cubes = [Cube.from_string("10-"), Cube.from_string("0-1")]
        expr = sop_to_expr(cubes, names)
        assert first_level(expr).depth() == expr.depth()

    def test_no_complemented_inputs_after_conversion(self):
        expr = Or([
            And([Lit("a"), Lit("b", negated=True)]),
            Lit("c", negated=True),
        ])
        converted = first_level(expr)
        assert not has_complemented_inputs(converted)

    def test_nested_or_inside_and(self):
        # L·(f' + g) with complemented literal inside the OR
        expr = And([Lit("L"), Or([Lit("f", negated=True), Lit("g")])])
        converted = first_level(expr)
        names = ["L", "f", "g"]
        assert expr_truth(expr, names) == expr_truth(converted, names)
        assert not has_complemented_inputs(converted)


class TestBridgeConsensus:
    def test_adds_bridge_across_pivot(self):
        # f'·a + f·b (pivot f = variable 0) -> bridge a·b
        cubes = [Cube.from_string("01-"), Cube.from_string("1-1")]
        bridged = bridge_consensus(cubes, pivot=0)
        assert Cube.from_string("-11") in bridged
        assert len(bridged) == 3

    def test_no_bridge_when_conflicting_elsewhere(self):
        # f'·a + f·a' cannot bridge (conflict on variable 1 too)
        cubes = [Cube.from_string("01"), Cube.from_string("10")]
        assert bridge_consensus(cubes, pivot=0) == cubes

    def test_skips_contained_bridges(self):
        cubes = [
            Cube.from_string("01-"),
            Cube.from_string("1-1"),
            Cube.from_string("-1-"),  # already contains the bridge -11
        ]
        bridged = bridge_consensus(cubes, pivot=0)
        assert bridged == cubes

    def test_function_preserved(self):
        cubes = [Cube.from_string("01-"), Cube.from_string("1-1")]
        bridged = bridge_consensus(cubes, pivot=0)
        for m in range(8):
            before = any(c.contains(m) for c in cubes)
            after = any(c.contains(m) for c in bridged)
            assert before == after

    def test_every_pivot_adjacent_pair_jointly_covered(self):
        # After bridging, any two minterms differing only in the pivot that
        # are both covered must share a cube (static-1 hazard-free on pivot).
        cubes = [Cube.from_string("01-"), Cube.from_string("1-1")]
        bridged = bridge_consensus(cubes, pivot=0)
        covered = {m for c in bridged for m in c.minterms()}
        for m in covered:
            other = m ^ 1  # toggle pivot bit
            if other in covered:
                assert any(c.contains(m) and c.contains(other) for c in bridged)


class TestCommonCube:
    def test_shared_literals(self):
        cubes = [Cube.from_string("110"), Cube.from_string("11-")]
        assert common_cube(cubes) == Cube.from_string("11-")

    def test_no_shared_literals(self):
        cubes = [Cube.from_string("1--"), Cube.from_string("0--")]
        assert common_cube(cubes) == Cube.universe(3)

    def test_empty_group_raises(self):
        with pytest.raises(ValueError):
            common_cube([])


class TestDivideCube:
    def test_quotient(self):
        cube = Cube.from_string("110")
        divisor = Cube.from_string("1--")
        assert divide_cube(cube, divisor) == Cube.from_string("-10")

    def test_non_divisor_raises(self):
        with pytest.raises(ValueError):
            divide_cube(Cube.from_string("0--"), Cube.from_string("1--"))
