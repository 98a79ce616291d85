"""Differential test of the Figure-5 common-cube grouping.

``_grouped_expression`` scans ``(mask, value)`` ints.  The oracle below
is the ``Cube``-object formulation it replaced, kept here (and only
here) so the two can be compared on arbitrary cube lists and on every
call that synthesising the paper suite, the random chains and the
fuzz corpus makes.  Expressions are compared with ``==`` and ``str``;
``Expr.__repr__`` is identity-based, so reprs are never compared.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.suite import load_all, random_flow_table
from repro.core import factoring
from repro.corpus import families
from repro.logic.cube import Cube
from repro.logic.expr import Expr, cube_to_expr, make_and, make_or, sop_to_expr
from repro.logic.factor import common_cube, divide_cube
from repro.pipeline.manager import PassManager
from repro.pipeline.options import SynthesisOptions


def oracle_grouped_expression(
    cubes: list[Cube], names: tuple[str, ...], fsv_index: int
) -> Expr:
    """The grouping as a cubic scan over ``Cube.restricted_to`` objects."""
    if not cubes:
        return sop_to_expr([], names)
    width = cubes[0].width
    nonfsv_mask = ((1 << width) - 1) & ~(1 << fsv_index)

    remaining = list(cubes)
    terms: list[Expr] = []
    while True:
        best: tuple[int, int] | None = None
        best_l: Cube | None = None
        best_members: list[Cube] = []
        for i in range(len(remaining)):
            for j in range(i + 1, len(remaining)):
                shared = common_cube(
                    [
                        remaining[i].restricted_to(nonfsv_mask),
                        remaining[j].restricted_to(nonfsv_mask),
                    ]
                )
                if shared.num_literals == 0:
                    continue
                members = [
                    c
                    for c in remaining
                    if _divides(shared, c.restricted_to(nonfsv_mask))
                ]
                shared = common_cube(
                    [c.restricted_to(nonfsv_mask) for c in members]
                )
                score = (len(members), shared.num_literals)
                if best is None or score > best:
                    best = score
                    best_l = shared
                    best_members = members
        if best is None or len(best_members) < 2:
            break
        residuals = [divide_cube(c, best_l) for c in best_members]
        inner = make_or([cube_to_expr(r, names) for r in residuals])
        terms.append(make_and([cube_to_expr(best_l, names), inner]))
        remaining = [c for c in remaining if c not in best_members]
    for cube in remaining:
        terms.append(cube_to_expr(cube, names))
    return make_or(terms)


def _divides(divisor: Cube, cube: Cube) -> bool:
    return (
        cube.mask & divisor.mask == divisor.mask
        and (cube.value ^ divisor.value) & divisor.mask == 0
    )


def assert_same_grouping(cubes, names, fsv_index):
    new = factoring._grouped_expression(list(cubes), names, fsv_index)
    old = oracle_grouped_expression(list(cubes), names, fsv_index)
    assert new == old
    assert str(new) == str(old)


@st.composite
def fsv_cube_lists(draw):
    """Cube lists of width 2-8 with fsv at the last bit."""
    width = draw(st.integers(2, 8))
    fsv = width - 1
    nonfsv = (1 << fsv) - 1
    cube = st.builds(
        lambda mask, value, polarity: Cube(
            width,
            mask & nonfsv | (0 if polarity is None else 1 << fsv),
            value & mask & nonfsv | (polarity or 0) << fsv,
        ),
        st.integers(0, nonfsv),
        st.integers(0, nonfsv),
        st.sampled_from([0, 1, None]),
    )
    cubes = draw(st.lists(cube, max_size=10))
    if cubes and draw(st.booleans()):
        cubes.append(draw(st.sampled_from(cubes)))
    names = tuple(f"v{i}" for i in range(width))
    return cubes, names, fsv


@settings(max_examples=300, deadline=None)
@given(fsv_cube_lists())
def test_matches_oracle_on_random_cube_lists(case):
    assert_same_grouping(*case)


def test_empty_cover_renders_constant_zero():
    assert_same_grouping([], ("a", "fsv"), 1)


@pytest.fixture(scope="module")
def synthesis_calls():
    """Every grouping call made while synthesising the three workloads."""
    calls: dict[str, list] = {"paper": [], "chains": [], "corpus": []}
    workloads = {
        "paper": [(t, SynthesisOptions()) for t in load_all().values()],
        "chains": [
            (random_flow_table(p), SynthesisOptions(minimize=False))
            for p in range(13, 18)
        ],
        "corpus": [
            (families.generate(key), SynthesisOptions())
            for key in families.build_corpus(count=20)
        ],
    }
    grouped = factoring._grouped_expression
    with pytest.MonkeyPatch.context() as patch:
        for workload, items in workloads.items():

            def record(cubes, names, fsv_index, sink=calls[workload]):
                sink.append((list(cubes), names, fsv_index))
                return grouped(cubes, names, fsv_index)

            patch.setattr(factoring, "_grouped_expression", record)
            manager = PassManager()
            for table, options in items:
                manager.run(table, options)
    return calls


@pytest.mark.parametrize("workload", ["paper", "chains", "corpus"])
def test_matches_oracle_on_synthesis_calls(synthesis_calls, workload):
    calls = synthesis_calls[workload]
    assert calls
    for cubes, names, fsv_index in calls:
        assert_same_grouping(cubes, names, fsv_index)
