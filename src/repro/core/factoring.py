"""Hazard factoring (paper Step 7 / Figure 5) and first-level expansion.

Two different treatments, per the paper:

``fsv``
    "To avoid logic hazards, fsv is reduced to all its prime implicants
    ...  Next, fsv is expanded to allow only 'first-level gates', which
    includes only true input variables and state variables.  A term with
    complemented inputs is converted from an AND to an AND-NOR format."
    The all-primes cover makes the cover glitch-free for every
    single-bit change; the AND-NOR expansion removes the separate
    inverter rank whose skew would re-introduce essential hazards.

``Y`` (next-state equations)
    Figure 5's procedure, realised here in three moves whose combined
    effect matches the paper's worked example exactly
    (``Y1 = y1·x1·(f̄sv + fsv·x̄2) + fsv·y2·x̄1·x2``):

    1. *reduce* — minimum prime cover over the doubled ``(x, y, fsv)``
       space;
    2. *bridge* — for every pair of cover cubes lying in opposite ``fsv``
       halves whose (x, y) parts intersect, add the ``fsv``-consensus
       term (Figure 5's ``R̃`` substitution: ``f̄sv + fsv·x̄2`` gaining its
       absorbing ``x̄2``).  Every static-1 hazard on an ``fsv`` transition
       disappears while the covered function is untouched;
    3. *factor* — extract common (x, y) subcubes ``L_i`` so each group
       reads ``L_i · R_i`` with ``R_i`` the OR of the ``fsv``-branch
       residuals, then expand everything into first-level AND-NOR gates.

    The original branch cubes are *kept* alongside their bridges (the
    redundant-cover form): this is what gives the factored equations the
    characteristic five logic levels of Table 1's "X Depth" column.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..logic.bitset import popcount
from ..logic.cover import minimal_cover
from ..logic.cube import Cube
from ..logic.expr import Expr, make_and, make_or
from ..logic.factor import bridge_consensus, divide_cube, first_level
from ..logic.function import BooleanFunction
from ..logic.quine_mccluskey import all_primes_cover
from ..logic.expr import cube_to_expr, sop_to_expr


@dataclass(frozen=True)
class FactoredEquation:
    """A synthesised equation: cover, factored expression, provenance."""

    name: str
    cover: tuple[Cube, ...]
    expr: Expr
    exact: bool


def factor_fsv(
    function: BooleanFunction, name: str = "fsv"
) -> FactoredEquation:
    """All-primes, first-level (AND-NOR) realisation of ``fsv``."""
    cover = all_primes_cover(function)
    expr = first_level(sop_to_expr(cover, function.names))
    return FactoredEquation(
        name=name, cover=tuple(cover), expr=expr, exact=True
    )


def factor_next_state(
    function: BooleanFunction,
    fsv_index: int,
    name: str,
    reduce_mode: str = "split",
) -> FactoredEquation:
    """Figure-5 factoring of one next-state function.

    ``fsv_index`` is the bit position of the ``fsv`` variable in the
    doubled space (the last variable, by construction in
    :mod:`repro.core.fsv`).

    ``reduce_mode`` selects the Step-7 reduction style:

    ``split`` (paper)
        Reduce the ``f̄sv`` and ``fsv`` halves *separately* and tag every
        cube with its ``fsv`` literal — this is the canonical
        ``Y = f̄sv[...] + fsv[...]`` form the paper's worked example
        reduces from, and it yields the uniform five-level factored
        equations of Table 1.

    ``joint``
        Reduce over the whole doubled space, letting cubes merge across
        the ``fsv`` boundary.  Produces smaller, sometimes shallower
        logic; kept as the ablation the factoring benchmark measures.
    """
    if reduce_mode == "joint":
        reduced = minimal_cover(function)
        cubes = list(reduced.cubes)
        exact = reduced.exact
    elif reduce_mode == "split":
        cubes = []
        exact = True
        fsv_name = function.names[fsv_index]
        for polarity in (0, 1):
            half = function.cofactor(fsv_name, polarity)
            half_cover = minimal_cover(half)
            exact = exact and half_cover.exact
            for cube in half_cover.cubes:
                cubes.append(
                    _reattach_fsv(cube, fsv_index, polarity)
                )
    else:
        raise ValueError(f"unknown reduce_mode {reduce_mode!r}")
    bridged = bridge_consensus(cubes, fsv_index)
    expr = _grouped_expression(bridged, function.names, fsv_index)
    return FactoredEquation(
        name=name,
        cover=tuple(bridged),
        expr=first_level(expr),
        exact=exact,
    )


def _reattach_fsv(cube: Cube, fsv_index: int, polarity: int) -> Cube:
    """Lift a cofactor-space cube back into the doubled space.

    The cofactor dropped the ``fsv`` variable (the top bit); the lifted
    cube binds it to ``polarity``.  Only valid because ``fsv`` is the
    last variable, so the remaining bit positions are unchanged.
    """
    if cube.width != fsv_index:
        raise ValueError(
            f"cofactor cube width {cube.width} does not precede fsv at "
            f"bit {fsv_index}"
        )
    mask = cube.mask | (1 << fsv_index)
    value = cube.value | (polarity << fsv_index)
    return Cube(fsv_index + 1, mask, value)


def _grouped_expression(
    cubes: list[Cube], names: tuple[str, ...], fsv_index: int
) -> Expr:
    """Greedy common-cube grouping over the non-fsv variables.

    Each round looks at the shared non-fsv subcube ``L`` of every pair of
    remaining terms.  Its members are the terms ``L`` divides, and ``L``
    is then tightened to everything the members share.  The winner has
    the most members, then the most literals in its tightened ``L``;
    ties go to the first pair in ``(i, j)`` order.  It is emitted as
    ``AND(L, OR(residuals))`` and its members leave.  Rounds stop when no
    two remaining terms share a non-fsv literal; terms that never group
    are emitted as plain products.

    Terms are scanned as ``(mask, value)`` ints restricted to the
    non-fsv bits; ``Cube``s are built only for the chosen ``L`` and its
    residuals.
    """
    if not cubes:
        return sop_to_expr([], names)
    width = cubes[0].width
    nonfsv_mask = ((1 << width) - 1) & ~(1 << fsv_index)

    remaining = list(cubes)
    terms: list[Expr] = []
    while len(remaining) >= 2:
        masks = [c.mask & nonfsv_mask for c in remaining]
        values = [c.value & nonfsv_mask for c in remaining]
        indices = range(len(remaining))
        seen: set[tuple[int, int]] = set()
        best: tuple[int, int] | None = None
        best_l = (0, 0)
        best_members: list[int] = []
        for i in indices:
            mi = masks[i]
            vi = values[i]
            for j in range(i + 1, len(remaining)):
                agree = mi & masks[j] & ~(vi ^ values[j])
                if not agree:
                    continue
                # The same L has the same members and score, and its
                # first occurrence already wins ties under the strict >.
                lvalue = vi & agree
                if (agree, lvalue) in seen:
                    continue
                seen.add((agree, lvalue))
                members = [
                    k
                    for k in indices
                    if masks[k] & agree == agree
                    and values[k] & agree == lvalue
                ]
                # Tighten L to everything the members actually share.
                lmask = mi
                for k in members:
                    lmask &= masks[k] & ~(vi ^ values[k])
                # Bigger groups first: gathering the f̄sv/fsv branch pair
                # with its bridge under one L is what yields the paper's
                # L·(f̄sv·u + fsv·v + bridge) shape.
                score = (len(members), popcount(lmask))
                if best is None or score > best:
                    best = score
                    best_l = (lmask, vi & lmask)
                    best_members = members
        if best is None:
            break
        shared = Cube(width, *best_l)
        inner = make_or(
            [
                cube_to_expr(divide_cube(remaining[k], shared), names)
                for k in best_members
            ]
        )
        terms.append(make_and([cube_to_expr(shared, names), inner]))
        grouped = set(best_members)
        remaining = [c for k, c in enumerate(remaining) if k not in grouped]
    for cube in remaining:
        terms.append(cube_to_expr(cube, names))
    return make_or(terms)
