"""First-level-gate expansion and cube-level factoring utilities.

These pieces of the paper's Step 7 live here because they are generic
logic manipulations (the SEANCE-specific orchestration is in
:mod:`repro.core.factoring`):

``first_level``
    Armstrong/Friedman/Menon's "first-level gate" realisation: every
    product term may contain only *true* (uncomplemented) variables at its
    AND inputs; complemented variables are folded into a NOR that feeds the
    AND, turning the term into a compound AND-NOR gate.  The paper uses
    this on ``fsv`` and on the next-state equations so that input/inverter
    skew cannot introduce essential hazards (Section 5.3: "A term with
    complemented inputs is converted from an AND to an AND-NOR format").

``bridge_consensus``
    Hazard bridging across one distinguished variable: for every pair of
    cover cubes bound to opposite polarities of that variable whose other
    literals are compatible, the consensus cube (variable dropped) is an
    implicant of the covered function and is added so the OR gate holds
    during transitions of the distinguished variable.  SEANCE applies this
    with ``fsv`` as the pivot, which is the mechanism behind Figure 5's
    ``R̃`` substitution (``f̄sv + fsv·x̄2`` absorbing into ``f̄sv + x̄2``).

``common_cube`` / ``divide_cube``
    The shared literals of a group of product terms and the quotient of
    one term by them: the ``L_i`` and residual cubes of Figure 5's
    nested ``L_i · R_i`` shape.
"""

from __future__ import annotations

from collections.abc import Sequence

from .cube import Cube
from .expr import And, Const, Expr, Lit, Nor, Or, make_and, make_or


def first_level(expr: Expr) -> Expr:
    """Rewrite ``expr`` so no gate input is a complemented literal.

    Complemented literals feeding an AND are gathered into a single NOR
    child of that AND; anywhere else a complemented literal ``v'`` becomes
    the one-input ``NOR(v)``.  The result computes the same function and
    its :meth:`~repro.logic.expr.Expr.depth` equals the source depth under
    the library's depth convention (a negated literal already costs the
    one NOR level it turns into here).
    """
    if isinstance(expr, (Const,)):
        return expr
    if isinstance(expr, Lit):
        if expr.negated:
            return Nor([Lit(expr.name)])
        return expr
    if isinstance(expr, And):
        true_inputs: list[Expr] = []
        complemented: list[Expr] = []
        for child in expr.children:
            if isinstance(child, Lit) and child.negated:
                complemented.append(Lit(child.name))
            else:
                true_inputs.append(first_level(child))
        if complemented:
            true_inputs.append(Nor(complemented))
        return make_and(true_inputs)
    if isinstance(expr, Or):
        return make_or([first_level(child) for child in expr.children])
    if isinstance(expr, Nor):
        rewritten = []
        for child in expr.children:
            if isinstance(child, Lit) and child.negated:
                rewritten.append(Nor([Lit(child.name)]))
            else:
                rewritten.append(first_level(child))
        return Nor(rewritten)
    raise TypeError(f"unsupported expression node {type(expr).__name__}")


def has_complemented_inputs(expr: Expr) -> bool:
    """True when any literal in ``expr`` is negated."""
    return any(negated for _, negated in expr.literals())


def bridge_consensus(cubes: Sequence[Cube], pivot: int) -> list[Cube]:
    """Add pivot-variable consensus terms to a cover.

    For every pair ``(a, b)`` in ``cubes`` with ``a`` binding variable
    ``pivot`` to 0 and ``b`` binding it to 1 whose remaining literals do
    not conflict, the consensus ``a·b`` with ``pivot`` freed is appended
    (unless an existing cube already contains it).  The consensus of two
    cubes in a cover is always an implicant of the covered function, so
    the result covers exactly the same function while removing every
    static-1 hazard for transitions of the pivot variable.

    The input order is preserved; added terms follow the originals.
    """
    result = list(cubes)
    zeros = [c for c in cubes if c.literal(pivot) == 0]
    ones = [c for c in cubes if c.literal(pivot) == 1]
    for a in zeros:
        for b in ones:
            bridged = a.consensus(b)
            if bridged is None:
                continue
            # Guaranteed by construction: the only conflicting variable of
            # an eligible pair is the pivot itself, so the consensus frees
            # exactly the pivot.
            if any(existing.contains_cube(bridged) for existing in result):
                continue
            result.append(bridged)
    return result


def common_cube(cubes: Sequence[Cube]) -> Cube:
    """Largest cube dividing every cube in the group (their shared literals)."""
    if not cubes:
        raise ValueError("common_cube of an empty group")
    width = cubes[0].width
    mask = (1 << width) - 1
    value = 0
    first = True
    for cube in cubes:
        if first:
            mask = cube.mask
            value = cube.value
            first = False
        else:
            agree = mask & cube.mask & ~(value ^ cube.value)
            mask = agree
            value &= agree
    return Cube(width, mask, value)


def divide_cube(cube: Cube, divisor: Cube) -> Cube:
    """Cube ``cube`` with the literals of ``divisor`` removed.

    ``divisor`` must divide ``cube`` (bind a subset of its literals with
    matching polarity); the quotient binds the remaining literals.
    """
    if not (
        cube.mask & divisor.mask == divisor.mask
        and (cube.value ^ divisor.value) & divisor.mask == 0
    ):
        raise ValueError(f"{divisor} does not divide {cube}")
    mask = cube.mask & ~divisor.mask
    return Cube(cube.width, mask, cube.value & mask)
