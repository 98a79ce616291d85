"""Quine-McCluskey prime-implicant generation on packed bitsets.

SEANCE's Output Determination stage (paper Section 5.2) and the hazard
factoring stage (Section 5.3 / Figure 5) both rely on classic
Quine-McCluskey reduction: the ``Z`` and ``SSD`` equations are reduced to
an *essential* sum-of-products, while ``fsv`` is "reduced to all its prime
implicants" to make it free of logic hazards under single-bit changes.

This module provides the prime-generation half; cover selection lives in
:mod:`repro.logic.cover`.

The tabulation runs entirely on packed integers: an implicant is a
``(mask, value)`` pair of ints, one level is a ``mask -> set of values``
table bucketed by value popcount, and the adjacency merge of ``a`` and
``b = a | bit`` is two int ops.  No :class:`~repro.logic.cube.Cube` is
allocated until the surviving primes are materialised at the end, which
removes the per-minterm object churn that used to dominate wide
functions (see ``benchmarks/bench_logic.py``; the original per-Cube
tabulation is retained in :mod:`repro.logic._reference`).  Complexity is
still exponential in the variable count, which is capped by
:data:`repro.logic.bitset.MAX_WIDTH`.
"""

from __future__ import annotations

from collections.abc import Iterable

from .bitset import check_width, mask_of
from .cube import Cube
from .function import BooleanFunction


def prime_implicants(
    on: Iterable[int], dc: Iterable[int], width: int
) -> list[Cube]:
    """All prime implicants of the function with the given on/dc sets.

    Parameters
    ----------
    on, dc:
        Disjoint sets of minterm integers over ``width`` variables.
    width:
        Number of variables.

    Returns
    -------
    list[Cube]
        Every prime implicant of ``on | dc``, sorted for determinism.
        Primes that cover only don't-care minterms are included (callers
        that do not want them filter with the on-set; see
        :func:`useful_primes`).

    Raises :class:`ValueError` when ``width`` exceeds
    :data:`~repro.logic.bitset.MAX_WIDTH`.
    """
    check_width(width)
    on = set(on)
    dc = set(dc)
    if on & dc:
        raise ValueError("on-set and dc-set overlap")
    care = on | dc
    if not care:
        return []
    for m in care:
        if m < 0 or m >> width:
            raise ValueError(f"minterm {m} outside {width}-variable space")
    full = (1 << width) - 1
    if len(care) == full + 1:
        return [Cube.universe(width)]

    # Level k holds the implicants with k free variables, keyed by their
    # bound-variable mask; every value in ``current[mask]`` satisfies
    # ``value & ~mask == 0``.
    current: dict[int, set[int]] = {full: care}
    primes: list[tuple[int, int]] = []
    while current:
        next_level: dict[int, set[int]] = {}
        for mask, values in current.items():
            by_ones: dict[int, set[int]] = {}
            for v in values:
                by_ones.setdefault(v.bit_count(), set()).add(v)
            merged: set[int] = set()
            for ones, group in by_ones.items():
                partners = by_ones.get(ones + 1)
                if not partners:
                    continue
                for v in group:
                    # Adjacent partners differ in exactly one bound
                    # variable where v holds 0: probe v | bit for every
                    # zero position of v under the mask.
                    rest = mask & ~v
                    while rest:
                        bit = rest & -rest
                        rest ^= bit
                        w = v | bit
                        if w in partners:
                            merged.add(v)
                            merged.add(w)
                            next_level.setdefault(mask ^ bit, set()).add(v)
            for v in values:
                if v not in merged:
                    primes.append((mask, v))
        current = next_level
    primes.sort()
    return [Cube(width, mask, value) for mask, value in primes]


def useful_primes(
    primes: Iterable[Cube], on: Iterable[int] | int
) -> list[Cube]:
    """Primes that cover at least one required (on-set) minterm.

    A hazard-free "all prime implicants" cover in the sense of Unger/
    Eichelberger needs every prime that intersects the on-set; primes lying
    wholly in the don't-care set add gates without covering anything and
    are dropped.

    ``on`` may be an iterable of minterms or an already-packed on-set
    bitset int (callers with a :class:`BooleanFunction` at hand pass
    :attr:`~repro.logic.function.BooleanFunction.on_mask` so the packing
    happens once per function).  Each prime is kept on a single
    ``coverage & on_mask != 0`` test.
    """
    on_mask = on if isinstance(on, int) else mask_of(on)
    return [p for p in primes if p.coverage_mask() & on_mask]


def primes_of(function: BooleanFunction) -> list[Cube]:
    """Prime implicants of a :class:`BooleanFunction` (on | dc)."""
    return prime_implicants(function.on, function.dc, function.width)


def all_primes_cover(function: BooleanFunction) -> list[Cube]:
    """The classic hazard-free SOP: every prime that touches the on-set.

    Including all such primes guarantees the two-level network has no
    static or dynamic hazard for any *single-bit* input change (the
    technique the paper calls "adding consensus gates", Section 2.1).
    """
    return useful_primes(primes_of(function), function.on_mask)
