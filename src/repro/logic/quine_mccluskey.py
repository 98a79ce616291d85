"""Quine-McCluskey prime-implicant generation on ternary row bitsets.

SEANCE's Output Determination stage (paper Section 5.2) and the hazard
factoring stage (Section 5.3 / Figure 5) both rely on classic
Quine-McCluskey reduction: the ``Z`` and ``SSD`` equations are reduced to
an *essential* sum-of-products, while ``fsv`` is "reduced to all its prime
implicants" to make it free of logic hazards under single-bit changes.

This module provides the prime-generation half; cover selection lives in
:mod:`repro.logic.cover`.

The tabulation is ternary.  A function is sliced into *rows*: a dict
from the high minterm bits to an int bitmap of the low ``k =
min(width, ROW_BITS)`` bits, holding only non-empty rows.  Each row
becomes one int over its ``3**k`` cubes of the low variables: in the
ternary digits of a bit position, digit ``i`` is 0 or 1 when variable
``i`` is bound to that value and 2 when it is free, and the bit is set
when the cube is an implicant.  The row's minterms are spread onto the
0/1 positions a byte at a time, and ``k`` shift-AND passes close the set
under merging, ``t |= (t & t >> 3**i & D0_i) << 2 * 3**i`` (``D0_i``:
the positions whose digit ``i`` is 0); after pass ``i`` every cube
whose free variables lie in ``0..i`` is marked.  ``k`` shift-OR passes
then mark the implicants that merge along a low variable, so what is
left of a row is its primes.

The ``width - k`` high variables are walked by free sets, level by
level.  For a free set ``F`` of high variables, the row of base value
``v`` (``F`` bits 0) holds the low cubes ``c`` for which ``(F, v, c)``
is an implicant; the rows of ``F + i`` AND two rows of ``F`` across
``i``.  Such a cube is prime when no low pass and no high join marks
it.  Each free set is reached once, from the set without its highest
variable, and one level is kept at a time.  Every width up to 8 is one
row and one level; the paper's tables and the fuzz corpus reduce
functions of 3 to 7 variables, so their whole tabulation is ``2k``
passes of a few int ops on one int, and a wide, sparse function
touches only its non-empty rows.  The digit masks, the byte spread map and the
position decode table (free mask and value of each cube) are built
once per process, on first use.

The primes, as ``(bound mask, value)`` pairs, are sorted before any
:class:`~repro.logic.cube.Cube` is built, which gives the order the
reference pins.  The original per-Cube tabulation is retained in
:mod:`repro.logic._reference` and pinned equal to this one; see
``benchmarks/bench_logic.py`` for the scaling.  Complexity is still
exponential in the variable count, which is capped by
:data:`repro.logic.bitset.MAX_WIDTH`.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable
from typing import NamedTuple

from .bitset import check_width, mask_of
from .cube import Cube
from .function import BooleanFunction

#: Low variables held in one row (a row spans ``2**ROW_BITS`` minterms
#: and ``3**ROW_BITS`` cubes).  Wider functions split into ``2**(width -
#: ROW_BITS)`` rows, of which only the non-empty ones are stored.
ROW_BITS = 8


class _Tables(NamedTuple):
    """The kernel's constants for ``ROW_BITS`` low variables."""

    #: ``3**i``: the place of low variable ``i``'s ternary digit.
    place: tuple[int, ...]
    #: Positions whose digit ``i`` is 0.
    digit_zero: tuple[int, ...]
    #: Positions whose digit ``i`` is 2 (variable ``i`` free).
    digit_free: tuple[int, ...]
    #: Byte -> ternary int of its set bits as minterms of variables 0-2.
    spread: tuple[int, ...]
    #: Byte index ``j`` of a row -> position of minterm ``8 * j``.
    offset: tuple[int, ...]
    #: Position -> mask of the cube's free low variables.
    free_of: bytes
    #: Position -> values of the cube's bound low variables.
    value_of: bytes


@functools.cache
def _tables() -> _Tables:
    """Build the kernel's tables once per process, on first use."""
    place = tuple(3 ** i for i in range(ROW_BITS))
    every = (1 << 3 ** ROW_BITS) - 1
    # Digit i is 0 on the low third of every block of 3**(i + 1).
    digit_zero = tuple(
        every // ((1 << 3 * p) - 1) * ((1 << p) - 1) for p in place
    )
    digit_free = tuple(d << 2 * p for d, p in zip(digit_zero, place))
    # Minterm m sits at the position whose digits are m's bits.
    position = [0]
    for p in place:
        position += [t + p for t in position]
    spread = [0]
    for m in range(8):
        spread += [s | 1 << position[m] for s in spread]
    offset = tuple(position[j << 3] for j in range(1 << (ROW_BITS - 3)))
    # Digit extension: position t + d * 3**i is cube t with digit d added.
    # Digits above a narrower row's k are 0, which binds nothing here:
    # the table records free variables, so its masks need no cut.
    free_of, value_of = b"\0", b"\0"
    for i in range(ROW_BITS):
        with_bit = bytes(x | 1 << i for x in range(256))
        free_of += free_of + free_of.translate(with_bit)
        value_of = value_of + value_of.translate(with_bit) + value_of
    return _Tables(
        place, digit_zero, digit_free, tuple(spread), offset, free_of, value_of
    )


def _rows(minterms: Iterable[int] | int, width: int, k: int) -> dict:
    """``minterms`` sliced into rows: high bits -> bitmap of the low ``k``.

    Accepts an iterable of minterms or one packed bitset int; empty rows
    are left out.  Raises :class:`ValueError` for a negative or
    out-of-range minterm.
    """
    if isinstance(minterms, int):
        if minterms < 0:
            raise ValueError("negative minterm bitset")
        if minterms >> (1 << width):
            top = minterms.bit_length() - 1
            raise ValueError(f"minterm {top} outside {width}-variable space")
        if width <= ROW_BITS:
            return {0: minterms} if minterms else {}
        size = 1 << (ROW_BITS - 3)
        data = minterms.to_bytes(1 << (width - 3), "little")
        rows = {}
        for h, start in enumerate(range(0, len(data), size)):
            r = int.from_bytes(data[start:start + size], "little")
            if r:
                rows[h] = r
        return rows
    low = (1 << k) - 1
    rows = {}
    for m in minterms:
        if m < 0 or m >> width:
            raise ValueError(f"minterm {m} outside {width}-variable space")
        h = m >> k
        rows[h] = rows.get(h, 0) | 1 << (m & low)
    return rows


def _implicants(row: int, k: int, tables: _Tables) -> int:
    """The ternary int of one row's implicants over its ``k`` variables.

    The row's minterms are spread onto their 0/1 positions a byte at a
    time, then one shift-AND pass per variable closes the set under
    merging: cube ``t + 2 * 3**i`` is an implicant when ``t`` and
    ``t + 3**i`` (digit ``i`` 0 and 1) both are.
    """
    spread, offset = tables.spread, tables.offset
    cubes = 0
    for j, byte in enumerate(row.to_bytes(max(1, 1 << k >> 3), "little")):
        if byte:
            cubes |= spread[byte] << offset[j]
    for p, zero in zip(tables.place[:k], tables.digit_zero):
        cubes |= (cubes & cubes >> p & zero) << 2 * p
    return cubes


def _merged(cubes: int, k: int, tables: _Tables) -> int:
    """The cubes of ``cubes`` that merge along one of the ``k`` low variables.

    One shift-OR pass per variable: each implicant with digit ``i`` free
    marks its two halves (digit ``i`` 0 and 1) as not prime.
    """
    marks = 0
    for p, free in zip(tables.place[:k], tables.digit_free):
        wide = cubes & free
        if wide:
            marks |= wide >> p | wide >> 2 * p
    return marks


def prime_implicants(
    on: Iterable[int] | int, dc: Iterable[int] | int, width: int
) -> list[Cube]:
    """All prime implicants of the function with the given on/dc sets.

    Parameters
    ----------
    on, dc:
        Disjoint sets of minterms over ``width`` variables, each given
        as an iterable of minterm integers or as one packed bitset int
        (bit ``m`` set iff minterm ``m`` is a member, as
        :attr:`~repro.logic.function.BooleanFunction.on_mask` packs it).
        The two forms may be mixed.
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
    :data:`~repro.logic.bitset.MAX_WIDTH`, when the sets overlap, or
    when a minterm is negative or outside the ``width``-variable space
    (a negative packed int counts as negative).
    """
    check_width(width)
    k = min(width, ROW_BITS)
    care = _rows(on, width, k)
    for h, r in _rows(dc, width, k).items():
        other = care.get(h, 0)
        if other & r:
            raise ValueError("on-set and dc-set overlap")
        care[h] = other | r
    if not care:
        return []
    space = 1 << width
    row_full = (1 << (1 << k)) - 1
    if len(care) << k == space and all(r == row_full for r in care.values()):
        return [Cube.universe(width)]

    tables = _tables()
    free_of, value_of = tables.free_of, tables.value_of
    full = space - 1
    high = range(width - k)
    primes: list[tuple[int, int]] = []
    # One level of high free sets at a time: free high mask -> rows of
    # the ternary ints of the implicants leaving exactly those high
    # variables free, keyed by the high base value.
    level = {0: {h: _implicants(r, k, tables) for h, r in care.items()}}
    while level:
        next_level: dict[int, dict] = {}
        for free, rows in level.items():
            top = free.bit_length()
            covered: dict[int, int] = {}
            for i in high:
                bit = 1 << i
                if free & bit:
                    continue
                joined = {}
                for h, cubes in rows.items():
                    if not h & bit:
                        j = cubes & rows.get(h | bit, 0)
                        if j:
                            joined[h] = j
                            covered[h] = covered.get(h, 0) | j
                            covered[h | bit] = covered.get(h | bit, 0) | j
                # Every join marks coverage, but F + i is kept only when
                # i is its highest variable, so each free set is built
                # once, from the set without that variable.
                if joined and i >= top:
                    next_level[free | bit] = joined
            high_free = free << k
            for h, cubes in rows.items():
                left = cubes & ~covered.get(h, 0)
                if left:
                    left &= ~_merged(cubes, k, tables)
                base = h << k
                while left:
                    lsb = left & -left
                    left ^= lsb
                    t = lsb.bit_length() - 1
                    primes.append(
                        (full ^ (high_free | free_of[t]), base | value_of[t])
                    )
        level = next_level
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
    """Prime implicants of a :class:`BooleanFunction` (on | dc).

    Passes the function's cached packed masks, through the module's
    :func:`prime_implicants` binding.
    """
    return prime_implicants(
        function.on_mask, function.dc_mask, function.width
    )


def all_primes_cover(function: BooleanFunction) -> list[Cube]:
    """The classic hazard-free SOP: every prime that touches the on-set.

    Including all such primes guarantees the two-level network has no
    static or dynamic hazard for any *single-bit* input change (the
    technique the paper calls "adding consensus gates", Section 2.1).
    """
    return useful_primes(primes_of(function), function.on_mask)
