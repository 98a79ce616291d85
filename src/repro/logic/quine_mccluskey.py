"""Quine-McCluskey prime-implicant generation on row-sliced bitsets.

SEANCE's Output Determination stage (paper Section 5.2) and the hazard
factoring stage (Section 5.3 / Figure 5) both rely on classic
Quine-McCluskey reduction: the ``Z`` and ``SSD`` equations are reduced to
an *essential* sum-of-products, while ``fsv`` is "reduced to all its prime
implicants" to make it free of logic hazards under single-bit changes.

This module provides the prime-generation half; cover selection lives in
:mod:`repro.logic.cover`.

The tabulation works on sets of *free variables* rather than on
individual implicants.  For a free set ``F`` let ``I_F`` be the base
points of the implicants that leave exactly ``F`` free: the minterms
``v`` with every ``F`` bit 0 whose whole cube ``(F, v)`` lies in the
care set.  ``I_{}`` is the care set itself, and ``I_{F+i}`` is the join
of ``I_F`` along variable ``i``: the points of ``I_F`` whose neighbour
across ``i`` is in ``I_F`` too.  A cube ``(F, v)`` is prime exactly when
no join of ``I_F`` reaches ``v``, so the primes of ``F`` are ``I_F``
minus what each ``I_{F+i}`` covers (the joined points and their
neighbours across ``i``).

Each ``I_F`` is stored *row-sliced*: a dict from the high minterm bits
to an int bitmap of the low ``k = min(width, ROW_BITS)`` bits, holding
only non-empty rows.  A join along a low variable ``i`` is
``r & (r >> 2**i)`` masked to the positions whose bit ``i`` is 0, three
int ops per row; a join along a high variable ANDs two rows.  The
paper's tables and the fuzz corpus reduce functions of 3 to 7
variables, which fit in one row, so their whole tabulation is a few int
ops per (free set, variable); a wide, sparse function touches only its
non-empty rows instead of one dense ``2**width``-bit int per free set.
Each free set is reached once, from the set without its highest
variable, and one level of free sets is kept at a time.  The primes,
as ``(bound mask, value)`` pairs, are sorted before any
:class:`~repro.logic.cube.Cube` is built, which gives the order the
reference pins.  The original per-Cube tabulation is retained in
:mod:`repro.logic._reference` and pinned equal to this one; see
``benchmarks/bench_logic.py`` for the scaling.  Complexity is still
exponential in the variable count, which is capped by
:data:`repro.logic.bitset.MAX_WIDTH`.
"""

from __future__ import annotations

from collections.abc import Iterable

from .bitset import check_width, mask_of
from .cube import Cube
from .function import BooleanFunction

#: Low minterm bits held in one row bitmap (a row spans ``2**ROW_BITS``
#: minterms, 32 bytes).  Wider functions split into ``2**(width -
#: ROW_BITS)`` rows, of which only the non-empty ones are stored.
ROW_BITS = 8

#: ``_LOW_ZERO[i]``: the row positions whose bit ``i`` is 0 (where a
#: join along low variable ``i`` may land).
_LOW_ZERO = tuple(
    sum(1 << p for p in range(1 << ROW_BITS) if not p >> i & 1)
    for i in range(ROW_BITS)
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

    full = space - 1
    variables = range(width)
    primes: list[tuple[int, int]] = []
    # One level of free sets at a time: free mask -> I_F's rows.
    level = {0: care}
    while level:
        next_level: dict[int, dict] = {}
        for free, rows in level.items():
            top = free.bit_length()
            covered: dict[int, int] = {}
            for i in variables:
                bit = 1 << i
                if free & bit:
                    continue
                joined = {}
                if i < k:
                    shift = 1 << i
                    zero = _LOW_ZERO[i]
                    for h, r in rows.items():
                        j = r & (r >> shift) & zero
                        if j:
                            joined[h] = j
                            covered[h] = covered.get(h, 0) | j | (j << shift)
                else:
                    high = 1 << (i - k)
                    for h, r in rows.items():
                        if not h & high:
                            j = r & rows.get(h | high, 0)
                            if j:
                                joined[h] = j
                                covered[h] = covered.get(h, 0) | j
                                covered[h | high] = (
                                    covered.get(h | high, 0) | j
                                )
                # Every join marks coverage, but F + i is kept only when
                # i is its highest variable, so each free set is built
                # once, from the set without that variable.
                if joined and i >= top:
                    next_level[free | bit] = joined
            mask = full ^ free
            for h, r in rows.items():
                r &= ~covered.get(h, 0)
                base = h << k
                while r:
                    lsb = r & -r
                    r ^= lsb
                    primes.append((mask, base | (lsb.bit_length() - 1)))
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
