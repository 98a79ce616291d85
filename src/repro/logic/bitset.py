"""Packed-integer bitsets: the substrate of the two-level logic engine.

A set of minterms over ``width`` variables is a subset of
``{0, ..., 2**width - 1}`` and is represented here as a single Python
big-int in which bit ``m`` is 1 exactly when minterm ``m`` is a member.
Python's arbitrary-precision integers make every set operation a single
O(words) C-level pass — union is ``|``, intersection is ``&``, subset is
``a | b == b``, cardinality is ``int.bit_count`` — instead of an
O(minterms) interpreted loop over a ``set`` of boxed ints.  That constant
factor is what turns :data:`MAX_WIDTH` from a nominal limit into a usable
one (see ``benchmarks/bench_logic.py``).

The helpers here (:func:`mask_of`, :func:`iter_bits`,
:func:`coverage_mask`, ...) operate on raw ints; they are what the hot
paths in :mod:`~repro.logic.quine_mccluskey`, :mod:`~repro.logic.cover`
and :mod:`repro.util.setcover` use.

The key primitive is :func:`coverage_mask`: the bitset of every minterm a
cube ``(mask, value)`` covers, built by subset-doubling in O(width)
shifts rather than enumerating ``2**free`` minterms.

One dense int per mask holds ``2**width`` bits, so the representation is
what bounds the width: :data:`MAX_WIDTH` keeps every mask at or below
512 KiB.  SEANCE's functions are far narrower (a flow table's inputs, a
few state variables and the fsv), so the cap costs no real workload.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

#: Widest Boolean space the engine represents.  Each minterm set is one
#: dense ``2**width``-bit int; at 22 variables that is already 512 KiB
#: per mask, and every public entry point that takes a width raises
#: :class:`ValueError` above it (:func:`check_width`) instead of
#: allocating more.
MAX_WIDTH = 22


def check_width(width: int) -> None:
    """Raise :class:`ValueError` when ``width`` exceeds :data:`MAX_WIDTH`."""
    if width > MAX_WIDTH:
        raise ValueError(
            f"{width}-variable space exceeds MAX_WIDTH={MAX_WIDTH}"
        )


def popcount(bits: int) -> int:
    """Number of set bits (cardinality of the represented set)."""
    return bits.bit_count()


#: Members below this fold straight into one int (at most 64 words to
#: copy per member); higher ones are packed through a byte bitmap.
_FOLD_LIMIT = 1 << 12


def mask_of(members: Iterable[int]) -> int:
    """Pack an iterable of non-negative ints into one bitset int.

    Folding ``1 << m`` into one growing int copies that int per member,
    quadratic on a wide space, so members at or above
    :data:`_FOLD_LIMIT` are set in a byte bitmap that becomes an int
    once: the packing is linear in the members and the space.  A
    negative member raises :class:`ValueError`.
    """
    bits = 0
    high = []
    for m in members:
        if m < _FOLD_LIMIT:
            bits |= 1 << m
        else:
            high.append(m)
    if high:
        bitmap = bytearray((max(high) >> 3) + 1)
        for m in high:
            bitmap[m >> 3] |= 1 << (m & 7)
        bits |= int.from_bytes(bitmap, "little")
    return bits


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the set bit positions of ``bits`` in increasing order."""
    while bits:
        lsb = bits & -bits
        yield lsb.bit_length() - 1
        bits ^= lsb


def full_mask(width: int) -> int:
    """The bitset of the whole ``width``-variable Boolean space."""
    return (1 << (1 << width)) - 1


def is_subset(a: int, b: int) -> bool:
    """True when bitset ``a`` is contained in bitset ``b``."""
    return a | b == b


def coverage_mask(width: int, mask: int, value: int) -> int:
    """Packed bitset of every minterm the cube ``(mask, value)`` covers.

    A minterm ``m`` is covered when ``m & mask == value``.  Starting from
    the single minterm ``value``, freeing one variable at position ``p``
    doubles the set by shifting it up ``2**p`` — so the full coverage is
    built in O(width) big-int shifts.
    """
    bits = 1 << value
    free = ~mask & ((1 << width) - 1)
    while free:
        lsb = free & -free  # lsb == 2**p for free position p
        bits |= bits << lsb
        free ^= lsb
    return bits


def half_space(width: int, var: int) -> int:
    """Packed bitset of the minterms with variable ``var`` equal to 0.

    This is the alternating block pattern ``...0011`` with period
    ``2**(var+1)``, built by doubling; it restricts pair-shift tricks such
    as ``covered & (covered >> 2**var)`` to positions where the shift is a
    genuine single-variable flip (no carry into higher variables).
    """
    d = 1 << var
    pattern = (1 << d) - 1
    span = 2 * d
    total = 1 << width
    while span < total:
        pattern |= pattern << span
        span <<= 1
    return pattern
