"""Cubes (implicants) over a fixed-width Boolean space.

A *cube* is a product term over ``width`` Boolean variables.  Each variable
is either bound to 0, bound to 1, or free (a don't-care position, written
``-``).  Cubes are the working currency of the two-level logic engine:
Quine-McCluskey produces prime-implicant cubes, covering selects a subset,
and the hazard-factoring stage of SEANCE manipulates them further.

Representation
--------------
A cube stores two integers:

``mask``
    bit ``i`` is 1 when variable ``i`` is *bound* (appears as a literal).
``value``
    bit ``i`` gives the bound polarity of variable ``i``; bits outside
    ``mask`` are kept at zero so equal cubes compare equal.

Variable ``i`` corresponds to bit ``i`` (the least-significant bit is
variable 0).  String forms such as ``"10-"`` list variables left to right,
so ``"10-"`` over variables ``(a, b, c)`` means ``a=1, b=0, c free``.

Cubes are immutable, hashable and totally ordered (ordering is structural:
by width, mask, value) so they can live in sets and sorted lists.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import Optional

from .bitset import coverage_mask as _coverage_mask
from .bitset import iter_bits
from .bitset import popcount  # re-exported: this was the helper's home


@dataclass(frozen=True, order=True)
class Cube:
    """An immutable product term over ``width`` Boolean variables."""

    width: int
    mask: int
    value: int

    def __post_init__(self) -> None:
        if self.width < 0:
            raise ValueError(f"cube width must be non-negative, got {self.width}")
        full = (1 << self.width) - 1
        if self.mask & ~full:
            raise ValueError(
                f"mask {self.mask:#x} has bits outside width {self.width}"
            )
        if self.value & ~full:
            raise ValueError(
                f"value {self.value:#x} has bits outside width {self.width}"
            )
        if self.value & ~self.mask:
            # Canonicalise: value bits are meaningful only under the mask.
            object.__setattr__(self, "value", self.value & self.mask)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def universe(cls, width: int) -> "Cube":
        """The cube binding no variable (the whole Boolean space)."""
        return cls(width, 0, 0)

    @classmethod
    def from_minterm(cls, minterm: int, width: int) -> "Cube":
        """The zero-dimensional cube containing exactly ``minterm``."""
        full = (1 << width) - 1
        if minterm & ~full:
            raise ValueError(f"minterm {minterm} outside {width}-variable space")
        return cls(width, full, minterm)

    @classmethod
    def from_string(cls, text: str) -> "Cube":
        """Parse a cube from a ``01-`` string; position ``i`` is variable ``i``."""
        mask = 0
        value = 0
        for i, ch in enumerate(text):
            if ch == "1":
                mask |= 1 << i
                value |= 1 << i
            elif ch == "0":
                mask |= 1 << i
            elif ch in "-xX":
                pass
            else:
                raise ValueError(f"invalid cube character {ch!r} in {text!r}")
        return cls(len(text), mask, value)

    @classmethod
    def from_bits(cls, bits: dict[int, int], width: int) -> "Cube":
        """Build a cube from an explicit ``{variable_index: 0 or 1}`` mapping."""
        mask = 0
        value = 0
        for var, bit in bits.items():
            if not 0 <= var < width:
                raise ValueError(f"variable index {var} outside width {width}")
            mask |= 1 << var
            if bit:
                value |= 1 << var
        return cls(width, mask, value)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_literals(self) -> int:
        """Number of bound variables (literals in the product term)."""
        return popcount(self.mask)

    @property
    def num_free(self) -> int:
        """Number of free (don't-care) variables."""
        return self.width - self.num_literals

    @property
    def size(self) -> int:
        """Number of minterms the cube contains (``2 ** num_free``)."""
        return 1 << self.num_free

    def literal(self, var: int) -> Optional[int]:
        """Polarity of variable ``var``: 1, 0, or ``None`` when free."""
        if not self.mask >> var & 1:
            return None
        return self.value >> var & 1

    def contains(self, minterm: int) -> bool:
        """True when ``minterm`` satisfies every literal of the cube."""
        return (minterm & self.mask) == self.value

    def contains_cube(self, other: "Cube") -> bool:
        """True when every minterm of ``other`` lies inside ``self``."""
        self._check_width(other)
        if self.mask & ~other.mask:
            return False  # self binds a variable other leaves free
        return (self.value ^ other.value) & self.mask == 0

    def intersects(self, other: "Cube") -> bool:
        """True when the two cubes share at least one minterm."""
        self._check_width(other)
        return (self.value ^ other.value) & self.mask & other.mask == 0

    def minterms(self) -> Iterator[int]:
        """Yield every minterm of the cube in increasing order."""
        return iter_bits(self.coverage_mask())

    def coverage_mask(self) -> int:
        """Packed bitset of every minterm the cube covers.

        Bit ``m`` of the returned int is 1 exactly when
        :meth:`contains(m) <contains>` holds; the mask is ``2**width`` bits
        wide and is built in O(width) big-int shifts
        (:func:`repro.logic.bitset.coverage_mask`).  This is the engine
        primitive behind the rewritten covering hot paths: coverage tests
        become word-parallel ``&``/``|`` instead of per-minterm loops.
        """
        return _coverage_mask(self.width, self.mask, self.value)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def intersect(self, other: "Cube") -> Optional["Cube"]:
        """The product of the two cubes, or ``None`` when they conflict."""
        self._check_width(other)
        if not self.intersects(other):
            return None
        return Cube(self.width, self.mask | other.mask, self.value | other.value)

    def supercube(self, other: "Cube") -> "Cube":
        """The smallest cube containing both operands."""
        self._check_width(other)
        agree = self.mask & other.mask & ~(self.value ^ other.value)
        return Cube(self.width, agree, self.value & agree)

    def distance(self, other: "Cube") -> int:
        """Number of variables bound to opposite polarities in both cubes."""
        self._check_width(other)
        return popcount((self.value ^ other.value) & self.mask & other.mask)

    def merge(self, other: "Cube") -> Optional["Cube"]:
        """Quine-McCluskey adjacency merge.

        Two cubes merge when they bind the same variables and differ in the
        polarity of exactly one of them; the result frees that variable.
        Returns ``None`` when the cubes are not adjacent.
        """
        self._check_width(other)
        if self.mask != other.mask:
            return None
        diff = self.value ^ other.value
        if popcount(diff) != 1:
            return None
        return Cube(self.width, self.mask & ~diff, self.value & ~diff)

    def consensus(self, other: "Cube") -> Optional["Cube"]:
        """The consensus term of two cubes, or ``None`` when undefined.

        The consensus exists when the cubes conflict in exactly one bound
        variable; it is the product of both cubes with that variable freed.
        The consensus is an implicant of ``self OR other`` and is the
        standard device for bridging a hazardous pair of adjacent cubes.
        """
        self._check_width(other)
        conflict = (self.value ^ other.value) & self.mask & other.mask
        if popcount(conflict) != 1:
            return None
        mask = (self.mask | other.mask) & ~conflict
        value = (self.value | other.value) & mask
        return Cube(self.width, mask, value)

    def cofactor(self, var: int, bit: int) -> Optional["Cube"]:
        """Cube with variable ``var`` fixed to ``bit`` and removed.

        Returns ``None`` when the cube binds ``var`` to the opposite value
        (the cofactor is empty).  The result keeps the same width; ``var``
        simply becomes free, which keeps variable indices stable.
        """
        lit = self.literal(var)
        if lit is not None and lit != bit:
            return None
        pos = 1 << var
        return Cube(self.width, self.mask & ~pos, self.value & ~pos)

    def expand(self, var: int, bit: int) -> "Cube":
        """Cube with the additional literal ``var = bit``.

        Raises :class:`ValueError` when the cube already binds ``var`` to
        the opposite polarity.
        """
        lit = self.literal(var)
        if lit is not None and lit != bit:
            raise ValueError(f"cube already binds variable {var} to {lit}")
        pos = 1 << var
        value = self.value | (pos if bit else 0)
        return Cube(self.width, self.mask | pos, value)

    def drop(self, var: int) -> "Cube":
        """Cube with variable ``var`` freed (literal removed)."""
        pos = 1 << var
        return Cube(self.width, self.mask & ~pos, self.value & ~pos)

    def restricted_to(self, keep: int) -> "Cube":
        """Cube with only the variables in bit-set ``keep`` retained."""
        return Cube(self.width, self.mask & keep, self.value & keep)

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    def to_string(self) -> str:
        """Render as a ``01-`` string, position ``i`` being variable ``i``."""
        chars = []
        for i in range(self.width):
            if not self.mask >> i & 1:
                chars.append("-")
            elif self.value >> i & 1:
                chars.append("1")
            else:
                chars.append("0")
        return "".join(chars)

    def to_term(self, names: list[str] | tuple[str, ...]) -> str:
        """Render as a product term such as ``x1·y2'`` using ``names``.

        A cube with no literals renders as ``1`` (the constant-true term).
        """
        if len(names) != self.width:
            raise ValueError(
                f"{len(names)} names supplied for width-{self.width} cube"
            )
        parts = []
        for i in range(self.width):
            lit = self.literal(i)
            if lit is None:
                continue
            parts.append(names[i] if lit else names[i] + "'")
        return "·".join(parts) if parts else "1"

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"Cube({self.to_string()!r})"

    # ------------------------------------------------------------------
    def _check_width(self, other: "Cube") -> None:
        if self.width != other.width:
            raise ValueError(
                f"cube width mismatch: {self.width} vs {other.width}"
            )


def cover_contains(cubes: list[Cube] | tuple[Cube, ...], minterm: int) -> bool:
    """True when any cube in ``cubes`` contains ``minterm``."""
    return any(cube.contains(minterm) for cube in cubes)


def remove_contained(cubes: list[Cube]) -> list[Cube]:
    """Drop every cube that is single-cube-contained by another in the list.

    This is *single-cube containment* only (cheap); it does not detect a
    cube covered by the union of several others.  Order is preserved for
    the survivors.
    """
    survivors: list[Cube] = []
    for i, cube in enumerate(cubes):
        contained = False
        for j, other in enumerate(cubes):
            if i == j:
                continue
            if other.contains_cube(cube):
                # Of two equal cubes keep the first occurrence.
                if other == cube and j > i:
                    continue
                contained = True
                break
        if not contained:
            survivors.append(cube)
    return survivors
