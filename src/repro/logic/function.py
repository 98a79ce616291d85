"""Incompletely specified Boolean functions as explicit minterm sets.

SEANCE works on small spaces (a handful of inputs plus a handful of state
variables), so functions are stored extensionally: an *on-set* and a
*don't-care set* of minterm integers over named variables.  The off-set is
implied.  The public API exposes the sets as frozensets; the covering hot
paths work on the packed big-int bitsets (:attr:`BooleanFunction.on_mask`
and friends, lazily derived and cached), so coverage relations are
O(words) int algebra rather than per-minterm set loops
(:mod:`repro.logic.bitset`).  Each mask is one dense ``2**width``-bit
int, so functions wider than :data:`MAX_WIDTH` raise :class:`ValueError`.

Variable ``i`` of :attr:`BooleanFunction.names` corresponds to bit ``i`` of
a minterm integer (least-significant bit is variable 0), matching
:class:`repro.logic.cube.Cube`.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .bitset import MAX_WIDTH  # re-exported for callers of this module
from .bitset import check_width, iter_bits, mask_of
from .cube import Cube


@dataclass(frozen=True)
class BooleanFunction:
    """An incompletely specified Boolean function ``f(names) -> {0, 1, -}``.

    Parameters
    ----------
    names:
        Ordered variable names; ``names[i]`` is bit ``i`` of a minterm.
    on:
        Minterms where the function is 1.
    dc:
        Minterms where the function is unspecified (don't-care).

    The two sets must be disjoint and within range; everything else is the
    off-set.
    """

    names: tuple[str, ...]
    on: frozenset[int] = field(default_factory=frozenset)
    dc: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        check_width(len(names))
        on = frozenset(self.on)
        dc = frozenset(self.dc)
        object.__setattr__(self, "on", on)
        object.__setattr__(self, "dc", dc)
        space = 1 << len(names)
        for m in on | dc:
            if not 0 <= m < space:
                raise ValueError(
                    f"minterm {m} outside the {len(names)}-variable space"
                )
        if on & dc:
            raise ValueError(
                f"on-set and dc-set overlap on minterms {sorted(on & dc)}"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, names: Iterable[str], bit: int) -> "BooleanFunction":
        """The constant-0 or constant-1 function over ``names``."""
        names = tuple(names)
        check_width(len(names))
        if bit:
            return cls(names, frozenset(range(1 << len(names))), frozenset())
        return cls(names, frozenset(), frozenset())

    @classmethod
    def from_cubes(
        cls,
        names: Iterable[str],
        on_cubes: Iterable[Cube],
        dc_cubes: Iterable[Cube] = (),
    ) -> "BooleanFunction":
        """Build a function whose on-set is the union of ``on_cubes``.

        Don't-care cubes are applied after the on-set, so a minterm in both
        stays *on* (the cubes assert it).
        """
        names = tuple(names)
        check_width(len(names))
        on_bits = 0
        for cube in on_cubes:
            cls._check_cube_width(cube, names)
            on_bits |= cube.coverage_mask()
        dc_bits = 0
        for cube in dc_cubes:
            cls._check_cube_width(cube, names)
            dc_bits |= cube.coverage_mask()
        dc_bits &= ~on_bits
        return cls(
            names,
            frozenset(iter_bits(on_bits)),
            frozenset(iter_bits(dc_bits)),
        )

    @staticmethod
    def _check_cube_width(cube: Cube, names: tuple[str, ...]) -> None:
        if cube.width != len(names):
            raise ValueError(
                f"cube width {cube.width} does not match {len(names)} names"
            )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Number of variables."""
        return len(self.names)

    @property
    def space(self) -> int:
        """Size of the Boolean space, ``2 ** width``."""
        return 1 << self.width

    # ------------------------------------------------------------------
    # Packed-bitset views (lazily derived from the frozensets, cached)
    # ------------------------------------------------------------------
    @property
    def on_mask(self) -> int:
        """The on-set as a packed bitset (bit ``m`` set iff ``m`` on)."""
        cached = self.__dict__.get("_on_mask")
        if cached is None:
            cached = mask_of(self.on)
            object.__setattr__(self, "_on_mask", cached)
        return cached

    @property
    def dc_mask(self) -> int:
        """The don't-care set as a packed bitset."""
        cached = self.__dict__.get("_dc_mask")
        if cached is None:
            cached = mask_of(self.dc)
            object.__setattr__(self, "_dc_mask", cached)
        return cached

    @property
    def care_mask(self) -> int:
        """``on_mask | dc_mask`` as a packed bitset."""
        return self.on_mask | self.dc_mask

    @property
    def off_mask(self) -> int:
        """The implied off-set as a packed bitset int."""
        return ((1 << self.space) - 1) & ~self.on_mask & ~self.dc_mask

    @property
    def off(self) -> frozenset[int]:
        """The implied off-set (minterms that are neither on nor dc)."""
        return frozenset(iter_bits(self.off_mask))

    def value(self, minterm: int) -> int | None:
        """Function value at ``minterm``: 1, 0, or ``None`` for don't-care."""
        if not 0 <= minterm < self.space:
            raise ValueError(f"minterm {minterm} outside function space")
        if minterm in self.on:
            return 1
        if minterm in self.dc:
            return None
        return 0

    def value_at(self, assignment: dict[str, int]) -> int | None:
        """Function value at a named assignment covering every variable."""
        return self.value(self.encode(assignment))

    def encode(self, assignment: dict[str, int]) -> int:
        """Pack a ``{name: bit}`` assignment into a minterm integer."""
        minterm = 0
        for i, name in enumerate(self.names):
            try:
                bit = assignment[name]
            except KeyError:
                raise ValueError(f"assignment missing variable {name!r}") from None
            if bit:
                minterm |= 1 << i
        return minterm

    def decode(self, minterm: int) -> dict[str, int]:
        """Unpack a minterm integer into a ``{name: bit}`` assignment."""
        return {name: minterm >> i & 1 for i, name in enumerate(self.names)}

    def var_index(self, name: str) -> int:
        """Bit position of variable ``name``."""
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    # ------------------------------------------------------------------
    # Cover relations
    # ------------------------------------------------------------------
    def is_implicant(self, cube: Cube) -> bool:
        """True when ``cube`` never covers an off-set minterm."""
        self._check_cube_width(cube, self.names)
        return cube.coverage_mask() & self.off_mask == 0

    def is_cover(self, cubes: Iterable[Cube]) -> bool:
        """True when ``cubes`` covers the on-set and avoids the off-set."""
        covered = 0
        off_mask = self.off_mask
        for cube in cubes:
            self._check_cube_width(cube, self.names)
            coverage = cube.coverage_mask()
            if coverage & off_mask:
                return False
            covered |= coverage
        return self.on_mask & ~covered == 0

    def cover_equals_on_care_set(self, cubes: Iterable[Cube]) -> bool:
        """True when the cover agrees with the function on every care point.

        With packed sets this is one mask equality: the covered minterms,
        restricted to the care set, must be exactly the on-set.
        """
        covered = 0
        for cube in cubes:
            self._check_cube_width(cube, self.names)
            covered |= cube.coverage_mask()
        return covered & ~self.dc_mask == self.on_mask

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def complement(self) -> "BooleanFunction":
        """Function with on-set and off-set exchanged (dc preserved)."""
        return BooleanFunction(self.names, self.off, self.dc)

    def specify(self, minterm: int, bit: int) -> "BooleanFunction":
        """Pin one minterm to ``bit``, overriding its current value."""
        on = set(self.on)
        dc = set(self.dc)
        on.discard(minterm)
        dc.discard(minterm)
        if bit:
            on.add(minterm)
        return BooleanFunction(self.names, frozenset(on), frozenset(dc))

    def fill_dc(self, bit: int) -> "BooleanFunction":
        """Resolve every don't-care to ``bit`` (completely specify)."""
        if bit:
            return BooleanFunction(self.names, self.on | self.dc, frozenset())
        return BooleanFunction(self.names, self.on, frozenset())

    def cofactor(self, name: str, bit: int) -> "BooleanFunction":
        """Shannon cofactor with respect to ``name = bit``.

        The resulting function drops ``name`` from its variable list; the
        remaining variables keep their relative order.
        """
        var = self.var_index(name)
        new_names = self.names[:var] + self.names[var + 1 :]

        def squeeze(minterm: int) -> int:
            low = minterm & ((1 << var) - 1)
            high = minterm >> (var + 1)
            return low | (high << var)

        want = 1 if bit else 0
        on = frozenset(
            squeeze(m) for m in self.on if (m >> var & 1) == want
        )
        dc = frozenset(
            squeeze(m) for m in self.dc if (m >> var & 1) == want
        )
        return BooleanFunction(new_names, on, dc)

    def rename(self, mapping: dict[str, str]) -> "BooleanFunction":
        """Function with variables renamed through ``mapping`` (order kept)."""
        names = tuple(mapping.get(n, n) for n in self.names)
        return BooleanFunction(names, self.on, self.dc)

    # ------------------------------------------------------------------
    def __str__(self) -> str:
        return (
            f"BooleanFunction({', '.join(self.names)}; "
            f"|on|={len(self.on)}, |dc|={len(self.dc)})"
        )


def truth_table(function: BooleanFunction) -> list[int | None]:
    """The full truth table of ``function`` as a list indexed by minterm."""
    return [function.value(m) for m in range(function.space)]
