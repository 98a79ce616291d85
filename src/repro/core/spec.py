"""The specified (encoded) flow table and its excitation model.

Once Step 3 has assigned codes, the machine lives in the combined space
``(x, y)``: input variables ``x1..xj`` on the low bits and state variables
``y1..yn`` above them (bit ``j + k`` is ``y_{k+1}``).  This module derives
the Boolean functions the remaining pipeline stages consume:

* the **excitation** (next-state) functions ``Y_n(x, y)``,
* the **output** functions ``Z_k(x, y)``,
* the **stable-state detector** on-set (``y == Y``).

Excitation filling.  A USTT transition ``s -> t`` in column ``c`` must
excite *every* code inside the subcube spanned by ``code(s)`` and
``code(t)`` toward ``code(t)``: the state vector flies through that
subcube with arbitrary bit ordering, and each intermediate code must keep
driving the remaining changes (the "single transition time" discipline of
Tracey/Unger).  Tracey's disjointness condition guarantees the fills of
different transitions in one column never conflict; the builder checks
anyway and reports a broken encoding rather than producing nonsense.
"""

from __future__ import annotations

from functools import cached_property

from ..assign.encoding import StateEncoding
from ..errors import SynthesisError
from ..flowtable.table import FlowTable
from ..logic.function import BooleanFunction


class SpecifiedMachine:
    """A flow table married to a USTT state encoding.

    The class is an immutable view: it owns no synthesis decisions, it
    just exposes the encoded machine as Boolean functions with the
    library-wide bit packing (inputs low, state variables high).
    """

    def __init__(self, table: FlowTable, encoding: StateEncoding):
        missing = [s for s in table.states if s not in encoding.codes]
        if missing:
            raise SynthesisError(
                f"encoding misses states {missing}"
            )
        self.table = table
        self.encoding = encoding

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def num_inputs(self) -> int:
        return self.table.num_inputs

    @property
    def num_state_vars(self) -> int:
        return self.encoding.num_variables

    @property
    def names(self) -> tuple[str, ...]:
        """Variable names of the (x, y) space, inputs first."""
        return self.table.inputs + self.encoding.variables

    @property
    def width(self) -> int:
        return self.num_inputs + self.num_state_vars

    @property
    def space(self) -> int:
        return 1 << self.width

    def pack(self, column: int, code: int) -> int:
        """Combine an input column and a state code into one minterm."""
        return column | (code << self.num_inputs)

    def unpack(self, minterm: int) -> tuple[int, int]:
        """Split a minterm into (input column, state code)."""
        column = minterm & ((1 << self.num_inputs) - 1)
        code = minterm >> self.num_inputs
        return column, code

    def point(self, state: str, column: int) -> int:
        """The minterm of flow-table cell ``(state, column)``."""
        return self.pack(column, self.encoding.code(state))

    def state_at(self, minterm: int) -> str | None:
        """The state whose code appears in ``minterm`` (None if unused)."""
        _, code = self.unpack(minterm)
        return self.encoding.state_of(code)

    # ------------------------------------------------------------------
    # Excitation
    # ------------------------------------------------------------------
    @cached_property
    def _excitation_codes(self) -> dict[int, int]:
        """Map minterm -> excited full state code (USTT-filled).

        Built by walking every specified entry and filling the spanned
        transition subcube with the destination code.  Minterms absent
        from the map are don't-cares of every excitation function.
        """
        filled: dict[int, int] = {}
        provenance: dict[int, tuple[str, str]] = {}
        for state, column, entry in self.table.specified_entries():
            dest = entry.next_state
            assert dest is not None
            code_s = self.encoding.code(state)
            code_t = self.encoding.code(dest)
            diff = code_s ^ code_t
            bits = [i for i in range(diff.bit_length()) if diff >> i & 1]
            for combo in range(1 << len(bits)):
                code_w = code_s
                for j, bit in enumerate(bits):
                    if combo >> j & 1:
                        code_w ^= 1 << bit
                minterm = self.pack(column, code_w)
                if minterm in filled and filled[minterm] != code_t:
                    prev = provenance[minterm]
                    raise SynthesisError(
                        f"excitation conflict at column "
                        f"{self.table.column_string(column)}, code "
                        f"{code_w:0{self.num_state_vars}b}: transitions "
                        f"{prev[0]}->{prev[1]} and {state}->{dest} overlap "
                        f"(encoding is not USTT)"
                    )
                filled[minterm] = code_t
                provenance[minterm] = (state, dest)
        return filled

    def excitation_code(self, minterm: int) -> int | None:
        """Full excited code at a minterm, ``None`` where unspecified."""
        return self._excitation_codes.get(minterm)

    def excitation(self, var_index: int) -> BooleanFunction:
        """The excitation function ``Y_{var_index+1}(x, y)``."""
        if not 0 <= var_index < self.num_state_vars:
            raise SynthesisError(
                f"state variable index {var_index} out of range"
            )
        on = set()
        dc = set()
        codes = self._excitation_codes
        for minterm in range(self.space):
            target = codes.get(minterm)
            if target is None:
                dc.add(minterm)
            elif target >> var_index & 1:
                on.add(minterm)
        return BooleanFunction(self.names, frozenset(on), frozenset(dc))

    def excitations(self) -> list[BooleanFunction]:
        """All excitation functions, index ``n`` being ``y{n+1}``."""
        return [self.excitation(n) for n in range(self.num_state_vars)]

    # ------------------------------------------------------------------
    # Outputs
    # ------------------------------------------------------------------
    def output_function(
        self, output_index: int, policy: str = "stable_only"
    ) -> BooleanFunction:
        """The output function ``Z_{output_index+1}(x, y)``.

        Policies:

        ``stable_only`` (default)
            Only stable points carry specified values; everything else is
            a don't-care.  Sound for FANTOM because ``FFZ`` latches ``Ẑ``
            exactly when ``VOM`` rises, which happens only at stable
            points — and it maximises minimisation freedom (the basis of
            the paper's Step 4 remark that transient output hazards need
            no treatment).

        ``as_specified``
            Honour every specified output bit, stable or not (the classic
            unlatched-Mealy reading; used by the baselines).
        """
        if policy not in ("stable_only", "as_specified"):
            raise SynthesisError(f"unknown output policy {policy!r}")
        on = set()
        dc = set(range(self.space))
        for state, column, entry in self.table.specified_entries():
            stable = entry.next_state == state
            if policy == "stable_only" and not stable:
                continue
            bit = entry.outputs[output_index]
            if bit is None:
                continue
            minterm = self.point(state, column)
            dc.discard(minterm)
            if bit:
                on.add(minterm)
        return BooleanFunction(
            self.names, frozenset(on), frozenset(dc - on)
        )

    # ------------------------------------------------------------------
    # Stability
    # ------------------------------------------------------------------
    def stable_minterms(self) -> frozenset[int]:
        """Minterms of the stable points of the encoded machine."""
        return frozenset(
            self.point(state, column)
            for state, column in self.table.stable_points()
        )

    def ssd_function(self, dc_policy: str = "unspecified") -> BooleanFunction:
        """The stable-state-detector function ``SSD(x, y)``.

        On-set: the stable points (``y == Y`` there by construction).
        Off-set: every minterm whose filled excitation differs from its
        own code — unstable entries and every in-flight code of every
        transition subcube, so ``SSD`` cannot pulse while the state vector
        is between codes.

        ``dc_policy`` controls the rest of the space (codes no transition
        ever visits):

        ``unspecified`` (default)
            Don't-care.  Safe under the loop-delay assumption: the state
            vector only leaves specified territory during the input-skew
            window, when ``G`` is still high and ``VOM`` is therefore held
            low regardless of ``SSD``.

        ``strict``
            Off.  The paper's canonical reading ("minterms where y = Y"
            and nothing else); costs cover size, buys independence from
            the skew-window argument.
        """
        if dc_policy not in ("unspecified", "strict"):
            raise SynthesisError(f"unknown SSD dc policy {dc_policy!r}")
        on = set()
        off = set()
        codes = self._excitation_codes
        for minterm in range(self.space):
            target = codes.get(minterm)
            if target is None:
                if dc_policy == "strict":
                    off.add(minterm)
                continue
            _, code = self.unpack(minterm)
            if target == code:
                on.add(minterm)
            else:
                off.add(minterm)
        dc = frozenset(range(self.space)) - frozenset(on) - frozenset(off)
        return BooleanFunction(self.names, frozenset(on), dc)
