"""Programmatic construction of flow tables.

The builder is the "state diagram" front door of Step 1 (paper Figure 3):
specifications written in code rather than KISS2 files.  It accumulates
cells, rejects conflicts immediately (with a good message, while the
caller still has context), and hands the structural checks to
:mod:`repro.flowtable.validation` at :meth:`FlowTableBuilder.build` time.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from ..errors import FlowTableError
from .table import Entry, FlowTable, input_limit_error
from .validation import validate


class FlowTableBuilder:
    """Accumulate flow-table cells and build a validated table.

    Example
    -------
    >>> b = FlowTableBuilder(inputs=["x1", "x2"], outputs=["z"])
    >>> b.stable("s0", "00", "0")
    >>> b.add("s0", "10", "s1", "-")
    >>> b.stable("s1", "10", "1")
    >>> b.add("s1", "00", "s0", "-")
    >>> table = b.build(reset="s0", name="demo", check=False)
    >>> table.num_states
    2
    """

    def __init__(self, inputs: Iterable[str], outputs: Iterable[str]):
        self._inputs = tuple(inputs)
        too_many = input_limit_error(len(self._inputs))
        if too_many:
            raise FlowTableError(too_many)
        self._outputs = tuple(outputs)
        self._states: list[str] = []
        self._entries: dict[tuple[str, int], Entry] = {}

    # ------------------------------------------------------------------
    def state(self, name: str) -> "FlowTableBuilder":
        """Declare a state explicitly (fixes ordering); idempotent."""
        if name not in self._states:
            self._states.append(name)
        return self

    def add(
        self,
        state: str,
        pattern: str | Mapping[str, int],
        next_state: str,
        outputs: str | Iterable[int | None] = "",
    ) -> "FlowTableBuilder":
        """Add one cell (or several, when the pattern has wildcards).

        ``pattern`` is a ``01-`` string over the inputs (position ``i`` is
        input ``i``) or an exact ``{name: bit}`` mapping.  ``outputs`` is a
        ``01-`` string or an iterable of bits/None; an empty string means
        all bits unspecified.
        """
        self.state(state)
        self.state(next_state)
        entry = Entry(next_state, self._parse_outputs(outputs))
        for column in self._expand(pattern):
            existing = self._entries.get((state, column))
            if existing is not None and existing != entry:
                raise FlowTableError(
                    f"conflicting entries for ({state!r}, column "
                    f"{self._column_string(column)}): {existing} vs {entry}"
                )
            self._entries[(state, column)] = entry
        return self

    def stable(
        self,
        state: str,
        pattern: str | Mapping[str, int],
        outputs: str | Iterable[int | None] = "",
    ) -> "FlowTableBuilder":
        """Mark ``state`` stable under ``pattern`` with the given outputs."""
        return self.add(state, pattern, state, outputs)

    def build(
        self,
        reset: str | None = None,
        name: str = "flow_table",
        check: bool = True,
    ) -> FlowTable:
        """Construct the :class:`FlowTable`.

        With ``check`` (the default) the structural requirements of the
        synthesis pipeline — normal mode, strong connectivity over stable
        states, at least one stable column per state — are enforced.
        """
        table = FlowTable(
            self._inputs, self._outputs, self._states, self._entries, reset, name
        )
        if check:
            validate(table)
        return table

    # ------------------------------------------------------------------
    def _expand(self, pattern: str | Mapping[str, int]) -> list[int]:
        if isinstance(pattern, str):
            if len(pattern) != len(self._inputs):
                raise FlowTableError(
                    f"pattern {pattern!r} is not {len(self._inputs)} bits"
                )
            columns = [0]
            for i, ch in enumerate(pattern):
                if ch == "1":
                    columns = [c | (1 << i) for c in columns]
                elif ch == "-":
                    columns = columns + [c | (1 << i) for c in columns]
                elif ch != "0":
                    raise FlowTableError(f"bad pattern character {ch!r}")
            return columns
        column = 0
        for i, input_name in enumerate(self._inputs):
            try:
                bit = pattern[input_name]
            except KeyError:
                raise FlowTableError(
                    f"pattern missing input {input_name!r}"
                ) from None
            if bit:
                column |= 1 << i
        return [column]

    def _parse_outputs(
        self, outputs: str | Iterable[int | None]
    ) -> tuple[int | None, ...]:
        if isinstance(outputs, str):
            if outputs == "":
                return (None,) * len(self._outputs)
            if len(outputs) != len(self._outputs):
                raise FlowTableError(
                    f"output pattern {outputs!r} is not "
                    f"{len(self._outputs)} bits"
                )
            return tuple(None if ch == "-" else int(ch) for ch in outputs)
        bits = tuple(outputs)
        if len(bits) != len(self._outputs):
            raise FlowTableError(
                f"{len(bits)} output bits supplied, expected "
                f"{len(self._outputs)}"
            )
        return bits

    def _column_string(self, column: int) -> str:
        return "".join(
            "1" if column >> i & 1 else "0" for i in range(len(self._inputs))
        )
