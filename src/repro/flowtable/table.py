"""Huffman flow tables: the input specification of SEANCE.

A flow table describes an asynchronous machine's behaviour as a matrix:
rows are internal states, columns are total input vectors, and each entry
names the successor state (plus the Mealy output vector).  An entry whose
successor equals its own row is *stable* — the machine rests there until
the inputs change.  The paper requires *normal mode* tables: every unstable
entry leads directly to a state that is stable in the same column, so each
input change causes at most one state traversal.

Tables may be incompletely specified (paper Section 5.1): both successor
states and output bits can be left unspecified, which later stages exploit
as don't-cares.

Column encoding
---------------
Input columns are integers: bit ``i`` of a column is the value of input
``inputs[i]`` — the same least-significant-bit-first packing used by
:mod:`repro.logic`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field

from ..errors import FlowTableError


@dataclass(frozen=True)
class Entry:
    """One flow-table cell: successor state and Mealy outputs.

    ``next_state`` is ``None`` when the successor is unspecified.  Each
    output bit is 0, 1 or ``None`` (unspecified).
    """

    next_state: str | None
    outputs: tuple[int | None, ...]

    def __post_init__(self) -> None:
        for bit in self.outputs:
            if bit not in (0, 1, None):
                raise ValueError(f"output bit must be 0, 1 or None, got {bit!r}")

    @property
    def is_specified(self) -> bool:
        """True when the successor state is specified."""
        return self.next_state is not None


@dataclass(frozen=True)
class Transition:
    """A stable-state transition: the unit the hazard analysis walks.

    The machine rests in ``state`` under input column ``from_column``; the
    inputs change to ``to_column``; the table sends it to ``dest`` (which
    normal mode guarantees is stable in ``to_column``).  ``dest`` may equal
    ``state`` — the input changed but the state did not.
    """

    state: str
    from_column: int
    to_column: int
    dest: str

    def input_distance(self) -> int:
        """Hamming distance between the two input columns."""
        return (self.from_column ^ self.to_column).bit_count()

    def intermediate_columns(self) -> Iterator[int]:
        """Every strictly intermediate input vector of the change.

        These are the vectors inside the transition cube spanned by the two
        columns, excluding the endpoints: vectors that agree with
        ``from_column`` outside the changing bits and take any non-trivial,
        non-final combination on the changing bits.  Physical skew between
        input flip-flops can expose any of them momentarily.
        """
        diff = self.from_column ^ self.to_column
        changing = [i for i in range(diff.bit_length()) if diff >> i & 1]
        for combo in range(1, 1 << len(changing)):
            if combo == (1 << len(changing)) - 1:
                continue  # that is to_column itself
            column = self.from_column
            for j, bit in enumerate(changing):
                if combo >> j & 1:
                    column ^= 1 << bit
            yield column


class FlowTable:
    """An immutable normal-mode Huffman flow table.

    Instances are usually produced by :class:`~repro.flowtable.builder.
    FlowTableBuilder` or :func:`~repro.flowtable.kiss.parse_kiss`; the
    constructor validates only local consistency (state names, column
    ranges, output widths).  Structural requirements — normal mode, strong
    connectivity — are checked by :mod:`repro.flowtable.validation`, which
    the synthesis pipeline invokes.
    """

    def __init__(
        self,
        inputs: Iterable[str],
        outputs: Iterable[str],
        states: Iterable[str],
        entries: Mapping[tuple[str, int], Entry],
        reset_state: str | None = None,
        name: str = "flow_table",
    ):
        self._inputs = tuple(inputs)
        self._outputs = tuple(outputs)
        self._states = tuple(states)
        self._name = name
        if len(set(self._inputs)) != len(self._inputs):
            raise FlowTableError(f"duplicate input names: {self._inputs}")
        if len(set(self._outputs)) != len(self._outputs):
            raise FlowTableError(f"duplicate output names: {self._outputs}")
        if len(set(self._states)) != len(self._states):
            raise FlowTableError(f"duplicate state names: {self._states}")
        if not self._states:
            raise FlowTableError("a flow table needs at least one state")
        if not self._inputs:
            raise FlowTableError("a flow table needs at least one input")
        state_set = set(self._states)
        num_columns = 1 << len(self._inputs)
        checked: dict[tuple[str, int], Entry] = {}
        for (state, column), entry in entries.items():
            if state not in state_set:
                raise FlowTableError(f"entry references unknown state {state!r}")
            if not 0 <= column < num_columns:
                raise FlowTableError(
                    f"column {column} outside the {len(self._inputs)}-input space"
                )
            if entry.next_state is not None and entry.next_state not in state_set:
                raise FlowTableError(
                    f"entry ({state!r}, {column:0{len(self._inputs)}b}) points at "
                    f"unknown state {entry.next_state!r}"
                )
            if len(entry.outputs) != len(self._outputs):
                raise FlowTableError(
                    f"entry ({state!r}, {column}) has {len(entry.outputs)} output "
                    f"bits, expected {len(self._outputs)}"
                )
            checked[(state, column)] = entry
        self._entries = checked
        if reset_state is not None and reset_state not in state_set:
            raise FlowTableError(f"unknown reset state {reset_state!r}")
        self._reset_state = reset_state
        #: shared blank cell — ``entry()`` is the innermost call of every
        #: interpreter step, and rebuilding the blank per miss dominates
        #: its cost.
        self._blank = Entry(None, (None,) * len(self._outputs))

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def inputs(self) -> tuple[str, ...]:
        return self._inputs

    @property
    def outputs(self) -> tuple[str, ...]:
        return self._outputs

    @property
    def states(self) -> tuple[str, ...]:
        return self._states

    @property
    def reset_state(self) -> str | None:
        return self._reset_state

    @property
    def num_inputs(self) -> int:
        return len(self._inputs)

    @property
    def num_outputs(self) -> int:
        return len(self._outputs)

    @property
    def num_states(self) -> int:
        return len(self._states)

    @property
    def num_columns(self) -> int:
        return 1 << len(self._inputs)

    @property
    def columns(self) -> range:
        """All input columns, as integers (bit ``i`` = input ``i``)."""
        return range(self.num_columns)

    def column_of(self, pattern: str | Mapping[str, int]) -> int:
        """Pack an input pattern into a column integer.

        Accepts a ``01`` string (position ``i`` is input ``i``) or a
        ``{input_name: bit}`` mapping covering every input.
        """
        if isinstance(pattern, str):
            if len(pattern) != self.num_inputs or any(
                ch not in "01" for ch in pattern
            ):
                raise FlowTableError(
                    f"input pattern {pattern!r} is not a {self.num_inputs}-bit "
                    f"binary string"
                )
            return sum(1 << i for i, ch in enumerate(pattern) if ch == "1")
        column = 0
        for i, name in enumerate(self._inputs):
            try:
                bit = pattern[name]
            except KeyError:
                raise FlowTableError(f"pattern missing input {name!r}") from None
            if bit:
                column |= 1 << i
        return column

    def column_string(self, column: int) -> str:
        """Render a column integer as a ``01`` string (position i = input i)."""
        return "".join("1" if column >> i & 1 else "0" for i in range(self.num_inputs))

    # ------------------------------------------------------------------
    # Entries
    # ------------------------------------------------------------------
    def entry(self, state: str, column: int) -> Entry:
        """The cell for ``(state, column)``; unspecified cells are blank."""
        self._check_state(state)
        if not 0 <= column < self.num_columns:
            raise FlowTableError(f"column {column} out of range")
        return self._entries.get((state, column), self._blank)

    def next_state(self, state: str, column: int) -> str | None:
        return self.entry(state, column).next_state

    def output_vector(self, state: str, column: int) -> tuple[int | None, ...]:
        return self.entry(state, column).outputs

    def is_stable(self, state: str, column: int) -> bool:
        """True when the entry is specified and loops back to its row."""
        return self.next_state(state, column) == state

    def is_specified(self, state: str, column: int) -> bool:
        return self.entry(state, column).is_specified

    def stable_columns(self, state: str) -> list[int]:
        """Columns in which ``state`` is stable."""
        return [c for c in self.columns if self.is_stable(state, c)]

    def stable_points(self) -> Iterator[tuple[str, int]]:
        """All (state, column) pairs where the machine can rest."""
        for state in self._states:
            for column in self.columns:
                if self.is_stable(state, column):
                    yield (state, column)

    def specified_entries(self) -> Iterator[tuple[str, int, Entry]]:
        """All specified cells, in deterministic (state, column) order."""
        for state in self._states:
            for column in self.columns:
                entry = self._entries.get((state, column))
                if entry is not None and entry.is_specified:
                    yield state, column, entry

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------
    def transitions(
        self, min_input_distance: int = 1
    ) -> Iterator[Transition]:
        """All stable-state transitions of the table.

        For every stable point ``(s, a)`` and every other column ``b`` with
        a specified entry, yields the transition ``(s, a) -> entry(s, b)``.
        ``min_input_distance`` filters by input Hamming distance; the
        hazard search passes 2 to walk only multiple-input changes.
        """
        for state, from_column in self.stable_points():
            for to_column in self.columns:
                if to_column == from_column:
                    continue
                distance = (from_column ^ to_column).bit_count()
                if distance < min_input_distance:
                    continue
                dest = self.next_state(state, to_column)
                if dest is None:
                    continue
                yield Transition(state, from_column, to_column, dest)

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def with_name(self, name: str) -> "FlowTable":
        return FlowTable(
            self._inputs,
            self._outputs,
            self._states,
            self._entries,
            self._reset_state,
            name,
        )

    def replace_entries(
        self, entries: Mapping[tuple[str, int], Entry]
    ) -> "FlowTable":
        """A copy of the table with a different entry map."""
        return FlowTable(
            self._inputs,
            self._outputs,
            self._states,
            entries,
            self._reset_state,
            self._name,
        )

    def entry_map(self) -> dict[tuple[str, int], Entry]:
        """A copy of the raw entry mapping."""
        return dict(self._entries)

    # ------------------------------------------------------------------
    def _check_state(self, state: str) -> None:
        if state not in self._states:
            raise FlowTableError(f"unknown state {state!r}")

    def __repr__(self) -> str:
        return (
            f"FlowTable({self._name!r}: {self.num_states} states, "
            f"{self.num_inputs} inputs, {self.num_outputs} outputs)"
        )

    def pretty(self) -> str:
        """Render the table in the textbook row/column layout.

        Stable entries are parenthesised, unspecified cells show ``-``.
        """
        col_headers = [self.column_string(c) for c in self.columns]
        width = max(
            [len(h) for h in col_headers]
            + [len(s) + 2 for s in self._states]
            + [5]
        ) + 2 + self.num_outputs
        lines = []
        header = " " * 8 + "".join(h.ljust(width) for h in col_headers)
        lines.append(header)
        for state in self._states:
            cells = []
            for column in self.columns:
                entry = self.entry(state, column)
                if not entry.is_specified:
                    text = "-"
                else:
                    out = "".join(
                        "-" if bit is None else str(bit) for bit in entry.outputs
                    )
                    base = entry.next_state
                    if entry.next_state == state:
                        base = f"({base})"
                    text = f"{base},{out}"
                cells.append(text.ljust(width))
            lines.append(state.ljust(8) + "".join(cells))
        return "\n".join(lines)


@dataclass(frozen=True)
class TableStats:
    """Size statistics used in reports and benchmarks."""

    name: str
    num_states: int
    num_inputs: int
    num_outputs: int
    num_specified: int
    num_stable: int
    num_transitions: int
    num_mic_transitions: int = field(default=0)

    @classmethod
    def of(cls, table: FlowTable) -> "TableStats":
        specified = sum(1 for _ in table.specified_entries())
        stable = sum(1 for _ in table.stable_points())
        transitions = list(table.transitions())
        mic = sum(1 for t in transitions if t.input_distance() > 1)
        return cls(
            name=table.name,
            num_states=table.num_states,
            num_inputs=table.num_inputs,
            num_outputs=table.num_outputs,
            num_specified=specified,
            num_stable=stable,
            num_transitions=len(transitions),
            num_mic_transitions=mic,
        )
