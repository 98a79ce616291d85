"""KISS2 reader and writer for flow tables.

KISS2 is the exchange format of the MCNC FSM benchmark set the paper's
Table 1 draws on (Lisanke, "Finite-state machine benchmark set", 1987).
A file looks like::

    .i 2
    .o 1
    .s 4
    .p 11
    .r s0
    00 s0 s0 0
    1- s0 s1 -
    ...
    .e

Each product line is ``<input-pattern> <current> <next> <output-pattern>``.
Input patterns may contain ``-`` wildcards; a line then specifies every
matching column.  Output bits may be ``-`` (unspecified).  A ``~`` or ``-``
next-state would be non-standard; unspecified successors are expressed by
omitting the (state, column) pair entirely.

The reader expands wildcards, rejects conflicting specifications of the
same cell, and returns a :class:`~repro.flowtable.table.FlowTable`.
"""

from __future__ import annotations

from ..errors import KissFormatError
from .table import Entry, FlowTable, input_limit_error


def parse_kiss(text: str, name: str = "kiss") -> FlowTable:
    """Parse KISS2 text into a :class:`FlowTable`.

    Raises :class:`~repro.errors.KissFormatError` with a line number on any
    syntactic or consistency problem (wrong pattern width, duplicate
    conflicting entries, undeclared counts that do not match, …).
    """
    num_inputs: int | None = None
    num_outputs: int | None = None
    declared_states: int | None = None
    declared_products: int | None = None
    reset_state: str | None = None
    product_lines: list[tuple[int, str, str, str, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split()
            directive = parts[0]
            if directive == ".e":
                break
            if len(parts) != 2:
                raise KissFormatError(
                    f"directive {directive!r} needs exactly one argument", lineno
                )
            arg = parts[1]
            if directive == ".i":
                num_inputs = _positive_int(arg, ".i", lineno)
                too_many = input_limit_error(num_inputs)
                if too_many:
                    raise KissFormatError(too_many, lineno)
            elif directive == ".o":
                num_outputs = _positive_int(arg, ".o", lineno)
            elif directive == ".s":
                declared_states = _positive_int(arg, ".s", lineno)
            elif directive == ".p":
                declared_products = _positive_int(arg, ".p", lineno)
            elif directive == ".r":
                reset_state = arg
            else:
                raise KissFormatError(f"unknown directive {directive!r}", lineno)
            continue
        parts = line.split()
        if len(parts) != 4:
            raise KissFormatError(
                f"product line needs 4 fields, got {len(parts)}", lineno
            )
        product_lines.append((lineno, *parts))

    if num_inputs is None or num_outputs is None:
        raise KissFormatError("missing .i or .o declaration")
    if not product_lines:
        raise KissFormatError("no product lines")
    if declared_products is not None and declared_products != len(product_lines):
        raise KissFormatError(
            f".p declares {declared_products} products but "
            f"{len(product_lines)} lines follow"
        )

    states: list[str] = []

    def note_state(state_name: str) -> None:
        if state_name not in states:
            states.append(state_name)

    entries: dict[tuple[str, int], Entry] = {}
    for lineno, in_pattern, current, nxt, out_pattern in product_lines:
        if len(in_pattern) != num_inputs:
            raise KissFormatError(
                f"input pattern {in_pattern!r} is not {num_inputs} bits", lineno
            )
        if len(out_pattern) != num_outputs:
            raise KissFormatError(
                f"output pattern {out_pattern!r} is not {num_outputs} bits", lineno
            )
        if any(ch not in "01-" for ch in in_pattern):
            raise KissFormatError(f"bad input pattern {in_pattern!r}", lineno)
        if any(ch not in "01-" for ch in out_pattern):
            raise KissFormatError(f"bad output pattern {out_pattern!r}", lineno)
        note_state(current)
        note_state(nxt)
        outputs = tuple(
            None if ch == "-" else int(ch) for ch in out_pattern
        )
        entry = Entry(nxt, outputs)
        for column in _expand_pattern(in_pattern):
            key = (current, column)
            existing = entries.get(key)
            if existing is not None and existing != entry:
                raise KissFormatError(
                    f"conflicting entries for state {current!r}, column "
                    f"{in_pattern!r}", lineno
                )
            entries[key] = entry

    if declared_states is not None and declared_states != len(states):
        raise KissFormatError(
            f".s declares {declared_states} states but {len(states)} are used"
        )
    if reset_state is not None and reset_state not in states:
        raise KissFormatError(f".r names unknown state {reset_state!r}")

    input_names = tuple(f"x{i + 1}" for i in range(num_inputs))
    output_names = tuple(f"z{i + 1}" for i in range(num_outputs))
    return FlowTable(
        input_names, output_names, states, entries, reset_state, name
    )


def write_kiss(table: FlowTable) -> str:
    """Serialise a flow table to KISS2 text (one line per specified cell).

    Wildcard merging is deliberately not attempted: the output is a
    canonical, fully expanded form that re-parses to an identical table.
    """
    lines = [
        f".i {table.num_inputs}",
        f".o {table.num_outputs}",
        f".s {table.num_states}",
    ]
    products = [
        (table.column_string(column), state, entry)
        for state, column, entry in table.specified_entries()
    ]
    lines.append(f".p {len(products)}")
    if table.reset_state is not None:
        lines.append(f".r {table.reset_state}")
    for pattern, state, entry in products:
        out = "".join("-" if bit is None else str(bit) for bit in entry.outputs)
        lines.append(f"{pattern} {state} {entry.next_state} {out}")
    lines.append(".e")
    return "\n".join(lines) + "\n"


def _positive_int(text: str, directive: str, lineno: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise KissFormatError(
            f"{directive} argument {text!r} is not an integer", lineno
        ) from None
    if value <= 0:
        raise KissFormatError(f"{directive} must be positive, got {value}", lineno)
    return value


def _expand_pattern(pattern: str) -> list[int]:
    """All column integers matching a ``01-`` input pattern."""
    columns = [0]
    for i, ch in enumerate(pattern):
        if ch == "1":
            columns = [c | (1 << i) for c in columns]
        elif ch == "-":
            columns = columns + [c | (1 << i) for c in columns]
    return columns
