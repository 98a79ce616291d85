"""Construction of the reduced flow table from a closed cover.

Given a closed cover, each chosen compatible becomes one row of the
reduced machine.  For a class ``C`` and column ``c`` the successor is any
chosen class containing the successor set of ``C``'s members (closure
guarantees one exists); outputs are the union of the members' specified
bits (output compatibility guarantees no conflict).

Normal mode must survive the reduction — the paper states "The resulting
flow table retains the normal mode characteristic" — so the successor
class is chosen with a stability-preserving preference: a class stable in
the column (its successor set folds back into itself) is preferred, and
``C`` itself is preferred among those.  The result is validated; if a
pathological cover still breaks normal mode the reducer reports it rather
than emitting a broken table.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SynthesisError
from ..flowtable.table import Entry, FlowTable
from ..flowtable.validation import check_normal_mode
from .compatibility import CompatibilityResult, compute_compatibility
from .cover_search import ClosedCover, class_successors, find_minimum_closed_cover


@dataclass(frozen=True)
class ReductionResult:
    """The reduced table plus the mapping back to original states."""

    table: FlowTable
    cover: ClosedCover
    state_map: dict[str, tuple[str, ...]]
    """reduced state name -> original member states."""


def class_name(members: frozenset[str]) -> str:
    """Deterministic name for a merged state (joined member names)."""
    return "+".join(sorted(members))


def reduce_flow_table(
    table: FlowTable,
    compatibility: CompatibilityResult | None = None,
    cover: ClosedCover | None = None,
) -> ReductionResult:
    """Reduce ``table`` to a minimum closed cover machine.

    When the cover is the trivial one-class-per-state family the original
    table is returned unchanged (same object), so callers can cheaply
    detect "already minimal".
    """
    if cover is None and compatibility is None:
        from .partition import is_completely_specified, moore_partition

        if is_completely_specified(table):
            # Fast path: equivalence partition (unique and closed by
            # construction) instead of the compatible search.
            cover = ClosedCover(
                classes=tuple(moore_partition(table)), exact=True
            )
    if cover is None:
        if compatibility is None:
            compatibility = compute_compatibility(table)
        cover = find_minimum_closed_cover(table, compatibility)

    if cover.num_classes >= table.num_states and all(
        len(members) == 1 for members in cover.classes
    ):
        state_map = {s: (s,) for s in table.states}
        return ReductionResult(table=table, cover=cover, state_map=state_map)

    classes = list(cover.classes)
    names = [class_name(members) for members in classes]
    if len(set(names)) != len(names):
        raise SynthesisError("closed cover contains duplicate classes")

    entries: dict[tuple[str, int], Entry] = {}
    for members, name in zip(classes, names):
        for column in table.columns:
            successors = class_successors(table, members, column)
            if not successors:
                continue
            target_index = _pick_successor_class(
                table, column, classes, members, successors
            )
            target_members = classes[target_index]
            outputs = _merge_outputs(table, members, column)
            next_name = (
                name
                if target_members == members
                else class_name(target_members)
            )
            entries[(name, column)] = Entry(next_name, outputs)

    reduced = FlowTable(
        table.inputs,
        table.outputs,
        names,
        entries,
        reset_state=_map_reset(table.reset_state, classes, names),
        name=f"{table.name}_reduced",
    )
    problems = check_normal_mode(reduced)
    if problems:
        raise SynthesisError(
            "reduction broke normal mode:\n  " + "\n  ".join(problems)
        )
    state_map = {
        name: tuple(sorted(members))
        for name, members in zip(names, classes)
    }
    return ReductionResult(table=reduced, cover=cover, state_map=state_map)


def _pick_successor_class(
    table: FlowTable,
    column: int,
    classes: list[frozenset[str]],
    current: frozenset[str],
    successors: frozenset[str],
) -> int:
    """Pick the chosen class to receive a successor set.

    Preference order: the current class itself (keeps stable entries
    stable; when ``successors <= current`` the current class is stable in
    the column by construction), then classes *stable in this column*
    (their own successor set folds back into themselves — the target of
    an unstable entry must be stable or the reduced table leaves normal
    mode), then the smallest class (tightest merge), ties broken
    lexicographically for determinism.
    """
    containing = [
        i for i, members in enumerate(classes) if successors <= members
    ]
    if not containing:
        raise SynthesisError(
            f"cover is not closed: successor set {sorted(successors)} fits "
            f"no chosen class"
        )
    for i in containing:
        if classes[i] == current:
            return i
    stable = [
        i
        for i in containing
        if class_successors(table, classes[i], column) <= classes[i]
    ]
    return min(
        stable or containing,
        key=lambda i: (len(classes[i]), sorted(classes[i])),
    )


def _merge_outputs(
    table: FlowTable, members: frozenset[str], column: int
) -> tuple[int | None, ...]:
    merged: list[int | None] = [None] * table.num_outputs
    for state in members:
        for k, bit in enumerate(table.output_vector(state, column)):
            if bit is None:
                continue
            if merged[k] is None:
                merged[k] = bit
            elif merged[k] != bit:
                raise SynthesisError(
                    f"output conflict while merging {sorted(members)} "
                    f"in column {table.column_string(column)} "
                    f"(incompatible states in one class)"
                )
    return tuple(merged)


def _map_reset(
    reset: str | None,
    classes: list[frozenset[str]],
    names: list[str],
) -> str | None:
    if reset is None:
        return None
    for members, name in zip(classes, names):
        if reset in members:
            return name
    return None
