"""Auto-minimisation of fuzz findings into small reproducers.

A finding names a machine, a check, and (for simulation checks) a walk.
The shrinker's job is the delta-debugging one: keep deleting structure
— states, entries, inputs, outputs, walk steps — while the *same check
still fires*, and stop at a local minimum.  The result is what lands in
``tests/corpus/fixtures/`` (see :mod:`repro.corpus.fixtures`): a table
small enough to read, a walk short enough to trace by hand.

Two deliberate conservatisms:

* a candidate that makes the predicate *raise* (an unsynthesisable
  table, an illegal walk, a non-quiescing simulation) is rejected, not
  accepted — the fixture must reproduce the original divergence, not
  merely *some* failure; and
* every accepted step is re-validated through
  :func:`repro.flowtable.validation.validate` and re-fingerprinted, so
  the recorded shrink history is a chain of real, loadable tables.

Termination is structural: every candidate strictly removes something,
so the cost (states + entries + inputs + outputs, walk length) strictly
decreases on each accepted step and the greedy first-improvement loop
is finite even without the predicate-call ``budget``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..api import synthesize
from ..baselines.huffman import huffman_from_assignment
from ..core.serialize import table_from_dict, table_to_dict
from ..flowtable.table import FlowTable
from ..flowtable.validation import validate
from ..sim.harness import build_timed_fantom, random_legal_walk
from .families import corpus_fingerprint
from .fuzz import (
    Finding,
    _huffman_findings,
    _logic_findings,
    _sim_findings,
    selftest_divergence,
)

#: Default predicate-call budget; synthesis per candidate is the cost,
#: so tier-1 callers keep this modest.
DEFAULT_BUDGET = 200


@dataclass
class Minimized:
    """Outcome of minimising one finding."""

    table: FlowTable
    walk: tuple[int, ...]
    fingerprint: str
    history: list[dict] = field(default_factory=list)
    predicate_calls: int = 0


def _table_cost(payload: dict) -> int:
    return (
        len(payload["states"])
        + len(payload["entries"])
        + len(payload["inputs"])
        + len(payload["outputs"])
    )


def _drop_state(payload: dict, state: str) -> dict:
    states = [s for s in payload["states"] if s != state]
    entries = [
        entry
        for entry in payload["entries"]
        if entry[0] != state and entry[2] != state
    ]
    reset = payload["reset"] if payload["reset"] != state else states[0]
    return {**payload, "states": states, "entries": entries, "reset": reset}


def _drop_entry(payload: dict, index: int) -> dict:
    entries = [
        entry for i, entry in enumerate(payload["entries"]) if i != index
    ]
    return {**payload, "entries": entries}


def _restrict_input(payload: dict, bit: int, value: int) -> dict:
    """Fix input ``bit`` to ``value`` and project it out of the table."""
    inputs = [x for i, x in enumerate(payload["inputs"]) if i != bit]
    low = (1 << bit) - 1
    entries = [
        [
            state,
            ((column >> (bit + 1)) << bit) | (column & low),
            next_state,
            outputs,
        ]
        for state, column, next_state, outputs in payload["entries"]
        if (column >> bit) & 1 == value
    ]
    return {**payload, "inputs": inputs, "entries": entries}


def _drop_output(payload: dict, index: int) -> dict:
    outputs = [
        z for i, z in enumerate(payload["outputs"]) if i != index
    ]
    entries = [
        [
            state,
            column,
            next_state,
            [bit for i, bit in enumerate(bits) if i != index],
        ]
        for state, column, next_state, bits in payload["entries"]
    ]
    return {**payload, "outputs": outputs, "entries": entries}


def _candidates(payload: dict):
    """Every one-step reduction, most aggressive first."""
    if len(payload["states"]) > 2:
        for state in payload["states"]:
            yield "drop-state:" + state, _drop_state(payload, state)
    if len(payload["inputs"]) > 1:
        for bit, name in enumerate(payload["inputs"]):
            for value in (0, 1):
                yield (
                    f"restrict-input:{name}={value}",
                    _restrict_input(payload, bit, value),
                )
    if len(payload["outputs"]) > 1:
        for index, name in enumerate(payload["outputs"]):
            yield "drop-output:" + name, _drop_output(payload, index)
    for index, entry in enumerate(payload["entries"]):
        yield (
            f"unspecify:{entry[0]}@{entry[1]}",
            _drop_entry(payload, index),
        )


def minimize_table(
    table: FlowTable,
    predicate: Callable[[FlowTable], bool],
    budget: int = DEFAULT_BUDGET,
) -> tuple[FlowTable, list[dict], int]:
    """Greedy structural shrink while ``predicate`` keeps holding.

    Returns ``(smallest table, accepted-step history, predicate
    calls)``.  Each history entry records the action, the resulting
    cost, and the resulting fingerprint — a replayable audit trail of
    the shrink.  ``table`` itself must satisfy the predicate; the
    function does not re-check it.
    """
    current = table_to_dict(table)
    best = table
    history: list[dict] = []
    calls = 0
    improved = True
    while improved and calls < budget:
        improved = False
        for action, candidate in _candidates(current):
            if calls >= budget:
                break
            calls += 1
            try:
                shrunk = table_from_dict(candidate)
                validate(shrunk)
                if not predicate(shrunk):
                    continue
            except Exception:
                continue
            current = table_to_dict(shrunk)
            best = shrunk
            history.append(
                {
                    "action": action,
                    "cost": _table_cost(current),
                    "fingerprint": corpus_fingerprint(shrunk),
                }
            )
            improved = True
            break
    return best, history, calls


def minimize_walk(
    walk,
    predicate: Callable[[list[int]], bool],
    budget: int = DEFAULT_BUDGET,
) -> tuple[list[int], int]:
    """ddmin-style shrink of a walk while ``predicate`` keeps holding."""
    current = list(walk)
    calls = 0
    chunk = max(len(current) // 2, 1)
    while chunk >= 1 and calls < budget:
        shrunk_this_round = False
        start = 0
        while start < len(current) and calls < budget:
            candidate = current[:start] + current[start + chunk:]
            calls += 1
            try:
                ok = bool(candidate) and predicate(candidate)
            except Exception:
                ok = False
            if ok:
                current = candidate
                shrunk_this_round = True
            else:
                start += chunk
        if not shrunk_this_round:
            chunk //= 2
    return current, calls


def finding_predicate(
    check: str,
    *,
    model: str | None = None,
    steps: int = 18,
    walk_seed: int = 0,
) -> Callable[[FlowTable], bool]:
    """A table predicate: does ``check`` still fire on this machine?

    The predicate re-runs only the leg the original finding came from —
    a fresh legal walk is derived per candidate table (the original
    walk's columns need not exist in a shrunk table).
    """
    models = (model,) if model else ("unit",)

    def predicate(table: FlowTable) -> bool:
        if check == "selftest":
            walk = random_legal_walk(table, steps, seed=walk_seed)
            return (
                selftest_divergence(
                    table, walk, model or "unit", walk_seed
                )
                is not None
            )
        fingerprint = corpus_fingerprint(table)
        if check.startswith("logic-"):
            found = _logic_findings(
                "shrink", synthesize(table), fingerprint, {}
            )
        elif check == "huffman-cover":
            result = synthesize(table)
            baseline = huffman_from_assignment(
                table, result.table, result.assignment
            )
            found = _huffman_findings("shrink", baseline, fingerprint, {})
        else:  # trace / dirty-cell
            machine = build_timed_fantom(synthesize(table))
            walk = random_legal_walk(table, steps, seed=walk_seed)
            found = _sim_findings(
                "shrink", machine, walk, models, walk_seed, fingerprint
            )
        return any(f.check == check for f in found)

    return predicate


def minimize_finding(
    table: FlowTable,
    finding: Finding,
    budget: int = DEFAULT_BUDGET,
) -> Minimized:
    """Shrink the machine (and walk, for simulation checks) behind a
    finding into its minimal reproducer."""
    steps = finding.steps if finding.steps is not None else 18
    walk_seed = finding.walk_seed if finding.walk_seed is not None else 0
    predicate = finding_predicate(
        finding.check,
        model=finding.model,
        steps=steps,
        walk_seed=walk_seed,
    )
    shrunk, history, calls = minimize_table(table, predicate, budget)
    walk = list(
        finding.walk
        or random_legal_walk(shrunk, steps, seed=walk_seed)
    )
    if finding.check in ("trace", "dirty-cell", "selftest"):
        walk = random_legal_walk(shrunk, steps, seed=walk_seed)
        fingerprint = corpus_fingerprint(shrunk)
        if finding.check == "selftest":

            def walk_predicate(candidate: list[int]) -> bool:
                return (
                    selftest_divergence(
                        shrunk,
                        candidate,
                        finding.model or "unit",
                        walk_seed,
                    )
                    is not None
                )

        else:
            machine = build_timed_fantom(synthesize(shrunk))
            models = (finding.model,) if finding.model else ("unit",)

            def walk_predicate(candidate: list[int]) -> bool:
                found = _sim_findings(
                    "shrink",
                    machine,
                    candidate,
                    models,
                    walk_seed,
                    fingerprint,
                )
                return any(f.check == finding.check for f in found)

        walk, walk_calls = minimize_walk(
            walk, walk_predicate, max(budget - calls, 8)
        )
        calls += walk_calls
        history.append({"action": f"shrink-walk:{len(walk)}"})
    return Minimized(
        table=shrunk,
        walk=tuple(walk),
        fingerprint=corpus_fingerprint(shrunk),
        history=history,
        predicate_calls=calls,
    )


__all__ = [
    "DEFAULT_BUDGET",
    "Minimized",
    "finding_predicate",
    "minimize_finding",
    "minimize_table",
    "minimize_walk",
]
