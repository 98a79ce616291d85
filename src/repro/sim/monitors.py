"""Trace analysis: glitch detection and the single-output-change check.

FANTOM "allows multiple-output bit changes, as long as the output vector
obeys the single-output-change (SOC) principle, i.e. bits can change only
once per input transition" (paper Section 2.2).  The monitors here
post-process simulator traces into exactly those judgements:

* per hand-shake cycle, each latched output bit must change at most once;
* the latched outputs must match the reference interpreter's values;
* ``VOM`` must pulse exactly once per cycle (one fall, one rise).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from .simulator import NetChange


class CycleReport(NamedTuple):
    """Judgement of one hand-shake cycle (one input application).

    An immutable tuple record: a campaign builds one per cycle, tens of
    thousands per second, and a positional tuple is several times
    cheaper to build than a frozen dataclass.  Fields read by name,
    assigning one raises :class:`AttributeError`, and ``==``, ``repr``
    and pickling are the field-wise ones.  ``output_changes`` is the
    one mutable field: each report owns its own dict.
    """

    index: int
    column: int
    expected_state: str
    observed_state: str | None
    expected_outputs: tuple[int | None, ...]
    observed_outputs: tuple[int, ...]
    output_changes: dict[str, int]
    vom_rises: int

    @property
    def state_correct(self) -> bool:
        return self.observed_state == self.expected_state

    @property
    def outputs_correct(self) -> bool:
        expected, observed = self.expected_outputs, self.observed_outputs
        # Fully specified and matching is the common case: one tuple
        # compare instead of a per-bit walk.
        return expected == observed or all(
            want is None or want == got
            for want, got in zip(expected, observed)
        )

    @property
    def soc_respected(self) -> bool:
        """Each output bit changed at most once during the cycle."""
        return max(self.output_changes.values(), default=0) <= 1

    @property
    def clean(self) -> bool:
        return (
            self.vom_rises == 1
            and self.observed_state == self.expected_state
            and self.outputs_correct
            and self.soc_respected
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON wire form; :meth:`from_dict` round-trips it exactly.

        ``output_changes`` keeps its insertion order (the machine's
        output-net order), so serialisation is deterministic and two
        identical cycles emit identical bytes — the property the
        sharded result store's byte-identity contract rests on.
        """
        return {
            "index": self.index,
            "column": self.column,
            "expected_state": self.expected_state,
            "observed_state": self.observed_state,
            "expected_outputs": list(self.expected_outputs),
            "observed_outputs": list(self.observed_outputs),
            "output_changes": dict(self.output_changes),
            "vom_rises": self.vom_rises,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CycleReport":
        return cls(
            index=payload["index"],
            column=payload["column"],
            expected_state=payload["expected_state"],
            observed_state=payload["observed_state"],
            expected_outputs=tuple(payload["expected_outputs"]),
            observed_outputs=tuple(payload["observed_outputs"]),
            output_changes=dict(payload["output_changes"]),
            vom_rises=payload["vom_rises"],
        )


@dataclass
class ValidationSummary:
    """Aggregate of a whole validation run (many cycles, many seeds).

    ``kernel`` aggregates the per-walk kernel telemetry the simulators
    expose (``sim.kernel_stats``): which engine paths the walks ended on
    (``ring``/``ticks``/``heap``) and any fast-path demotions
    (``migrations``).  ``None`` means no walk contributed telemetry
    (e.g. the reference kernel).  The ring kernel's cycle-replay
    counters never enter it: they say how the kernel ran, not what the
    walks observed, and the sharded store's byte-identity contract
    needs a wire form that no execution detail can move.
    """

    cycles: list[CycleReport] = field(default_factory=list)
    kernel: dict | None = None

    def add(self, report: CycleReport) -> None:
        self.cycles.append(report)

    def merge_kernel(self, snapshot: dict | None) -> None:
        """Fold one walk's kernel-telemetry snapshot into the aggregate."""
        if snapshot is None:
            return
        kernel = self.kernel
        if kernel is None:
            kernel = self.kernel = {"paths": {}, "migrations": {}}
        for path, count in snapshot.get("paths", {}).items():
            kernel["paths"][path] = kernel["paths"].get(path, 0) + count
        for reason, count in snapshot.get("migrations", {}).items():
            kernel["migrations"][reason] = (
                kernel["migrations"].get(reason, 0) + count
            )

    @property
    def total(self) -> int:
        return len(self.cycles)

    @property
    def failures(self) -> list[CycleReport]:
        return [c for c in self.cycles if not c.clean]

    @property
    def state_errors(self) -> int:
        return sum(1 for c in self.cycles if not c.state_correct)

    @property
    def output_errors(self) -> int:
        return sum(1 for c in self.cycles if not c.outputs_correct)

    @property
    def soc_violations(self) -> int:
        return sum(1 for c in self.cycles if not c.soc_respected)

    @property
    def all_clean(self) -> bool:
        return all(cycle.clean for cycle in self.cycles)

    def describe(self) -> str:
        return (
            f"{self.total} cycles: "
            f"{self.state_errors} state errors, "
            f"{self.output_errors} output errors, "
            f"{self.soc_violations} SOC violations"
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON wire form (cycle stream, in order).

        ``kernel`` is emitted only when telemetry was collected, with
        its sub-dicts in sorted key order — deterministic bytes for the
        store's byte-identity contract, and old payloads (no kernel)
        keep their exact historical shape.
        """
        payload: dict = {
            "cycles": [cycle.to_dict() for cycle in self.cycles]
        }
        if self.kernel is not None:
            kernel = self.kernel
            payload["kernel"] = {
                "paths": dict(sorted(kernel.get("paths", {}).items())),
                "migrations": dict(
                    sorted(kernel.get("migrations", {}).items())
                ),
            }
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ValidationSummary":
        summary = cls()
        for cycle in payload["cycles"]:
            summary.add(CycleReport.from_dict(cycle))
        kernel = payload.get("kernel")
        if kernel is not None:
            summary.merge_kernel(kernel)
        return summary


def count_changes(
    trace: list[NetChange], nets: list[str], start: float, end: float
) -> dict[str, int]:
    """Transitions per net within the half-open window [start, end)."""
    counts = {net: 0 for net in nets}
    for change in trace:
        if change.net in counts and start <= change.time < end:
            counts[change.net] += 1
    return counts
