"""The artifact store threaded through a pipeline run.

A :class:`PipelineContext` carries the immutable inputs of a run (the
source flow table and the options) plus the artifacts each pass
produces — the reduced table, the assignment, the specified machine, the
hazard analysis, the equations.  Passes communicate *only* through the
context: a pass declares which artifact keys it ``requires`` and which
it ``provides``, and the :class:`~repro.pipeline.manager.PassManager`
enforces both sides of the contract.  That discipline keeps every
artifact a pure function of the table, the options and its upstream
artifacts, so a whole result is identified by (table, options) — the
result store's key.
"""

from __future__ import annotations

from typing import Any

from ..errors import SynthesisError
from ..flowtable.table import FlowTable
from .options import SynthesisOptions

#: Sentinel distinguishing "absent" from "stored None".
_MISSING = object()


class PipelineContext:
    """Artifacts of one synthesis run, keyed by name.

    The context is a write-once store: a pass may not silently overwrite
    an artifact another pass produced.
    """

    def __init__(self, table: FlowTable, options: SynthesisOptions):
        self.table = table
        self.options = options
        self._artifacts: dict[str, Any] = {}

    # ------------------------------------------------------------------
    def has(self, key: str) -> bool:
        return key in self._artifacts

    def get(self, key: str) -> Any:
        value = self._artifacts.get(key, _MISSING)
        if value is _MISSING:
            raise SynthesisError(
                f"pipeline artifact {key!r} has not been produced yet "
                f"(available: {sorted(self._artifacts)})"
            )
        return value

    def set(self, key: str, value: Any) -> None:
        if key in self._artifacts:
            raise SynthesisError(
                f"pipeline artifact {key!r} is already set; passes may "
                "not overwrite each other's artifacts"
            )
        self._artifacts[key] = value

    def keys(self) -> tuple[str, ...]:
        return tuple(self._artifacts)
