"""The synthesis pass pipeline: manager, passes, batch runner.

This package is the engine under :func:`repro.api.synthesize`.
The paper's seven Figure-3 steps are :class:`Pass` objects
(:mod:`repro.pipeline.passes`); :class:`PassManager` runs them in order
over a :class:`PipelineContext` artifact store with per-pass
timing and error wrapping; :class:`BatchRunner`
(:mod:`repro.pipeline.batch`) synthesises a table list serially,
in-process, with an ordered, deterministic result stream (scale-out is
``seance shard run`` / ``seance work`` over a shared result store).
Reusing a whole result is the result store's job (:mod:`repro.store`).

Typical use::

    from repro.pipeline import PassManager

    manager = PassManager()
    result = manager.run(table)            # SynthesisResult
    result, report = manager.run_with_report(table)
    print(report.describe())               # per-pass ms
"""

from .batch import BatchItem, BatchRunner
from .context import PipelineContext
from .manager import PassError, PassEvent, PassManager, PipelineReport
from .options import SynthesisOptions
from .passes import (
    AssignPass,
    FactorPass,
    FsvPass,
    HazardsPass,
    OutputsPass,
    Pass,
    ReducePass,
    ValidatePass,
    default_passes,
)
from .registry import DEFAULT_PIPELINE
from .spec import SPEC_FORMAT_VERSION, PipelineSpec

__all__ = [
    "AssignPass",
    "BatchItem",
    "BatchRunner",
    "DEFAULT_PIPELINE",
    "FactorPass",
    "FsvPass",
    "HazardsPass",
    "OutputsPass",
    "Pass",
    "PassError",
    "PassEvent",
    "PassManager",
    "PipelineContext",
    "PipelineReport",
    "PipelineSpec",
    "ReducePass",
    "SPEC_FORMAT_VERSION",
    "SynthesisOptions",
    "ValidatePass",
    "default_passes",
]
