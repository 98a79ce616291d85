"""FANTOM/SEANCE: multiple-input-change asynchronous FSM synthesis.

A faithful, self-contained reproduction of

    Maureen Ladd and William P. Birmingham,
    "Synthesis of Multiple-Input Change Asynchronous Finite State
    Machines", 28th ACM/IEEE Design Automation Conference (DAC), 1991.

The library covers the full stack the paper describes:

* flow-table specification (KISS2 files, a builder API, or signal
  transition graphs) — :mod:`repro.flowtable`;
* the SEANCE synthesis pipeline (state minimisation, Tracey USTT
  assignment, output/SSD determination, the Figure-4 hazard search, the
  fantom state variable, Figure-5 hazard factoring) — :mod:`repro.core`
  with substrates :mod:`repro.minimize`, :mod:`repro.assign`,
  :mod:`repro.logic` and :mod:`repro.hazards`;
* the FANTOM architecture as a gate-level netlist (Figures 1-2) and an
  event-driven simulator with a 4-phase environment harness that
  validates machines against the flow-table semantics —
  :mod:`repro.netlist`, :mod:`repro.sim`;
* the baselines of the paper's comparisons — :mod:`repro.baselines`;
* the (reconstructed) Table-1 benchmark suite — :mod:`repro.bench`;
* the pass-manager pipeline the synthesis runs on — declarative pass
  lists, per-pass timing, a content-hash stage cache, and batch/parallel
  synthesis — :mod:`repro.pipeline`.

The typed front door is :mod:`repro.api`: ``api.load(...)`` opens a
fluent :class:`~repro.api.Session`, :class:`~repro.pipeline.spec.
PipelineSpec` names pipeline configurations declaratively (and
round-trips through JSON), and results serialise completely via
``SynthesisResult.to_dict``/``from_dict``.

Quickstart
----------
>>> from repro import benchmark, synthesize
>>> result = synthesize(benchmark("lion"))
>>> result.table1_row()
('lion', 3, 5, 9)
"""

from . import api
from .api import (
    PipelineSpec,
    Session,
    SynthesisOptions,
    SynthesisResult,
    load,
    synthesize,
)
from .bench import (
    PAPER_TABLE1,
    TABLE1_BENCHMARKS,
    benchmark,
    benchmark_names,
    kiss_source,
    synthesize_suite,
)
from .errors import (
    CoveringError,
    FlowTableError,
    KissFormatError,
    NetlistError,
    ReproError,
    SimulationError,
    SpecificationError,
    StateAssignmentError,
    SynthesisError,
)
from .flowtable import (
    BurstSpec,
    FlowTable,
    FlowTableBuilder,
    Stg,
    parse_kiss,
    write_kiss,
)
from .netlist import FantomMachine, build_fantom, timing_report
from .pipeline import (
    BatchItem,
    BatchRunner,
    PassManager,
    StageCache,
    synthesize_batch,
)
from .sim import (
    FantomHarness,
    FlowTableInterpreter,
    hostile_random,
    loop_safe_random,
    skewed_random,
    synthesize_and_validate,
    validate_against_reference,
)

__version__ = "1.0.0"

__all__ = [
    "BatchItem",
    "BatchRunner",
    "BurstSpec",
    "CoveringError",
    "FantomHarness",
    "FantomMachine",
    "FlowTable",
    "FlowTableBuilder",
    "FlowTableError",
    "FlowTableInterpreter",
    "KissFormatError",
    "NetlistError",
    "PAPER_TABLE1",
    "PassManager",
    "PipelineSpec",
    "ReproError",
    "Session",
    "StageCache",
    "SimulationError",
    "SpecificationError",
    "StateAssignmentError",
    "Stg",
    "SynthesisError",
    "SynthesisOptions",
    "SynthesisResult",
    "TABLE1_BENCHMARKS",
    "api",
    "benchmark",
    "benchmark_names",
    "build_fantom",
    "hostile_random",
    "kiss_source",
    "load",
    "loop_safe_random",
    "parse_kiss",
    "skewed_random",
    "synthesize",
    "synthesize_and_validate",
    "synthesize_batch",
    "synthesize_suite",
    "timing_report",
    "validate_against_reference",
    "write_kiss",
]
