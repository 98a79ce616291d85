"""``repro.api`` — the typed front door of the library.

Everything a consumer needs to specify, configure, run, and serialise
synthesis lives here, under names rather than live objects:

* **Load** any table source — a benchmark name, a KISS2 or flow-table
  JSON file, an :class:`~repro.flowtable.stg.Stg` or
  :class:`~repro.flowtable.burst.BurstSpec` — with :func:`load`.
* **Configure** with a declarative :class:`PipelineSpec` (registry pass
  names + :class:`SynthesisOptions` + :class:`CacheSpec`); ablations are
  pass substitutions (``spec.substitute("factor:joint")``), and specs
  round-trip through JSON for reproducible, shareable runs.
* **Run** through the fluent :class:`Session`
  (``api.load("lion").with_pass("fsv:unprotected").run()``), the
  one-shot :func:`synthesize`, or :func:`batch`.
* **Serialise** results: :class:`SynthesisResult` round-trips through
  ``to_dict``/``from_dict`` byte-identically — the wire format for
  sharded batch runs and remote stage stores.
* **Archive and shard** with the content-addressed
  :class:`ResultStore` (``store=`` on :func:`load`/:func:`synthesize`/
  :func:`batch`, ``Session.with_store``): warm keys short-circuit
  synthesis and simulation entirely, and
  :class:`ShardedBatch`/:class:`ShardedCampaign` split a batch matrix
  or campaign cell grid across machines by the same content hashes
  (``seance shard run``/``merge``).

Direct ``PassManager(...)`` construction remains available underneath
this module.
"""

from ..core.result import SynthesisResult
from ..flowtable.table import FlowTable
from ..pipeline.batch import BatchItem, BatchRunner
from ..pipeline.cache import StageCache
from ..pipeline.manager import PassEvent, PassManager, PipelineReport
from ..pipeline.options import SynthesisOptions
from ..pipeline.registry import (
    DEFAULT_PIPELINE,
    create_pass,
    register_pass,
    registered_passes,
    substitute,
)
from ..pipeline.spec import CacheSpec, PipelineSpec
from ..store import ResultStore, ShardedBatch, ShardedCampaign
from ..sim.campaign import (
    DELAY_MODELS,
    CampaignCell,
    CampaignResult,
    ValidationCampaign,
)
from .loaders import load_table
from .session import Session, batch, load, synthesize

__all__ = [
    "BatchItem",
    "BatchRunner",
    "CacheSpec",
    "CampaignCell",
    "CampaignResult",
    "DEFAULT_PIPELINE",
    "DELAY_MODELS",
    "FlowTable",
    "PassEvent",
    "PassManager",
    "PipelineReport",
    "PipelineSpec",
    "ResultStore",
    "Session",
    "ShardedBatch",
    "ShardedCampaign",
    "StageCache",
    "SynthesisOptions",
    "SynthesisResult",
    "ValidationCampaign",
    "batch",
    "create_pass",
    "load",
    "load_table",
    "register_pass",
    "registered_passes",
    "substitute",
    "synthesize",
]
