"""The fixed stage list: the paper's Figure-3 pipeline by name.

The pipeline is exactly the seven stages of
:data:`~repro.pipeline.passes.STAGES`, in order; every ablation is a
:class:`~repro.pipeline.options.SynthesisOptions` field (or, for
dynamic checks, a validation campaign), never a different stage list.
:func:`create_pass` maps a stage name to a fresh instance of its pass
class, for callers that address stages by name.
"""

from __future__ import annotations

from ..errors import SynthesisError
from .passes import STAGES

#: The paper's Figure-3 pipeline as stage names, in order.
DEFAULT_PIPELINE: tuple[str, ...] = tuple(stage.name for stage in STAGES)

_BY_NAME = dict(zip(DEFAULT_PIPELINE, STAGES))


def create_pass(name: str):
    """A fresh instance of the pass implementing stage ``name``."""
    try:
        return _BY_NAME[name]()
    except KeyError:
        raise SynthesisError(
            f"unknown stage {name!r}; the pipeline is "
            f"{', '.join(DEFAULT_PIPELINE)}"
        ) from None
