"""Event-driven simulation: delays, compiled simulator, oracle, 4-phase
harness, and Monte-Carlo validation campaigns."""

from ._reference import ReferenceSimulator
from .campaign import (
    DELAY_MODELS,
    ENGINES,
    CampaignCell,
    CampaignResult,
    ValidationCampaign,
    default_engine,
    delay_model,
)
from .delays import (
    CornerDelay,
    DelayModel,
    RandomDelay,
    UnitDelay,
    hostile_random,
    loop_safe_random,
    skewed_random,
)
from .harness import (
    FantomHarness,
    random_legal_walk,
    synthesize_and_validate,
    validate_against_reference,
    validate_walk,
)
from .monitors import CycleReport, ValidationSummary, count_changes
from .reference import FlowTableInterpreter, ReferenceStep
from .simulator import NetChange, Simulator
from .vcd import trace_to_vcd, write_vcd

__all__ = [
    "CampaignCell",
    "CampaignResult",
    "CornerDelay",
    "CycleReport",
    "DELAY_MODELS",
    "DelayModel",
    "ENGINES",
    "FantomHarness",
    "FlowTableInterpreter",
    "NetChange",
    "RandomDelay",
    "ReferenceSimulator",
    "ReferenceStep",
    "Simulator",
    "UnitDelay",
    "ValidationCampaign",
    "ValidationSummary",
    "count_changes",
    "default_engine",
    "delay_model",
    "hostile_random",
    "loop_safe_random",
    "random_legal_walk",
    "skewed_random",
    "synthesize_and_validate",
    "trace_to_vcd",
    "validate_against_reference",
    "validate_walk",
    "write_vcd",
]
