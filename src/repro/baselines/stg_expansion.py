"""The Section-7 comparison: input-space vs state-space expansion.

STG-based synthesis flows (Chu 1987; Meng et al. 1989) admit
multiple-input changes by *expanding the input space*: a multi-bit input
change becomes a chain of single-bit arcs, "so that inputs remain
persistent as the graph is traversed one bit (arc) at a time".  FANTOM
instead *expands the state space*: one extra variable (``fsv``) doubles
the minterm space, and "a FANTOM machine moves through at most two state
changes regardless of the number of bit changes in the input".

This module quantifies both sides on the same specification:

* :func:`stg_expansion_cost` — intermediate phases/arcs a single-bit STG
  expansion needs, and the worst-case number of sequential steps one
  input change becomes;
* :func:`fantom_expansion_cost` — the fsv doubling and FANTOM's constant
  bound of two state changes per input change.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.result import SynthesisResult
from ..flowtable.stg import Stg
from ..flowtable.table import FlowTable


@dataclass(frozen=True)
class StgExpansionCost:
    """Cost of forcing a specification into single-bit input steps."""

    source_name: str
    mic_transitions: int
    extra_phases: int
    extra_arcs: int
    max_steps_per_input_change: int


@dataclass(frozen=True)
class FantomExpansionCost:
    """FANTOM's alternative: one variable, bounded state changes."""

    source_name: str
    extra_state_variables: int
    base_minterm_space: int
    doubled_minterm_space: int
    max_state_changes_per_input_change: int


def stg_expansion_cost(table: FlowTable) -> StgExpansionCost:
    """Cost of single-bit-expanding every multi-input change of a table.

    Each stable-state transition with input Hamming distance ``d >= 2``
    becomes a chain of ``d`` single-bit arcs through ``d - 1`` fresh
    intermediate phases (the STG discipline); the machine then takes
    ``d`` sequential steps where FANTOM takes at most two state changes.
    """
    mic = 0
    extra_phases = 0
    extra_arcs = 0
    max_steps = 1
    for transition in table.transitions(min_input_distance=2):
        distance = transition.input_distance()
        mic += 1
        extra_phases += distance - 1
        extra_arcs += distance - 1
        max_steps = max(max_steps, distance)
    return StgExpansionCost(
        source_name=table.name,
        mic_transitions=mic,
        extra_phases=extra_phases,
        extra_arcs=extra_arcs,
        max_steps_per_input_change=max_steps,
    )


def stg_expansion_cost_from_stg(stg: Stg) -> StgExpansionCost:
    """Same costing, measured on an actual STG via its expansion."""
    expanded = stg.expand_single_bit()
    mic = sum(1 for arc in stg.arcs if arc.is_multi_bit)
    max_steps = max(
        (len(arc.changes) for arc in stg.arcs), default=1
    )
    return StgExpansionCost(
        source_name="stg",
        mic_transitions=mic,
        extra_phases=len(expanded.phases) - len(stg.phases),
        extra_arcs=len(expanded.arcs) - len(stg.arcs),
        max_steps_per_input_change=max_steps,
    )


def fantom_expansion_cost(result: SynthesisResult) -> FantomExpansionCost:
    """FANTOM's cost on the same machine, from its synthesis result."""
    has_hazards = result.analysis.has_hazards
    base = result.spec.space
    return FantomExpansionCost(
        source_name=result.source.name,
        extra_state_variables=1 if has_hazards else 0,
        base_minterm_space=base,
        doubled_minterm_space=2 * base if has_hazards else base,
        max_state_changes_per_input_change=2 if has_hazards else 1,
    )


def comparison_row(
    table: FlowTable, result: SynthesisResult
) -> dict[str, object]:
    """One row of the Section-7 comparison table."""
    stg_cost = stg_expansion_cost(table)
    fantom_cost = fantom_expansion_cost(result)
    return {
        "benchmark": table.name,
        "mic_transitions": stg_cost.mic_transitions,
        "stg_extra_phases": stg_cost.extra_phases,
        "stg_max_steps": stg_cost.max_steps_per_input_change,
        "fantom_extra_variables": fantom_cost.extra_state_variables,
        "fantom_max_state_changes": (
            fantom_cost.max_state_changes_per_input_change
        ),
    }
