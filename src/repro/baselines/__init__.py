"""Baselines the paper compares against: SIC Huffman and STG expansion."""

from .huffman import (
    HuffmanResult,
    huffman_from_assignment,
    sic_walk_is_legal,
    synthesize_huffman,
)
from .huffman_sim import (
    HuffmanMachine,
    HuffmanRun,
    build_huffman,
    default_baseline_delays,
    run_walk,
    sic_walk,
)
from .stg_expansion import (
    FantomExpansionCost,
    StgExpansionCost,
    comparison_row,
    fantom_expansion_cost,
    stg_expansion_cost,
    stg_expansion_cost_from_stg,
)

__all__ = [
    "FantomExpansionCost",
    "HuffmanMachine",
    "HuffmanResult",
    "HuffmanRun",
    "build_huffman",
    "huffman_from_assignment",
    "default_baseline_delays",
    "run_walk",
    "sic_walk",
    "StgExpansionCost",
    "comparison_row",
    "fantom_expansion_cost",
    "sic_walk_is_legal",
    "stg_expansion_cost",
    "stg_expansion_cost_from_stg",
    "synthesize_huffman",
]
