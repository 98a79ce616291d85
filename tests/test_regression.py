"""Regression pins: the pipeline is deterministic; hold it to its word.

Every stage of SEANCE is deterministic (sorted iteration orders, seeded
search tie-breaks), so the synthesis of each benchmark must reproduce
bit-identical metrics run over run — and changes to any algorithm that
shift these numbers should be deliberate, reviewed events, not drift.

The values below are the reproduction's published numbers (they also
appear in EXPERIMENTS.md); update them only together with that file.
"""

import pytest

from repro.api import synthesize
from repro.bench import benchmark

#: name -> (fsv depth, Y depth, total depth, |FL|, states after Step 2,
#: state variables)
PINNED = {
    "test_example": (3, 4, 8, 2, 3, 2),
    "traffic": (3, 5, 9, 2, 4, 2),
    "lion": (3, 5, 9, 2, 4, 2),
    "lion9": (3, 5, 9, 15, 9, 4),
    "train11": (3, 5, 9, 13, 11, 5),
    "train4": (3, 5, 9, 2, 4, 2),
    "hazard_demo": (2, 4, 7, 1, 2, 1),
    "dme": (2, 5, 8, 1, 2, 1),
    "parity": (2, 5, 8, 1, 3, 3),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_metrics(name):
    expected = PINNED[name]
    result = synthesize(benchmark(name))
    _, fsv_depth, y_depth, total = result.table1_row()
    observed = (
        fsv_depth,
        y_depth,
        total,
        len(result.analysis.fl),
        result.table.num_states,
        result.assignment.encoding.num_variables,
    )
    assert observed == expected, (
        f"{name}: metrics drifted from the published values "
        f"{expected} -> {observed}; if intentional, update "
        f"tests/test_regression.py and EXPERIMENTS.md together"
    )


def test_synthesis_is_deterministic():
    """Two runs of the same machine produce identical artifacts."""
    first = synthesize(benchmark("lion"))
    second = synthesize(benchmark("lion"))
    assert first.assignment.encoding.codes == second.assignment.encoding.codes
    assert first.analysis.fl == second.analysis.fl
    assert {
        name: expr.to_string() for name, expr in first.equations().items()
    } == {
        name: expr.to_string() for name, expr in second.equations().items()
    }
