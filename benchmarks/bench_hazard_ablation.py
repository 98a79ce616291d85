"""Experiment S2 — the paper's central claim, demonstrated dynamically.

Section 2: FANTOM is "free from all possible types of hazards" under
multiple-input changes; the fantom state variable "marks potentially
hazardous states, and prevents output during them".

The ablation — the ``hazard_correction=False`` option (Step 6 builds
``fsv`` and the next-state equations from an empty hazard list; the
Figure-4 hazard search still runs and is reported, so the result
records the hazards knowingly left in): gate-level simulation of each
benchmark
under hostile input skew (the FFX bank's per-bit clock-to-Q spread is
several gate delays wide), on random legal walks favouring
multiple-input changes, scored against the flow-table oracle —

* the FANTOM machine must come back **clean** (states, latched outputs
  and the single-output-change rule all verified);
* the same machine with the hazard correction switched off (plain
  reduced excitation, ``fsv = 0``) exhibits the function M-hazards:
  wrong settled states, wrong latched outputs.

The option changes only what Step 6 builds, so the per-pass timing diff
of the fsv + factor stages isolates what the correction costs.
"""

import pytest

from conftest import cold_report, pass_seconds, pipeline_synth, print_table
from repro.api import SynthesisOptions
from repro.bench import benchmark as load_bench
from repro.netlist.fantom import build_fantom
from repro.sim.delays import hostile_random
from repro.sim.harness import validate_against_reference

MACHINES = ("hazard_demo", "lion", "traffic", "lion9")
UNPROTECTED = SynthesisOptions(hazard_correction=False)
STEPS = 20
SEEDS = (0, 1, 2)

_rows: list[tuple] = []
_timing_rows: list[tuple] = []


def run_validation(machine):
    return validate_against_reference(
        machine, steps=STEPS, seeds=SEEDS, delays_factory=hostile_random
    )


@pytest.mark.parametrize("name", MACHINES)
def test_hazard_ablation(benchmark, name):
    table = load_bench(name)
    protected = build_fantom(pipeline_synth(table))
    naive = build_fantom(pipeline_synth(table, options=UNPROTECTED))

    summary = benchmark.pedantic(
        run_validation, args=(protected,), rounds=1, iterations=1
    )
    naive_summary = run_validation(naive)

    _rows.append(
        (
            name,
            summary.total,
            summary.state_errors,
            summary.output_errors,
            naive_summary.state_errors,
            naive_summary.output_errors,
        )
    )
    # Per-pass cost of the correction itself, from cold-run reports.
    _, report = cold_report(table)
    _, naive_report = cold_report(table, options=UNPROTECTED)
    corrected_ms = (
        pass_seconds(report, "fsv") + pass_seconds(report, "factor")
    ) * 1000
    naive_ms = (
        pass_seconds(naive_report, "fsv")
        + pass_seconds(naive_report, "factor")
    ) * 1000
    _timing_rows.append(
        (name, f"{corrected_ms:.2f}", f"{naive_ms:.2f}",
         f"{corrected_ms - naive_ms:+.2f}")
    )
    benchmark.extra_info.update(
        fantom_errors=len(summary.failures),
        naive_errors=len(naive_summary.failures),
    )

    # The headline result: FANTOM clean, always.
    assert summary.all_clean, summary.describe()
    # The hazards are real: at least one unprotected machine must fail
    # (asserted in aggregate below, since inertial gates occasionally
    # rescue a particular machine at a particular skew).


def test_naive_machines_fail_in_aggregate(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    naive_failures = sum(row[4] + row[5] for row in _rows)
    assert naive_failures > 0, (
        "no unprotected machine failed — the ablation lost its teeth"
    )


def test_print_ablation(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if _rows:
        print_table(
            "Section 2 claim — hazard-freedom under multiple-input "
            "changes (hostile skew, random legal walks; ablation = "
            "hazard_correction=False)",
            ["Benchmark", "cycles/machine", "FANTOM state err",
             "FANTOM output err", "naive state err", "naive output err"],
            _rows,
        )
    if _timing_rows:
        print_table(
            "hazard-correction cost — fsv+factor wall clock, default "
            "vs hazard_correction=False (cold per-pass timings)",
            ["Benchmark", "corrected ms", "unprotected ms", "diff ms"],
            _timing_rows,
        )
