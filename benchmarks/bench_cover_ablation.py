"""Experiment S5.2 — essential SOP suffices for Z and SSD.

"The use of self-synchronization at the outputs removes the possibility
of transient hazards, thus it is not necessary to include all prime
implicants in the expression."  (Paper Section 5.2.)

The ablation spends the full logic-hazard-free all-primes covers on Z
and SSD instead of the minimum covers the paper's latching makes
sufficient.  It is computed here, from the default run's
:class:`~repro.core.spec.SpecifiedMachine`: the same Z and SSD
functions Step 4 covers, covered by :func:`all_primes_cover` and turned
into first-level expressions as Step 4 does.  The bench diffs the two —
term/literal counts per signal, plus the wall-clock cost of Step 4 with
each kind of cover — and confirms the essential covers do contain
single-input-change hazards, i.e. the saving is real and the latching
is what makes it safe.
"""

import time

import pytest

from conftest import cold_report, pass_seconds, pipeline_synth, print_table
from repro.bench import TABLE1_BENCHMARKS
from repro.bench import benchmark as load_bench
from repro.hazards.logic_hazards import static_one_hazards
from repro.logic.expr import sop_to_expr
from repro.logic.factor import first_level
from repro.logic.quine_mccluskey import all_primes_cover
from repro.pipeline import SynthesisOptions

_rows: list[tuple] = []
_timing_rows: list[tuple] = []


def signal_covers(result):
    """{signal: cover} for every latched signal (Z outputs + SSD)."""
    covers = {eq.name: eq.cover for eq in result.outputs}
    covers["SSD"] = result.ssd.cover
    return covers


def all_primes_covers(spec, options):
    """{signal: all-primes cover} for Z and SSD, with the expression
    build Step 4 does for each cover."""
    functions = [
        (name, spec.output_function(k, options.output_policy))
        for k, name in enumerate(spec.table.outputs)
    ]
    functions.append(("SSD", spec.ssd_function(options.ssd_dc_policy)))
    covers = {}
    for signal, function in functions:
        cover = all_primes_cover(function)
        first_level(sop_to_expr(cover, spec.names))
        covers[signal] = tuple(cover)
    return covers


@pytest.mark.parametrize("name", TABLE1_BENCHMARKS)
def test_cover_ablation(benchmark, name):
    table = load_bench(name)
    essential = pipeline_synth(table)
    width = essential.spec.width
    options = SynthesisOptions()

    seconds = {}

    def run_ablated():
        # Timed section: the all-primes Step 4 alone.  The last run's
        # wall clock feeds the timing-diff table below.
        start = time.perf_counter()
        covers = all_primes_covers(essential.spec, options)
        seconds["primes"] = time.perf_counter() - start
        return covers

    primes_covers = benchmark(run_ablated)

    essential_covers = signal_covers(essential)
    assert set(essential_covers) == set(primes_covers)

    for signal, e_cover in essential_covers.items():
        p_cover = primes_covers[signal]
        e_terms = len(e_cover)
        e_lits = sum(c.num_literals for c in e_cover)
        p_terms = len(p_cover)
        p_lits = sum(c.num_literals for c in p_cover)
        hazards = len(static_one_hazards(list(e_cover), width))
        _rows.append(
            (name, signal, e_terms, e_lits, p_terms, p_lits, hazards)
        )
        # all-primes can never be smaller than the minimum cover
        assert p_terms >= e_terms
        assert p_lits >= e_lits

    # Step-4 cost with each cover: the essential one from a cold run's
    # report, the all-primes one from the timed section above.
    _, essential_report = cold_report(table)
    e_ms = pass_seconds(essential_report, "outputs") * 1000
    p_ms = seconds["primes"] * 1000
    _timing_rows.append(
        (name, f"{e_ms:.2f}", f"{p_ms:.2f}", f"{p_ms - e_ms:+.2f}")
    )


def test_savings_are_real_somewhere(benchmark):
    """At least some machine's essential cover is strictly smaller AND
    carries SIC hazards — i.e. the paper's relaxation has bite."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    strictly_smaller = any(row[4] > row[2] for row in _rows)
    hazardous = any(row[6] > 0 for row in _rows)
    assert strictly_smaller
    assert hazardous


def test_print_cover_ablation(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    if _rows:
        print_table(
            "Section 5.2 — essential SOP vs all-primes for Z and SSD "
            "(ablation = all-primes covers of the same Z/SSD functions)",
            ["Benchmark", "signal", "essential terms", "essential lits",
             "all-primes terms", "all-primes lits",
             "SIC hazards in essential"],
            _rows,
        )
    if _timing_rows:
        print_table(
            "outputs-stage wall clock, essential vs all-primes "
            "(cold per-pass timings)",
            ["Benchmark", "outputs ms", "outputs:all-primes ms",
             "diff ms"],
            _timing_rows,
        )
