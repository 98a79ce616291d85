"""Shared helpers for the benchmark harness.

Every module in this directory regenerates one row of DESIGN.md's
experiment index (a paper table, figure, or quantified claim).  Run with

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the regenerated tables; timing statistics come from
pytest-benchmark as usual.
"""

from __future__ import annotations

from repro import api


def pipeline_session(table, options=None):
    """An :class:`repro.api.Session` on ``table`` under ``options``."""
    session = api.load(table)
    if options is not None:
        session = session.with_options(options)
    return session


def pipeline_synth(table, options=None):
    """Synthesise ``table`` for a benchmark's *set-up*.

    Use for set-up synthesis in benchmarks whose timed section is
    something else (validation walks, cover costing, factoring).
    """
    return pipeline_session(table, options).run()


def cold_report(table, options=None):
    """(result, PipelineReport) of one fresh run — honest per-pass
    wall-clock numbers for the ablation timing diffs."""
    return pipeline_session(table, options).run_with_report()


def pass_seconds(report, stage: str) -> float:
    """Wall-clock seconds the named stage took in a report."""
    for event in report.events:
        if event.name == stage:
            return event.seconds
    names = [event.name for event in report.events]
    raise KeyError(f"no pass {stage!r} in report ({names})")


def print_table(title: str, headers: list[str], rows: list[tuple]) -> None:
    """Print an aligned table (the regenerated paper artifact)."""
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print()
    print(title)
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
