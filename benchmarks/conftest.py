"""Shared helpers for the benchmark harness.

Every module in this directory regenerates one row of DESIGN.md's
experiment index (a paper table, figure, or quantified claim).  Run with

    pytest benchmarks/ --benchmark-only -s

``-s`` shows the regenerated tables; timing statistics come from
pytest-benchmark as usual.
"""

from __future__ import annotations

from repro import api
from repro.pipeline import StageCache

#: One stage cache shared by every bench module: set-up synthesis of the
#: same (table, options) — the hazard ablation building its protected
#: machine, the cover ablation inspecting the same spec — runs each pass
#: once per session; an option change (``options=``) re-runs them all.
_CACHE = StageCache()


def pipeline_session(table, options=None):
    """An :class:`repro.api.Session` on the shared stage cache."""
    session = api.load(table).with_cache(_CACHE)
    if options is not None:
        session = session.with_options(options)
    return session


def pipeline_synth(table, options=None):
    """Synthesise through the session-shared, stage-cached pipeline.

    Use for *set-up* synthesis in benchmarks whose timed section is
    something else (validation walks, cover costing, factoring).  Timed
    synthesis should call ``repro.api.synthesize`` (or an uncached
    session) so the measurement is never a cache hit.
    """
    return pipeline_session(table, options).run()


def cold_report(table, options=None):
    """(result, PipelineReport) from an *uncached* run — honest per-pass
    wall-clock numbers for the ablation timing diffs."""
    session = pipeline_session(table, options).with_cache(None)
    return session.run_with_report()


def pass_seconds(report, stage: str) -> float:
    """Wall-clock seconds the named stage took in a report."""
    for event in report.events:
        if event.name == stage:
            return event.seconds
    raise KeyError(f"no pass {stage!r} in report ({report.cache_hits})")


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
