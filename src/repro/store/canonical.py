"""Canonical (run-independent) projections of result streams.

"Byte-identical" is the store's acceptance contract: a batch matrix or
campaign split across N shards and merged must reproduce the
single-process stream exactly.  Wall-clock telemetry (item seconds,
per-pass timings, whether the store served a result) is honest *per run*
but different *between* runs, so the comparison surface is a canonical
projection that keeps every deterministic field — names, order, errors,
full synthesis artifacts, every validation cycle — and drops only
timing and store provenance.

``seance batch --json --canonical`` and ``seance shard merge --json``
both emit these projections, so the CI smoke job can literally ``diff``
their outputs; the differential test suite (``tests/store/``) compares
the same bytes via :func:`canonical_json`.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

from ..core.serialize import canonical_result_dict


def canonical_batch_payload(items: Iterable) -> list[dict]:
    """The deterministic projection of a :class:`BatchItem` stream."""
    return [
        {
            "name": item.name,
            "ok": item.ok,
            "error": item.error,
            "result": (
                canonical_result_dict(item.result.to_dict())
                if item.ok
                else None
            ),
        }
        for item in items
    ]


def canonical_campaign_payload(result) -> dict:
    """The deterministic projection of a :class:`CampaignResult`."""
    return {
        "models": list(result.models),
        "sweep": result.sweep,
        "steps": result.steps,
        "errors": [list(pair) for pair in result.errors],
        "cells": [
            {
                "table": cell.table,
                "model": cell.model,
                "seed": cell.seed,
                "engine_path": cell.engine_path,
                "summary": cell.summary.to_dict(),
            }
            for cell in result.cells
        ],
    }


def canonical_json(payload) -> str:
    """The byte-comparison form: sorted keys, fixed layout."""
    return json.dumps(payload, indent=2, sort_keys=True)
