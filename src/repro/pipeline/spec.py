"""Declarative pipeline configuration: the :class:`PipelineSpec`.

A spec is everything a synthesis run is configured by, as plain data:
the **options**, a :class:`~repro.pipeline.options.SynthesisOptions`.
The stage list is not part of it: every run is the paper's seven stages
(:data:`~repro.pipeline.registry.DEFAULT_PIPELINE`), and every ablation
is an option.  Because the options are names and scalars, a spec
round-trips through JSON (``to_dict``/``from_dict``, strictly: unknown
keys are errors, and re-serialising a deserialised spec is
byte-identical), which is what the sharded-batch and remote-store
roadmap items need: an ablation run is reproducible from a spec file
alone (``seance synth --spec SPEC.json``), and :meth:`fingerprint`
names a configuration content-addressably for cross-machine
work-splitting and for the result store's keys.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import SynthesisError
from .options import SynthesisOptions
from .registry import DEFAULT_PIPELINE

#: Bump when the spec dictionary layout changes incompatibly.
SPEC_FORMAT_VERSION = 1


def _require_keys(payload: dict, allowed: set[str], what: str) -> None:
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise SynthesisError(
            f"unknown {what} key(s) {unknown}; allowed: {sorted(allowed)}"
        )


def _check_legacy_cache(cache) -> None:
    """Read and ignore the ``"cache"`` object older builds wrote.

    Those builds configured an in-process stage cache with
    ``{"enabled": true|false, "path": null, "max_entries": 4096}``; any
    other value asked for something no build offers now.
    """
    if (
        isinstance(cache, dict)
        and set(cache) <= {"enabled", "path", "max_entries"}
        and isinstance(cache.get("enabled", True), bool)
        and cache.get("path") is None
        and cache.get("max_entries", 4096) == 4096
    ):
        return
    raise SynthesisError(
        f"pipeline spec 'cache' {cache!r} is no longer supported: there "
        "is no stage cache; reuse whole results with a result store "
        "(--store)"
    )


def _options_to_dict(options: SynthesisOptions) -> dict:
    return {f.name: getattr(options, f.name)
            for f in dataclasses.fields(SynthesisOptions)}


def _options_from_dict(payload: dict) -> SynthesisOptions:
    """Options from a spec file or a queue unit's payload; the values
    are checked by :class:`SynthesisOptions` itself."""
    if not isinstance(payload, dict):
        raise SynthesisError(
            f"options must be an object, got {type(payload).__name__}"
        )
    fields = {f.name for f in dataclasses.fields(SynthesisOptions)}
    _require_keys(payload, fields, "options")
    return SynthesisOptions(**payload)


@dataclass(frozen=True)
class PipelineSpec:
    """A named, serialisable pipeline configuration.

    Immutable; the ``with_*`` builders derive new specs.
    """

    options: SynthesisOptions = field(default_factory=SynthesisOptions)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    def with_options(
        self, options: SynthesisOptions | None = None, **overrides
    ) -> "PipelineSpec":
        """Replace the options (or update fields of the current ones)."""
        base = options if options is not None else self.options
        if overrides:
            try:
                base = dataclasses.replace(base, **overrides)
            except TypeError as error:
                raise SynthesisError(f"bad options: {error}") from error
        return dataclasses.replace(self, options=base)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash naming this configuration.

        Two specs with equal fingerprints synthesise identically.  This
        is the key sharded batch runs partition work by.  The stage list sits in the hash where older specs
        kept their pass list, so store keys written before the list was
        fixed stay valid.
        """
        digest = hashlib.sha256()
        digest.update(
            repr(
                (
                    SPEC_FORMAT_VERSION,
                    DEFAULT_PIPELINE,
                    self.options.fingerprint_items(),
                )
            ).encode()
        )
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A JSON-serialisable form; ``from_dict`` round-trips it."""
        return {
            "format": SPEC_FORMAT_VERSION,
            "options": _options_to_dict(self.options),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PipelineSpec":
        """Strict inverse of :meth:`to_dict` (unknown keys are errors)."""
        if not isinstance(payload, dict):
            raise SynthesisError(
                f"pipeline spec must be an object, got "
                f"{type(payload).__name__}"
            )
        _require_keys(
            payload, {"format", "passes", "options", "cache"}, "pipeline spec"
        )
        version = payload.get("format", SPEC_FORMAT_VERSION)
        if version != SPEC_FORMAT_VERSION:
            raise SynthesisError(
                f"unsupported pipeline spec format {version!r} "
                f"(this build reads format {SPEC_FORMAT_VERSION})"
            )
        # Spec files and queued units written by older builds carry the
        # stage list as ``"passes"``; the paper's seven stages stay
        # readable, and any other list named a variant that is gone.
        passes = payload.get("passes", list(DEFAULT_PIPELINE))
        if (
            not isinstance(passes, (list, tuple))
            or tuple(passes) != DEFAULT_PIPELINE
        ):
            raise SynthesisError(
                f"pipeline spec 'passes' {passes!r} is no longer "
                "supported: the pipeline is always the paper's seven "
                "stages; for an unprotected machine set options "
                "'hazard_correction: false', and for dynamic checks run "
                "`seance validate`"
            )
        if "cache" in payload:
            _check_legacy_cache(payload["cache"])
        return cls(options=_options_from_dict(payload.get("options", {})))

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise SynthesisError(
                f"pipeline spec is not valid JSON: {error}"
            ) from error
        return cls.from_dict(payload)

    def save(self, path: str | os.PathLike) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str | os.PathLike) -> "PipelineSpec":
        try:
            text = Path(path).read_text()
        except OSError as error:
            raise SynthesisError(
                f"cannot read pipeline spec {os.fspath(path)!r}: {error}"
            ) from error
        return cls.from_json(text)
