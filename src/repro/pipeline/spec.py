"""Declarative pipeline configuration: the :class:`PipelineSpec`.

A spec is everything a synthesis run is configured by, as plain data:

* the **options** — a :class:`~repro.pipeline.options.SynthesisOptions`,
* the **cache config** — a :class:`CacheSpec`.

The stage list is not part of it: every run is the paper's seven stages
(:data:`~repro.pipeline.registry.DEFAULT_PIPELINE`), and every ablation
is an option.  Because both parts are names and scalars, a spec
round-trips through JSON (``to_dict``/``from_dict``, strictly: unknown
keys are errors, and re-serialising a deserialised spec is
byte-identical), which is what the sharded-batch and remote-store
roadmap items need: an ablation run is reproducible from a spec file
alone (``seance synth --spec SPEC.json``), and :meth:`fingerprint`
names a configuration content-addressably for cross-machine
work-splitting.

Cache interaction: the options are hashed into the stage-cache run
prefix (see :func:`~repro.pipeline.cache.run_fingerprint`), so two
specs share stage keys exactly when their options are equal.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import SynthesisError
from .cache import MAX_ENTRIES, StageCache
from .manager import PassManager
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


@dataclass(frozen=True)
class CacheSpec:
    """Stage-cache configuration, as data.

    ``enabled=False`` disables caching entirely; the in-memory cache is
    bounded by :data:`~repro.pipeline.cache.MAX_ENTRIES`.  Sharing work
    across processes is the result store's job (``--store``), not the
    stage cache's.
    """

    enabled: bool = True

    def build(self) -> StageCache | None:
        """Materialise the configured cache (None when disabled)."""
        if not self.enabled:
            return None
        return StageCache()

    def to_dict(self) -> dict:
        return {"enabled": self.enabled}

    @classmethod
    def from_dict(cls, payload: dict) -> "CacheSpec":
        if not isinstance(payload, dict):
            raise SynthesisError(
                f"cache spec must be an object, got {type(payload).__name__}"
            )
        _require_keys(payload, {"enabled", "path", "max_entries"}, "cache spec")
        # Spec files written by older builds carry ``"path": null`` and
        # ``"max_entries": 4096``, so both keys stay readable; any other
        # value asked for a cross-process stage cache (the store's job
        # now) or a bound that is no longer settable.
        if payload.get("path") is not None:
            raise SynthesisError(
                "cache spec 'path' is no longer supported: share results "
                "across processes with a result store (--store)"
            )
        if payload.get("max_entries", MAX_ENTRIES) != MAX_ENTRIES:
            raise SynthesisError(
                f"cache spec 'max_entries' is no longer settable: the "
                f"stage cache always holds up to {MAX_ENTRIES} entries"
            )
        spec = cls(enabled=payload.get("enabled", True))
        if not isinstance(spec.enabled, bool):
            raise SynthesisError("cache spec 'enabled' must be a boolean")
        return spec


def reject_cache_path(cache) -> None:
    """Raise for a path handed to ``with_cache``: the stage cache is
    in-memory only, and cross-process reuse is the result store's job."""
    if isinstance(cache, (str, os.PathLike)):
        raise SynthesisError(
            f"with_cache({os.fspath(cache)!r}): the stage cache has no "
            "persistent tier; attach a result store with with_store()"
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
    cache: CacheSpec = field(default_factory=CacheSpec)

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

    def with_cache(self, cache: CacheSpec | None) -> "PipelineSpec":
        """Set the cache config (None disables the stage cache)."""
        reject_cache_path(cache)
        spec = CacheSpec(enabled=False) if cache is None else cache
        return dataclasses.replace(self, cache=spec)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def build_manager(self, cache: StageCache | None | object = ...) -> PassManager:
        """A :class:`PassManager` running the paper pipeline.

        ``cache`` overrides the spec's cache config with an existing
        :class:`StageCache` instance (or explicit None); by default the
        configured cache is built fresh.
        """
        built = self.cache.build() if cache is ... else cache
        return PassManager(cache=built)

    def fingerprint(self) -> str:
        """Content hash naming this configuration (cache config excluded).

        Two specs with equal fingerprints synthesise identically; the
        cache config only decides where artifacts are stored, so it does
        not participate.  This is the key sharded batch runs partition
        work by.  The stage list sits in the hash where older specs
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
            "cache": self.cache.to_dict(),
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
        return cls(
            options=_options_from_dict(payload.get("options", {})),
            cache=CacheSpec.from_dict(payload.get("cache", {})),
        )

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
