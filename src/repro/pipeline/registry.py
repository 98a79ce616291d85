"""The named-pass registry: string keys to pass factories.

Every pass the pipeline can run is registered under a string key —
``"reduce"``, ``"hazards:off"``, ``"verify"`` — so that pipelines
can be *named and serialised* (a :class:`~repro.pipeline.spec.PipelineSpec`
is a list of these keys plus options) instead of passed around as live
Python objects.  A stage implementation no
:class:`~repro.pipeline.options.SynthesisOptions` field selects is a
**pass substitution**: replacing ``"hazards"`` with ``"hazards:off"``
skips the Step-5 hazard search, and the substituted run shares every
stage-cache entry upstream of the swap with the paper-default run (same
table, same options, same pass prefix).

Key grammar
-----------
``<stage>`` or ``<stage>:<variant>``.  The part before the colon is the
**base name** — the Figure-3 stage the pass implements — and every
variant of a stage registers (and caches, and reports timing) under that
same base name, so substituting a variant never changes the shape of
``stage_seconds`` or the artifact contract.  :func:`substitute` replaces
pipeline entries by base name.

Registration
------------
Pass classes self-register with the decorator::

    @register_pass("hazards:off")
    class SkipHazardsPass:
        name = "hazards"
        ...

Factories (for passes needing construction arguments) register the same
way; the registry only requires that calling the registered object with
no arguments yields a :class:`~repro.pipeline.passes.Pass`.

Instances created through the registry carry their key as
``registry_key``; the :class:`~repro.pipeline.manager.PassManager`
embeds that key in the stage-cache lineage, so the *registry name* of
every pass that ran is part of every stage key — a
:class:`~repro.pipeline.spec.PipelineSpec`'s pass list is fingerprinted
into the existing cache keys pass by pass.
"""

from __future__ import annotations

from typing import Callable

from ..errors import SynthesisError

#: The paper's Figure-3 pipeline as registry keys, in order.
DEFAULT_PIPELINE: tuple[str, ...] = (
    "validate",
    "reduce",
    "assign",
    "outputs",
    "hazards",
    "fsv",
    "factor",
)

_REGISTRY: dict[str, Callable[[], object]] = {}


def register_pass(key: str):
    """Class/factory decorator binding ``key`` to a pass factory.

    Re-registering a key is an error — substitution is done per
    pipeline (see :func:`substitute`), never by mutating the registry.
    """
    if ":" in key and not all(part for part in key.split(":")):
        raise SynthesisError(f"malformed pass key {key!r}")

    def decorate(factory):
        if key in _REGISTRY:
            raise SynthesisError(
                f"pass key {key!r} is already registered "
                f"({_REGISTRY[key]!r})"
            )
        _REGISTRY[key] = factory
        return factory

    return decorate


def base_name(key: str) -> str:
    """The stage a key belongs to (``"hazards:off"`` -> ``"hazards"``)."""
    return key.split(":", 1)[0]


def _ensure_builtin_passes() -> None:
    # The built-in pass classes register themselves on import; make sure
    # that import happened even when callers reached this module first.
    from . import passes  # noqa: F401


def registered_passes() -> tuple[str, ...]:
    """All registered keys, sorted (default-pipeline stages first)."""
    _ensure_builtin_passes()
    order = {name: i for i, name in enumerate(DEFAULT_PIPELINE)}
    return tuple(
        sorted(
            _REGISTRY,
            key=lambda k: (order.get(base_name(k), len(order)), k),
        )
    )


def create_pass(key: str):
    """Instantiate the pass registered under ``key``.

    The instance is stamped with ``registry_key`` so the manager can
    embed the key in stage-cache lineage entries.
    """
    _ensure_builtin_passes()
    try:
        factory = _REGISTRY[key]
    except KeyError:
        raise SynthesisError(
            f"unknown pass {key!r}; registered passes: "
            f"{', '.join(registered_passes())}"
        ) from None
    instance = factory()
    instance.registry_key = key
    if base_name(key) != instance.name:
        raise SynthesisError(
            f"pass registered as {key!r} reports stage name "
            f"{instance.name!r}; variants must keep their base name"
        )
    return instance


def resolve_passes(keys) -> tuple:
    """Instantiate a whole pipeline from registry keys, in order."""
    return tuple(create_pass(key) for key in keys)


def substitute(pipeline: tuple[str, ...], *overrides: str) -> tuple[str, ...]:
    """Replace pipeline entries by base name.

    ``substitute(DEFAULT_PIPELINE, "hazards:off")`` yields the default
    pipeline with its ``hazards`` stage swapped for the no-search
    variant.  An override whose base name matches no pipeline entry is
    an error (a silent no-op would make ablation specs lie).
    """
    result = list(pipeline)
    for key in overrides:
        stage = base_name(key)
        hits = [i for i, entry in enumerate(result) if base_name(entry) == stage]
        if not hits:
            raise SynthesisError(
                f"substitution {key!r} matches no pipeline stage "
                f"(pipeline: {list(pipeline)})"
            )
        for i in hits:
            result[i] = key
    return tuple(result)
