"""Corpus keys: the workload names of generated machines.

A corpus key is a string of the form::

    corpus:FAMILY:SEED
    corpus:FAMILY:p1=v1,p2=v2:SEED

naming one deterministically generated flow table — ``FAMILY`` picks the
generator (:data:`repro.corpus.families.FAMILIES`), the optional
``k=v`` segment overrides the family's default parameters, and ``SEED``
selects the instance.  The key is the table's *name*, so everything that
consumes a table name — ``repro.api.load``, ``ShardedBatch``,
``ShardedCampaign``, the result store — handles corpus machines exactly
like paper-suite benchmarks: the same text always denotes the same
table, byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import CorpusError

#: Every corpus key starts with this.
PREFIX = "corpus:"


def is_corpus_key(text: str) -> bool:
    """True when ``text`` is shaped like a corpus key (prefix only —
    :func:`parse_key` does the real validation)."""
    return isinstance(text, str) and text.startswith(PREFIX)


@dataclass(frozen=True)
class CorpusKey:
    """One generated machine's identity: (family, params, seed).

    ``params`` holds only the *overrides* (sorted, so equal overrides
    render equal text); family defaults are applied at generation time.
    """

    family: str
    seed: int
    params: tuple[tuple[str, int], ...] = field(default=())

    def __str__(self) -> str:
        if self.params:
            overrides = ",".join(f"{k}={v}" for k, v in self.params)
            return f"{PREFIX}{self.family}:{overrides}:{self.seed}"
        return f"{PREFIX}{self.family}:{self.seed}"

    def merged_params(self, defaults: dict[str, int]) -> dict[str, int]:
        """Family defaults with this key's overrides applied."""
        merged = dict(defaults)
        merged.update(self.params)
        return merged


def _known_families() -> dict:
    from .families import FAMILIES

    return FAMILIES


def make_key(
    family: str, seed: int, params: dict[str, int] | None = None
) -> CorpusKey:
    """Build a validated :class:`CorpusKey` from components."""
    families = _known_families()
    if family not in families:
        raise CorpusError(
            f"unknown corpus family {family!r} "
            f"(families: {', '.join(sorted(families))})"
        )
    defaults = families[family].defaults
    overrides = {}
    for name, value in (params or {}).items():
        if name not in defaults:
            raise CorpusError(
                f"family {family!r} has no parameter {name!r} "
                f"(parameters: {', '.join(sorted(defaults))})"
            )
        if int(value) != defaults[name]:
            overrides[name] = int(value)
    return CorpusKey(family, int(seed), tuple(sorted(overrides.items())))


def parse_key(text: str) -> CorpusKey:
    """Parse ``corpus:FAMILY[:k=v,...]:SEED`` into a :class:`CorpusKey`.

    Raises :class:`~repro.errors.CorpusError` with the available family
    (or parameter) names on anything unknown — the clear-message
    contract ``api.load`` relies on.
    """
    if not is_corpus_key(text):
        raise CorpusError(f"{text!r} is not a corpus key ({PREFIX}...)")
    parts = text[len(PREFIX):].split(":")
    if len(parts) == 2:
        family, params_text, seed_text = parts[0], "", parts[1]
    elif len(parts) == 3:
        family, params_text, seed_text = parts
    else:
        raise CorpusError(
            f"malformed corpus key {text!r} "
            f"(want {PREFIX}FAMILY[:k=v,...]:SEED)"
        )
    try:
        seed = int(seed_text)
    except ValueError:
        raise CorpusError(
            f"corpus key {text!r} has a non-integer seed {seed_text!r}"
        ) from None
    params: dict[str, int] = {}
    if params_text:
        for item in params_text.split(","):
            name, _, value_text = item.partition("=")
            if not _ or not name:
                raise CorpusError(
                    f"corpus key {text!r} has a malformed parameter "
                    f"{item!r} (want name=value)"
                )
            try:
                params[name] = int(value_text)
            except ValueError:
                raise CorpusError(
                    f"corpus key {text!r} parameter {name!r} has a "
                    f"non-integer value {value_text!r}"
                ) from None
    return make_key(family, seed, params)
