"""Exception hierarchy for the FANTOM/SEANCE reproduction.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures without masking programming errors such
as :class:`TypeError`.

The hierarchy mirrors the synthesis pipeline: specification problems
(:class:`SpecificationError` and friends) are user-input errors detected
during flow-table preparation, while :class:`SynthesisError` subclasses
signal that a pipeline stage could not complete (for example, no valid
state assignment exists under the requested constraints).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class SpecificationError(ReproError):
    """A user-supplied specification (flow table, KISS2 text, STG) is invalid."""


class KissFormatError(SpecificationError):
    """KISS2 text could not be parsed.

    Carries the 1-based ``line`` number when available so error messages can
    point at the offending line of the source file.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class FlowTableError(SpecificationError):
    """A flow table violates a structural requirement.

    Raised, for example, when a table is not in normal mode, is not strongly
    connected, has a state with no stable column, or contains conflicting
    entries for the same (state, input) point.
    """


class CorpusError(SpecificationError):
    """A corpus key names an unknown family/parameter, or a generator
    family exhausted its retry budget without emitting a valid table."""


class SynthesisError(ReproError):
    """A synthesis stage failed to produce a result."""


class StateAssignmentError(SynthesisError):
    """No valid USTT state assignment could be constructed."""


class CoveringError(SynthesisError):
    """A covering problem (logic cover, closed cover, dichotomy cover) failed.

    With a correct problem formulation this indicates an internal bug or an
    infeasible specification; the message states which.
    """


class SimulationError(ReproError):
    """The event-driven simulator detected an unrecoverable condition.

    Examples: an unstable combinational feedback loop that never settles
    within the event budget, or a netlist with a combinational cycle of
    zero-delay gates.
    """


class NetlistError(ReproError):
    """A netlist is malformed (dangling nets, duplicate drivers, bad gate)."""


class StoreError(ReproError):
    """The content-addressed result store cannot satisfy a request.

    Raised by the shard merger when work units are missing from the
    store (the message names each missing unit and the shard that owns
    it, so the operator knows which worker to re-run), and when a store
    location names a URL scheme no backend speaks.  Never raised
    for corrupt or wrong-key blobs — those are verified away as misses
    and recomputed.
    """

