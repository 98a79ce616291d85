"""Transport resilience policy: retries, backoff, timeouts, breakers.

The networked backends (:mod:`repro.store.net`) keep the store's
founding failure semantics — a fault is *absence*, and the verified
envelope layer above recomputes — but PR 7 left them trusting: one
transient socket error collapsed straight to a miss, and a dead server
was re-dialled on every operation forever.  This module is the policy
layer threaded through every networked transport:

:class:`RetryPolicy`
    Bounded retries with exponential backoff and **deterministic
    jitter**: the delay for ``(operation key, attempt)`` is derived
    from a sha256 of the pair, so two processes retrying *different*
    operations desynchronise (no thundering herd) while a test replays
    the exact same schedule every run — no ``random`` state anywhere.
    Also carries the per-operation socket timeout and the breaker
    parameters, so one object configures a backend end to end
    (``--retry`` / ``--timeout`` on the CLI, ``?retry=&timeout=`` on
    any store URL).

:class:`CircuitBreaker`
    Closed → open after ``threshold`` *consecutive* exhausted
    operations (every retry already failed) → half-open one probe
    after ``reset_after`` seconds → closed again on success.  While
    open, operations short-circuit instantly to absence instead of
    stalling a worker fleet on a dead server's timeouts.

:class:`TransportTelemetry`
    Per-operation counters (ops / faults / retries / short-circuits) —
    the fix for the old silent degradation: every socket error is now
    counted and surfaced by ``seance store verify``.

Retrying writes is safe by construction: blob writes are idempotent
(content-addressed names, atomic backend writes) and *conditional*
puts replay their precondition — see
``ObjectStoreBackend.write_if_absent`` — so a retry after a lost
response can never turn one lease into two.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
import urllib.parse
from dataclasses import dataclass, replace

from ..errors import StoreError


def timeout_in_range(timeout: float) -> bool:
    """Is ``timeout`` a usable socket timeout?  Zero would make the
    socket non-blocking (every operation a silent miss); negative and
    NaN values are rejected by the socket layer itself."""
    return 0 < timeout < math.inf


@dataclass(frozen=True)
class RetryPolicy:
    """Everything a transport needs to decide *whether and when* to try
    again (see the module docstring).

    ``retries`` counts the re-attempts after the first try (2 → up to
    3 wire attempts per operation).  ``timeout`` is the per-operation
    socket timeout.  The breaker fields parameterise the
    :class:`CircuitBreaker` a backend builds from this policy.
    """

    retries: int = 2
    timeout: float = 10.0
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    breaker_threshold: int = 5
    breaker_reset: float = 30.0

    def delay(self, op_key: str, attempt: int) -> float:
        """Backoff before retry ``attempt`` (0-based) of ``op_key``.

        Exponential in the attempt, jittered deterministically into
        ``[0.5, 1.0] * base * 2^attempt`` by a sha256 of the pair —
        reproducible, yet uncorrelated across operations.
        """
        ceiling = min(
            self.backoff_base * (2.0 ** attempt), self.backoff_max
        )
        digest = hashlib.sha256(
            f"{op_key}:{attempt}".encode()
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / float(1 << 64)
        return ceiling * (0.5 + 0.5 * fraction)

    def merged(
        self, retries: int | None = None, timeout: float | None = None
    ) -> RetryPolicy:
        """This policy with explicit knobs overriding (None = keep)."""
        updates = {}
        if retries is not None:
            updates["retries"] = max(int(retries), 0)
        if timeout is not None:
            timeout = float(timeout)
            if not timeout_in_range(timeout):
                raise StoreError(
                    f"transport timeout must be a positive number of "
                    f"seconds, got {timeout}"
                )
            updates["timeout"] = timeout
        return replace(self, **updates) if updates else self

    @classmethod
    def from_query(
        cls, query: str, base: RetryPolicy | None = None
    ) -> RetryPolicy:
        """Fold URL query knobs (``?retry=4&timeout=2``) into a policy.

        Unknown keys are ignored; malformed or out-of-range values fall
        back to the base policy rather than failing a store open.
        """
        policy = base if base is not None else cls()
        parsed = urllib.parse.parse_qs(query)
        try:
            retries = (
                int(parsed["retry"][0]) if "retry" in parsed else None
            )
        except (ValueError, IndexError):
            retries = None
        try:
            timeout = (
                float(parsed["timeout"][0])
                if "timeout" in parsed
                else None
            )
        except (ValueError, IndexError):
            timeout = None
        if timeout is not None and not timeout_in_range(timeout):
            timeout = None
        return policy.merged(retries=retries, timeout=timeout)


class CircuitBreaker:
    """Consecutive-failure breaker with a half-open probe (module doc).

    A *failure* here is an operation that exhausted its retries — the
    policy layer has already absorbed transient blips, so ``threshold``
    consecutive exhaustions means the server is genuinely down.  Thread
    safe; shared by every operation of one backend.
    """

    CLOSED, OPEN, HALF_OPEN = "closed", "open", "half-open"

    def __init__(self, threshold: int = 5, reset_after: float = 30.0):
        self.threshold = max(int(threshold), 1)
        self.reset_after = float(reset_after)
        self._lock = threading.Lock()
        self._consecutive = 0
        self._opened_at: float | None = None
        self._probing = False
        # Telemetry counters (exposed via snapshot()).
        self.successes = 0
        self.failures = 0
        self.opens = 0
        self.short_circuits = 0

    @property
    def state(self) -> str:
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._opened_at is None:
            return self.CLOSED
        if time.monotonic() - self._opened_at >= self.reset_after:
            return self.HALF_OPEN
        return self.OPEN

    def allow(self) -> bool:
        """May an operation go to the wire right now?

        Closed: always.  Open: no (counted as a short-circuit).
        Half-open: exactly one in-flight probe; everyone else keeps
        short-circuiting until the probe reports.
        """
        with self._lock:
            state = self._state_locked()
            if state == self.CLOSED:
                return True
            if state == self.HALF_OPEN and not self._probing:
                self._probing = True
                return True
            self.short_circuits += 1
            return False

    def record_success(self) -> None:
        with self._lock:
            self.successes += 1
            self._consecutive = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            self._consecutive += 1
            self._probing = False
            if self._opened_at is not None:
                # A failed half-open probe re-opens the window.
                self._opened_at = time.monotonic()
            elif self._consecutive >= self.threshold:
                self._opened_at = time.monotonic()
                self.opens += 1

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "state": self._state_locked(),
                "successes": self.successes,
                "failures": self.failures,
                "opens": self.opens,
                "short_circuits": self.short_circuits,
            }


class TransportTelemetry:
    """Per-operation fault accounting for one backend (module doc)."""

    FIELDS = ("ops", "faults", "retries", "short_circuits")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, dict[str, int]] = {}

    def _bump(self, op: str, field: str) -> None:
        with self._lock:
            row = self._counts.setdefault(
                op, dict.fromkeys(self.FIELDS, 0)
            )
            row[field] += 1

    def record_op(self, op: str) -> None:
        self._bump(op, "ops")

    def record_fault(self, op: str) -> None:
        self._bump(op, "faults")

    def record_retry(self, op: str) -> None:
        self._bump(op, "retries")

    def record_short_circuit(self, op: str) -> None:
        self._bump(op, "short_circuits")

    def total(self, field: str) -> int:
        with self._lock:
            return sum(row[field] for row in self._counts.values())

    @property
    def faults(self) -> int:
        return self.total("faults")

    def snapshot(self) -> dict:
        with self._lock:
            return {
                op: dict(row)
                for op, row in sorted(self._counts.items())
            }


def transport_snapshot(backend) -> dict | None:
    """The telemetry + breaker state of a backend, or None for local
    backends (directory, memory) that have no transport to account."""
    telemetry = getattr(backend, "telemetry", None)
    breaker = getattr(backend, "breaker", None)
    if not isinstance(telemetry, TransportTelemetry):
        return None
    report: dict = {"operations": telemetry.snapshot()}
    for field in TransportTelemetry.FIELDS:
        report[field] = telemetry.total(field)
    if isinstance(breaker, CircuitBreaker):
        report["breaker"] = breaker.snapshot()
    return report
