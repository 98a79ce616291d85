"""``repro.service`` — the synthesis service fabric.

The layer that turns the content-addressed store + shard stack into a
fleet: an in-process fake object-store server for the networked backend
(:mod:`~repro.service.fakes`), a durable work-stealing queue of unit
digests (:mod:`~repro.service.queue`), and the worker loop that drains
it (:mod:`~repro.service.worker`).  ``seance queue publish`` plus
``seance work`` is the one way to hand work to the fleet.

Hardening lives alongside: the transport policy the networked backend
runs under (:mod:`~repro.service.resilience` — bounded retries,
deterministic-jitter backoff, per-backend circuit breaker, telemetry),
the lease table coordinating queue claims
(:mod:`~repro.service.leases`), and the fault-injecting chaos harness
that proves all of it (:mod:`~repro.service.chaos`).

Everything here inherits the store's correctness story: results are
verified envelopes addressed by content, so a lost lease, a crashed
worker, a racing steal, or an injected network fault costs duplicated
*work* or a retry, never a wrong or torn *result*.
"""

from .chaos import ChaosProxy, ChaosSchedule
from .fakes import FakeObjectStoreServer
from .leases import LeaseHeartbeat, LeaseTable
from .queue import QueueStats, WorkQueue
from .resilience import (
    CircuitBreaker,
    RetryPolicy,
    TransportTelemetry,
    transport_snapshot,
)
from .worker import QueueWorker

__all__ = [
    "ChaosProxy",
    "ChaosSchedule",
    "CircuitBreaker",
    "FakeObjectStoreServer",
    "LeaseHeartbeat",
    "LeaseTable",
    "QueueStats",
    "QueueWorker",
    "RetryPolicy",
    "TransportTelemetry",
    "WorkQueue",
    "transport_snapshot",
]
