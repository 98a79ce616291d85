"""The transport policy layer: backoff, breakers, telemetry.

Pure-unit coverage of :mod:`repro.service.resilience` — no sockets.
The wire-level behaviour (retries actually absorbing injected faults)
lives in ``test_chaos.py`` and the parametrised conformance suite.
"""

import pytest

from repro.errors import StoreError
from repro.service.resilience import (
    CircuitBreaker,
    RetryPolicy,
    TransportTelemetry,
    transport_snapshot,
)
from repro.store.backend import MemoryBackend


class TestRetryPolicy:
    def test_delay_is_deterministic(self):
        policy = RetryPolicy()
        assert policy.delay("GET /b/x", 0) == policy.delay("GET /b/x", 0)
        assert policy.delay("GET /b/x", 1) == policy.delay("GET /b/x", 1)

    def test_delay_decorrelates_operations(self):
        policy = RetryPolicy()
        assert policy.delay("GET /b/x", 0) != policy.delay("GET /b/y", 0)

    def test_delay_bounds(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_max=1.0)
        for attempt in range(8):
            ceiling = min(0.1 * 2.0**attempt, 1.0)
            delay = policy.delay("op", attempt)
            assert 0.5 * ceiling <= delay <= ceiling

    def test_delay_caps_at_backoff_max(self):
        policy = RetryPolicy(backoff_base=0.05, backoff_max=0.2)
        assert policy.delay("op", 30) <= 0.2

    def test_merged_overrides(self):
        policy = RetryPolicy().merged(retries=7, timeout=1.5)
        assert policy.retries == 7
        assert policy.timeout == 1.5
        # Unspecified knobs keep their values.
        assert policy.backoff_base == RetryPolicy().backoff_base

    def test_merged_clamps_negative_retries(self):
        assert RetryPolicy().merged(retries=-3).retries == 0

    @pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan"),
                                         float("inf")])
    def test_merged_rejects_an_unusable_timeout(self, timeout):
        with pytest.raises(StoreError, match="timeout"):
            RetryPolicy().merged(timeout=timeout)

    def test_merged_noop_returns_self(self):
        policy = RetryPolicy()
        assert policy.merged() is policy

    def test_from_query(self):
        policy = RetryPolicy.from_query("retry=5&timeout=2.5")
        assert policy.retries == 5
        assert policy.timeout == 2.5

    def test_from_query_ignores_unknown_keys(self):
        policy = RetryPolicy.from_query("ttl=300&retry=1")
        assert policy.retries == 1
        assert policy.timeout == RetryPolicy().timeout

    def test_from_query_malformed_falls_back(self):
        base = RetryPolicy(retries=9)
        policy = RetryPolicy.from_query("retry=lots&timeout=", base=base)
        assert policy.retries == 9
        assert policy.timeout == base.timeout

    @pytest.mark.parametrize("timeout", ["-1", "0", "nan", "inf"])
    def test_from_query_out_of_range_timeout_falls_back(self, timeout):
        base = RetryPolicy(timeout=4.0)
        policy = RetryPolicy.from_query(f"timeout={timeout}", base=base)
        assert policy.timeout == 4.0

    def test_from_query_empty(self):
        assert RetryPolicy.from_query("") == RetryPolicy()


class TestCircuitBreaker:
    def test_closed_allows(self):
        breaker = CircuitBreaker(threshold=2)
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_opens_after_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=3, reset_after=60.0)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.opens == 1
        assert breaker.short_circuits == 1

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_single_probe(self):
        breaker = CircuitBreaker(threshold=1, reset_after=0.0)
        breaker.record_failure()
        # reset_after=0: instantly half-open.
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the probe
        assert not breaker.allow()  # everyone else still short-circuits
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(threshold=1, reset_after=30.0)
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        # Fake the lapse by shrinking the window in place.
        breaker.reset_after = 0.0
        assert breaker.allow()
        breaker.reset_after = 30.0
        breaker.record_failure()  # the probe failed: window re-stamps
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opens == 1  # re-opening is not a fresh open

    def test_snapshot_shape(self):
        snapshot = CircuitBreaker().snapshot()
        assert set(snapshot) == {
            "state", "successes", "failures", "opens", "short_circuits",
        }


class TestTelemetry:
    def test_per_operation_counts(self):
        telemetry = TransportTelemetry()
        telemetry.record_op("GET")
        telemetry.record_op("GET")
        telemetry.record_fault("GET")
        telemetry.record_retry("GET")
        telemetry.record_op("PUT")
        snapshot = telemetry.snapshot()
        assert snapshot["GET"] == {
            "ops": 2, "faults": 1, "retries": 1, "short_circuits": 0,
        }
        assert snapshot["PUT"]["ops"] == 1
        assert telemetry.total("ops") == 3
        assert telemetry.faults == 1

    def test_transport_snapshot_none_for_local_backends(self):
        assert transport_snapshot(MemoryBackend()) is None

    def test_transport_snapshot_for_networked_backend(self):
        pytest.importorskip("repro.store.net")
        from repro.service.fakes import FakeObjectStoreServer
        from repro.store.net import ObjectStoreBackend

        with FakeObjectStoreServer() as server:
            backend = ObjectStoreBackend(server.url)
            backend.write("x", b"1")
            assert backend.read("x") == b"1"
            report = transport_snapshot(backend)
        assert report is not None
        assert report["ops"] >= 2
        assert report["faults"] == 0
        assert report["breaker"]["state"] == "closed"
