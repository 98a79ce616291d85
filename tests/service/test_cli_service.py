"""CLI surface of the service fabric: queue, work, store lifecycle.

The long-running commands (``seance store serve-fake``, ``seance store
chaos-proxy``) are exercised through their underlying objects elsewhere
and end-to-end by the CI service smoke; here we pin the one-shot
commands.
"""

import pytest

from repro.cli import main
from repro.service import FakeObjectStoreServer, WorkQueue
from repro.store import ResultStore


class TestQueueCli:
    def test_publish_then_work_then_status(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main([
            "queue", "publish", "lion", "traffic",
            "--store", store, "--queue", "q",
        ]) == 0
        assert "published 2 new unit(s)" in capsys.readouterr().out

        assert main([
            "work", "--store", store, "--queue", "q",
            "--timeout", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 unit(s)" in out and "2 synthesised" in out

        assert main([
            "queue", "status", "--store", store, "--queue", "q",
        ]) == 0
        assert "2 done, 0 remaining" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["work", "--poll", "-1", "--timeout", "0.1"],
            ["queue", "status", "--watch", "--interval", "-1"],
        ],
        ids=["work-poll", "status-interval"],
    )
    def test_negative_poll_interval_is_a_clean_error(
        self, tmp_path, capsys, argv
    ):
        store = str(tmp_path / "store")
        main(["queue", "publish", "lion", "--store", store])
        capsys.readouterr()
        assert main([*argv, "--store", store]) == 2
        err = capsys.readouterr().err
        assert "must be > 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("ttl", ["0", "-5"])
    def test_non_positive_lease_ttl_is_a_clean_error(
        self, tmp_path, capsys, ttl
    ):
        store = str(tmp_path / "store")
        main(["queue", "publish", "lion", "--store", store])
        capsys.readouterr()
        assert main([
            "work", "--store", store, "--lease-ttl", ttl, "--timeout", "60",
        ]) == 2
        err = capsys.readouterr().err
        assert "lease TTL" in err and "Traceback" not in err
        assert main(["queue", "status", "--store", store]) == 0
        assert "0 done, 1 remaining" in capsys.readouterr().out

    def test_drained_queue_merges_canonically(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["queue", "publish", "lion", "--store", store])
        main(["work", "--store", store, "--timeout", "60"])
        capsys.readouterr()
        assert main([
            "shard", "merge", "lion", "--store", store, "--json",
        ]) == 0
        merged = capsys.readouterr().out
        assert main(["batch", "lion", "--json", "--canonical"]) == 0
        assert merged == capsys.readouterr().out

    def test_status_shows_lease_health_rows(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["queue", "publish", "lion", "--store", store, "--queue", "q"])
        queue = WorkQueue(ResultStore(store), "q")
        [(digest, _)] = queue.pending()
        queue.claim(digest, "alice")
        capsys.readouterr()
        assert main([
            "queue", "status", "--store", store, "--queue", "q",
        ]) == 0
        out = capsys.readouterr().out
        assert f"lease {digest[:16]}" in out
        assert "worker=alice" in out
        assert "steals=0" in out
        assert "[live]" in out

    def test_status_watch_exits_when_drained(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["queue", "publish", "lion", "--store", store, "--queue", "q"])
        main(["work", "--store", store, "--queue", "q", "--timeout", "60"])
        capsys.readouterr()
        assert main([
            "queue", "status", "--store", store, "--queue", "q",
            "--watch", "--interval", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "queue drained" in out

    def test_status_counts_warm_units_apart_from_pending(
        self, tmp_path, capsys
    ):
        """Regression: with lion already stored, publishing lion and
        traffic leaves one unit pending, not a "drained" queue."""
        store = str(tmp_path / "store")
        assert main(["batch", "lion", "--store", store]) == 0
        main(["queue", "publish", "lion", "traffic", "--store", store])
        capsys.readouterr()
        assert main(["queue", "status", "--store", store]) == 0
        assert "1 done, 1 remaining" in capsys.readouterr().out

    def test_corrupt_result_is_recomputed_by_the_queue(
        self, tmp_path, capsys
    ):
        """Regression: a corrupt stored result used to publish as done,
        so nothing recomputed it and the merge failed."""
        store = tmp_path / "store"
        assert main(["batch", "lion", "--store", str(store)]) == 0
        [blob] = (store / "synthesis").glob("*.json")
        blob.write_bytes(b"corrupt")
        main(["queue", "publish", "lion", "--store", str(store)])
        assert main(["work", "--store", str(store), "--timeout", "60"]) == 0
        capsys.readouterr()
        assert main([
            "shard", "merge", "--store", str(store), "--json", "lion",
        ]) == 0
        merged = capsys.readouterr().out
        assert main(["batch", "lion", "--json", "--canonical"]) == 0
        assert merged == capsys.readouterr().out

    def test_work_exits_nonzero_on_failed_units(self, tmp_path, capsys):
        """`seance work` reports a failed synthesis like `seance shard
        run`: counted, named, exit 1."""
        import json

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "inputs": ["x"], "outputs": ["z"], "states": ["a", "b"],
            "reset": "a", "name": "broken",
            "entries": [["a", 0, "a", [0]], ["b", 1, "b", [1]]],
        }))
        store = str(tmp_path / "store")
        main(["queue", "publish", "lion", str(bad), "--store", store])
        capsys.readouterr()
        assert main(["work", "--store", store, "--timeout", "60"]) == 1
        out = capsys.readouterr().out
        assert "1 synthesised" in out and "1 failed" in out
        assert "broken: FAILED" in out

    def test_publish_campaign_units(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main([
            "queue", "publish", "lion", "--campaign",
            "--sweep", "1", "--steps", "5", "--delay-model", "unit",
            "--store", store,
        ]) == 0
        assert "published 1 new unit(s)" in capsys.readouterr().out
        assert main(["work", "--store", store, "--timeout", "60"]) == 0
        assert "1 validated" in capsys.readouterr().out


class TestStoreLifecycleCli:
    def test_verify_clean_store(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["synth", "lion", "--store", store])
        capsys.readouterr()
        assert main(["store", "verify", "--store", store]) == 0
        assert "1 ok, 0 rejected" in capsys.readouterr().out

    def test_verify_flags_corruption_and_gc_drops_it(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        main(["synth", "lion", "--store", store])
        blob = next((tmp_path / "store" / "synthesis").glob("*.json"))
        blob.write_bytes(b"corrupt")
        capsys.readouterr()
        assert main(["store", "verify", "--store", store]) == 1
        assert "REJECTED" in capsys.readouterr().out
        assert main([
            "store", "gc", "--store", store, "--drop-rejected",
        ]) == 0
        assert "1 rejected" in capsys.readouterr().out
        assert not blob.exists()

    @pytest.mark.parametrize("verb", ["verify", "gc"])
    def test_sweep_refuses_a_missing_directory(self, tmp_path, capsys, verb):
        store = tmp_path / "typo"
        assert main(["store", verb, "--store", str(store)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: no store at --store ")
        assert not store.exists()
        store.mkdir()
        assert main(["store", verb, "--store", str(store)]) == 0
        assert "0 rejected" in capsys.readouterr().out

    @pytest.mark.parametrize("hours", ["-1", "nan"])
    def test_gc_rejects_a_negative_max_age(self, tmp_path, capsys, hours):
        store = str(tmp_path / "store")
        main(["batch", "lion", "traffic", "--store", store])
        blobs = sorted((tmp_path / "store").rglob("*.json"))
        assert blobs
        capsys.readouterr()
        assert main([
            "store", "gc", "--store", store, "--max-age-hours", hours,
        ]) == 2
        assert "max age" in capsys.readouterr().err
        assert sorted((tmp_path / "store").rglob("*.json")) == blobs

    def test_gc_ages_out_old_results(self, tmp_path, capsys):
        import os
        import time

        store = str(tmp_path / "store")
        main(["synth", "lion", "--store", store])
        blob = next((tmp_path / "store" / "synthesis").glob("*.json"))
        old = time.time() - 48 * 3600
        os.utime(blob, (old, old))
        capsys.readouterr()
        assert main([
            "store", "gc", "--store", store, "--max-age-hours", "24",
        ]) == 0
        assert "1 aged out" in capsys.readouterr().out
        assert not blob.exists()


class TestTransportCli:
    def test_verify_reports_transport_telemetry(self, capsys):
        """``seance store verify`` on a networked store surfaces the
        per-op fault counters instead of degrading silently."""
        with FakeObjectStoreServer() as server:
            main(["synth", "lion", "--store", server.url])
            server.fail_next(1, mode="error")
            capsys.readouterr()
            assert main([
                "store", "verify", "--store", server.url,
                "--retry", "4", "--timeout", "5",
            ]) == 0
            out = capsys.readouterr().out
        assert "1 ok, 0 rejected" in out
        assert "transport:" in out
        assert "1 fault(s)" in out
        assert "breaker closed" in out

    def test_verify_on_a_local_store_has_no_transport_line(
        self, tmp_path, capsys
    ):
        store = str(tmp_path / "store")
        main(["synth", "lion", "--store", store])
        capsys.readouterr()
        assert main(["store", "verify", "--store", store]) == 0
        assert "transport:" not in capsys.readouterr().out

    def test_retry_and_timeout_flags_are_accepted_everywhere(
        self, tmp_path, capsys
    ):
        with FakeObjectStoreServer() as server:
            assert main([
                "batch", "lion", "--store", server.url,
                "--retry", "3", "--timeout", "5",
            ]) == 0
            capsys.readouterr()
            assert main([
                "queue", "publish", "lion", "--store", server.url,
                "--retry", "3", "--timeout", "5",
            ]) == 0
            assert main([
                "work", "--store", server.url,
                "--retry", "3", "--store-timeout", "5",
                "--timeout", "60",
            ]) == 0
            assert main([
                "queue", "status", "--store", server.url,
                "--retry", "3", "--timeout", "5",
            ]) == 0

    @pytest.mark.parametrize("timeout", ["-1", "0", "nan"])
    def test_out_of_range_store_timeout_is_a_clean_error(
        self, capsys, timeout
    ):
        with FakeObjectStoreServer() as server:
            assert main([
                "batch", "lion", "--store", server.url,
                "--timeout", timeout,
            ]) == 2
        err = capsys.readouterr().err
        assert "timeout" in err and "Traceback" not in err

    def test_out_of_range_url_timeout_falls_back(self, capsys):
        with FakeObjectStoreServer() as server:
            assert main([
                "batch", "lion", "--store", f"{server.url}?timeout=-1",
                "--json",
            ]) == 0
        assert '"ok": true' in capsys.readouterr().out

    def test_retry_knobs_ride_the_store_url(self, capsys):
        with FakeObjectStoreServer() as server:
            server.fail_next(2, mode="drop")
            assert main([
                "synth", "lion", "--store", f"{server.url}?retry=6",
            ]) == 0
