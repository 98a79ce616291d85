"""Store lifecycle sweeps: ``seance store verify`` and ``seance store gc``.

verify re-checks every envelope offline exactly the way an online read
would; gc evicts debris — aged-out results, orphaned artifacts,
drained-queue scaffolding, verified-rejected blobs — and never touches
a sound, current envelope.
"""

import json

import pytest

from repro.bench import benchmark
from repro.pipeline.spec import PipelineSpec
from repro.service import WorkQueue
from repro.store import (
    ResultStore,
    ShardedBatch,
    gc_store,
    synthesis_key,
    verify_store,
)
from repro.store.backend import MemoryBackend
from tests.strategies import cached_synthesize


@pytest.fixture
def store():
    return ResultStore(MemoryBackend())


def seed_results(store, names=("lion", "traffic")):
    spec = PipelineSpec()
    keys = {}
    for name in names:
        table = benchmark(name)
        store.put_synthesis(table, spec, cached_synthesize(table))
        keys[name] = synthesis_key(table, spec)
    return keys


class TestVerify:
    def test_clean_store_verifies_clean(self, store):
        seed_results(store)
        report = verify_store(store)
        assert report.clean
        assert report.checked == report.ok == 2

    def test_truncated_blob_is_rejected(self, store):
        keys = seed_results(store)
        name = keys["lion"].blob_name
        blob = store.backend.read(name)
        store.backend.write(name, blob[: len(blob) // 2])
        report = verify_store(store)
        assert not report.clean
        assert [entry[0] for entry in report.rejected] == [name]
        assert "JSON" in report.rejected[0][1]

    def test_cross_filed_blob_is_rejected(self, store):
        """A sound envelope under the wrong name fails the recorded-key
        check — same guarantee the online read makes."""
        keys = seed_results(store)
        blob = store.backend.read(keys["lion"].blob_name)
        wrong = keys["traffic"].blob_name
        store.backend.write(wrong, blob)
        report = verify_store(store)
        names = {entry[0] for entry in report.rejected}
        assert wrong in names

    def test_wrong_format_version_is_rejected(self, store):
        keys = seed_results(store, names=("lion",))
        name = keys["lion"].blob_name
        envelope = json.loads(store.backend.read(name))
        envelope["format"] = 999
        store.backend.write(name, json.dumps(envelope).encode())
        report = verify_store(store)
        assert not report.clean
        assert "format version" in report.rejected[0][1]

    def test_artifacts_are_skipped_not_rejected(self, store):
        keys = seed_results(store, names=("lion",))
        store.put_artifact(keys["lion"], "vcd", b"$var wire 1 a a $end")
        report = verify_store(store)
        assert report.clean and report.artifacts == 1


class TestGc:
    def test_gc_of_a_sound_store_deletes_nothing(self, store):
        seed_results(store)
        report = gc_store(store)
        assert report.deleted == 0

    def test_age_out_respects_max_age(self, store):
        keys = seed_results(store)
        mtime = store.backend.stat(keys["lion"].blob_name).mtime
        report = gc_store(
            store, max_age_seconds=3600, now=mtime + 7200
        )
        assert report.aged_out == 2
        assert store.backend.read(keys["lion"].blob_name) is None

    def test_young_results_survive_age_out(self, store):
        keys = seed_results(store)
        mtime = store.backend.stat(keys["lion"].blob_name).mtime
        report = gc_store(store, max_age_seconds=3600, now=mtime + 60)
        assert report.aged_out == 0

    def test_orphaned_artifact_is_collected(self, store):
        keys = seed_results(store, names=("lion",))
        key = keys["lion"]
        store.put_artifact(key, "vcd", b"trace")
        # Artifact next to a live envelope survives...
        assert gc_store(store).orphans == 0
        # ...but becomes an orphan once the envelope is gone.
        store.backend.delete(key.blob_name)
        report = gc_store(store)
        assert report.orphans == 1
        assert store.get_artifact(key, "vcd") is None

    def test_drop_rejected_deletes_what_verify_flags(self, store):
        keys = seed_results(store)
        name = keys["lion"].blob_name
        store.backend.write(name, b"corrupt")
        kept = gc_store(store)  # without the flag: report only
        assert kept.rejected_dropped == 0
        assert store.backend.read(name) is not None
        report = gc_store(store, drop_rejected=True)
        assert report.rejected_dropped == 1
        assert store.backend.read(name) is None
        # The sound sibling is untouched.
        assert store.backend.read(keys["traffic"].blob_name) is not None

    def test_drained_queue_scaffolding_is_removed(self, store):
        queue = WorkQueue(store, "old")
        queue.publish(
            ShardedBatch([benchmark("lion")], spec=PipelineSpec()).units
        )
        [(digest, _)] = queue.pending()
        queue.mark_done(digest, "w1")
        report = gc_store(store)
        assert report.queue_blobs == 2  # unit + done marker
        assert list(store.backend.names("queue/")) == []

    def test_undrained_queue_is_left_alone(self, store):
        queue = WorkQueue(store, "live")
        queue.publish(
            ShardedBatch(
                [benchmark("lion"), benchmark("traffic")],
                spec=PipelineSpec(),
            ).units
        )
        (digest, _), *_ = queue.pending()
        queue.mark_done(digest, "w1")
        report = gc_store(store)
        assert report.queue_blobs == 0
        assert len(list(store.backend.names("queue/"))) == 3

    def test_ttl_backend_purge_hook_is_invoked(self, store):
        class PurgingBackend(MemoryBackend):
            def purge(self):
                return 7

        report = gc_store(ResultStore(PurgingBackend()))
        assert report.ttl_purged == 7
