"""Blob backends: atomicity, namespacing, absence semantics."""

import sys
import threading

import pytest

from repro.store import DirectoryBackend, MemoryBackend


class TestMemoryBackend:
    def test_read_write_roundtrip(self):
        backend = MemoryBackend()
        assert backend.read("a/b.json") is None
        backend.write("a/b.json", b"payload")
        assert backend.read("a/b.json") == b"payload"
        assert list(backend.names()) == ["a/b.json"]

    def test_overwrite_replaces(self):
        backend = MemoryBackend()
        backend.write("k", b"one")
        backend.write("k", b"two")
        assert backend.read("k") == b"two"
        assert len(backend) == 1


class TestDirectoryBackend:
    def test_roundtrip_and_subdirectories(self, tmp_path):
        backend = DirectoryBackend(tmp_path / "store")
        backend.write("synthesis/abc.json", b"{}")
        backend.write("validation/def.json", b"[]")
        assert backend.read("synthesis/abc.json") == b"{}"
        assert sorted(backend.names()) == [
            "synthesis/abc.json",
            "validation/def.json",
        ]

    def test_missing_blob_reads_none(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        assert backend.read("synthesis/nope.json") is None

    def test_unsafe_names_rejected(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        for name in ("../evil", "a//b", ".", "a/./b"):
            with pytest.raises(ValueError):
                backend.write(name, b"x")

    def test_write_is_atomic_no_tmp_residue(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        backend.write("synthesis/k.json", b"x" * 4096)
        files = [p.name for p in (tmp_path / "synthesis").iterdir()]
        assert files == ["k.json"]

    def test_tmp_files_invisible_to_names(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        backend.write("synthesis/k.json", b"x")
        # A crashed writer's leftover must not surface as a blob.
        (tmp_path / "synthesis" / "k.tmp.12345").write_bytes(b"partial")
        assert list(backend.names()) == ["synthesis/k.json"]

    def test_unwritable_target_degrades_silently(self, tmp_path):
        """The write contract: an unwritable store never fails the run
        that computed the result (here the kind 'directory' is a file,
        so mkdir raises OSError)."""
        backend = DirectoryBackend(tmp_path)
        (tmp_path / "synthesis").write_bytes(b"not a directory")
        backend.write("synthesis/k.json", b"x")  # must not raise
        assert backend.read("synthesis/k.json") is None

    def test_two_backends_share_a_directory(self, tmp_path):
        a = DirectoryBackend(tmp_path)
        b = DirectoryBackend(tmp_path)
        a.write("synthesis/k.json", b"from-a")
        assert b.read("synthesis/k.json") == b"from-a"

    def test_write_if_absent_claims_once_without_tmp_residue(self, tmp_path):
        backend = DirectoryBackend(tmp_path)
        assert backend.write_if_absent("lease/k.json", b"mine") is True
        assert backend.write_if_absent("lease/k.json", b"theirs") is False
        assert backend.read("lease/k.json") == b"mine"
        files = [p.name for p in (tmp_path / "lease").iterdir()]
        assert files == ["k.json"]

    def test_write_if_absent_is_never_seen_incomplete(self, tmp_path):
        """A racing reader sees the claimed blob absent or whole, never
        empty: an empty lease decodes as lapsed and gets stolen."""
        backend = DirectoryBackend(tmp_path)
        data = b'{"worker": "w"}' * 64
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for index in range(200):
                name = f"lease/k{index}.json"
                writer = threading.Thread(
                    target=backend.write_if_absent, args=(name, data)
                )
                writer.start()
                seen = {backend.read(name) for _ in range(20)}
                writer.join(timeout=5)
                assert not writer.is_alive()
                assert seen <= {None, data}
        finally:
            sys.setswitchinterval(interval)
