"""Pluggable blob backends for the content-addressed result store.

A backend is a flat namespace of named byte blobs — deliberately the
smallest surface an object store offers (GET / PUT-if-complete / LIST),
so the :class:`~repro.store.store.ResultStore` above it is
location-independent: :class:`DirectoryBackend` keeps JSON blobs in a
local directory, :class:`~repro.store.net.ObjectStoreBackend` keeps them
behind an S3/GCS-shaped HTTP API, and any other store drops in by
implementing the same three methods.  Correctness never depends on the
backend: the store verifies every blob's envelope against the requested
key after reading, so a backend that loses, truncates, or cross-wires
blobs degrades to recomputation, not to wrong results.

Write atomicity contract: :meth:`StoreBackend.write` must publish a blob
either completely or not at all — a reader may see the old blob or the
new blob, never a torn one.  :class:`DirectoryBackend` implements this
with the tmp-file + ``rename`` idiom, which also makes concurrent writers of one name safe on POSIX filesystems:
the last rename wins with a complete file (and, because blob names are
content hashes, every racer is writing identical bytes anyway).
"""

from __future__ import annotations

import os
import re
import tempfile
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from ..errors import StoreError

#: A URL-shaped location (``scheme://...``), per RFC 3986's scheme rule.
_URL_SCHEME = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*://")


@dataclass(frozen=True)
class BlobStat:
    """Metadata of one blob — the material of age/LRU eviction.

    ``mtime`` is seconds since the epoch of the last write; backends
    that cannot recover a real timestamp report their best effort (an
    object store echoes what its server recorded).
    """

    size: int
    mtime: float


class StoreBackend:
    """Minimal blob-store protocol (see the module docstring).

    ``read``/``write``/``names`` are the required surface the
    :class:`~repro.store.store.ResultStore` correctness story rests on.
    The rest are *capabilities* with safe fallbacks: lifecycle ops
    (``delete``/``stat``) and coordination (``write_if_absent``, the
    conditional-put primitive the work-stealing queue claims leases
    with) degrade rather than crash on a backend that lacks them.
    """

    def read(self, name: str) -> bytes | None:
        """The blob's bytes, or None when absent/unreadable."""
        raise NotImplementedError

    def write(self, name: str, data: bytes) -> None:
        """Publish ``data`` under ``name`` atomically."""
        raise NotImplementedError

    def names(self, prefix: str = "") -> Iterator[str]:
        """Every blob name currently present (no order guarantee).

        ``prefix`` filters server-side where the backend can (an object
        store's list-by-prefix); the base contract only promises the
        filtered result.
        """
        raise NotImplementedError

    # -- capabilities ---------------------------------------------------
    def write_if_absent(self, name: str, data: bytes) -> bool:
        """Conditional put: publish only if ``name`` is absent.

        True when this call created the blob.  The base implementation
        is check-then-write — atomic on :class:`MemoryBackend` (single
        process), best-effort elsewhere; backends with a real primitive
        (``O_EXCL``, ``If-None-Match``) override it.  Callers must treat
        a True as a *lease*, not a lock: the content-addressed store
        above stays correct even when two writers both "win".
        """
        if self.read(name) is not None:
            return False
        self.write(name, data)
        return True

    def delete(self, name: str) -> bool:
        """Remove a blob; True when something was deleted.

        Backends that cannot delete return False, and ``seance store
        gc`` reports them as such.
        """
        return False

    def stat(self, name: str) -> BlobStat | None:
        """The blob's :class:`BlobStat`, or None when absent/unknown."""
        return None

    def describe(self) -> str:
        return type(self).__name__


class MemoryBackend(StoreBackend):
    """Dict-backed backend: tests and single-process warm reuse."""

    def __init__(self) -> None:
        self._blobs: dict[str, bytes] = {}
        self._mtimes: dict[str, float] = {}

    def read(self, name: str) -> bytes | None:
        return self._blobs.get(name)

    def write(self, name: str, data: bytes) -> None:
        self._blobs[name] = bytes(data)
        self._mtimes[name] = time.time()

    def names(self, prefix: str = "") -> Iterator[str]:
        yield from [n for n in self._blobs if n.startswith(prefix)]

    def delete(self, name: str) -> bool:
        self._mtimes.pop(name, None)
        return self._blobs.pop(name, None) is not None

    def stat(self, name: str) -> BlobStat | None:
        data = self._blobs.get(name)
        if data is None:
            return None
        return BlobStat(size=len(data), mtime=self._mtimes.get(name, 0.0))

    def __len__(self) -> int:
        return len(self._blobs)


class DirectoryBackend(StoreBackend):
    """A local directory of blobs — ``seance --store DIR``.

    Blob names may contain ``/`` (the store uses ``kind/digest.json``),
    which maps to subdirectories; everything else must be a safe path
    component.  Reads treat any OS error as absence; writes go through a
    per-process tmp file and an atomic rename.
    """

    def __init__(self, path: str | os.PathLike):
        self._root = Path(path)
        self._root.mkdir(parents=True, exist_ok=True)

    @property
    def path(self) -> Path:
        return self._root

    def _blob_path(self, name: str) -> Path:
        parts = name.split("/")
        if any(part in ("", ".", "..") for part in parts):
            raise ValueError(f"unsafe blob name {name!r}")
        return self._root.joinpath(*parts)

    def read(self, name: str) -> bytes | None:
        try:
            return self._blob_path(name).read_bytes()
        except OSError:
            return None

    def write(self, name: str, data: bytes) -> None:
        target = self._blob_path(name)
        tmp = target.with_suffix(f".tmp.{os.getpid()}")
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
            tmp.replace(target)
        except OSError:
            # Unwritable store: degrade to recompute-next-time rather
            # than failing the run that produced the result.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass

    def names(self, prefix: str = "") -> Iterator[str]:
        if not self._root.is_dir():
            return
        for path in sorted(self._root.rglob("*")):
            if path.is_file() and not path.name.startswith("."):
                if ".tmp." in path.name:
                    continue
                name = path.relative_to(self._root).as_posix()
                if name.startswith(prefix):
                    yield name

    def write_if_absent(self, name: str, data: bytes) -> bool:
        """Atomic on POSIX: the bytes go to a private tmp file, and
        ``link`` publishes it only if ``name`` does not exist yet — so
        a reader never sees the blob before it is complete (a racing
        lease claimant would read an empty file as a lapsed lease)."""
        target = self._blob_path(name)
        tmp = None
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=target.parent, prefix=f"{target.name}.tmp."
            )
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.link(tmp, target)
            return True
        except OSError:  # FileExistsError: someone else already did
            return False
        finally:
            if tmp is not None:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    def delete(self, name: str) -> bool:
        try:
            self._blob_path(name).unlink()
            return True
        except OSError:
            return False

    def stat(self, name: str) -> BlobStat | None:
        try:
            info = self._blob_path(name).stat()
        except OSError:
            return None
        return BlobStat(size=info.st_size, mtime=info.st_mtime)

    def describe(self) -> str:
        return f"DirectoryBackend({str(self._root)!r})"


def resolve_backend(location, policy=None) -> StoreBackend:
    """The backend a ``--store``-style location names.

    * an existing :class:`StoreBackend` passes through;
    * ``http://`` / ``https://`` opens an
      :class:`~repro.store.net.ObjectStoreBackend` (S3/GCS shape —
      ``seance store serve-fake`` boots a compatible in-process server);
    * any other ``scheme://`` location raises
      :class:`~repro.errors.StoreError` — it would otherwise become a
      local directory named after the URL;
    * anything else is a local directory.

    ``policy`` is the base :class:`~repro.service.resilience.RetryPolicy`
    for networked locations (the CLI's ``--retry``/``--timeout`` knobs);
    URL query knobs (``?retry=N&timeout=S``) override it per location.
    Local backends have no transport and ignore it.
    """
    if isinstance(location, StoreBackend):
        return location
    spec = os.fspath(location)
    if spec.startswith(("http://", "https://")):
        from .net import ObjectStoreBackend

        return ObjectStoreBackend(spec, policy=policy)
    if _URL_SCHEME.match(spec):
        raise StoreError(
            f"unsupported store location {spec!r}: use a directory path "
            f"or an http(s):// object-store URL"
        )
    return DirectoryBackend(spec)
