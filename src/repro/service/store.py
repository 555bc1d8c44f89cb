"""The on-disk compile-artifact store: content-addressed, atomic, LRU.

Layout (one file per artifact under its ``kind``, sharded by hash prefix
to keep directories small).  The compiler stores one kind — the finished
program, keyed by its ``program_id``::

    <root>/
      closure/9f/9fe421....art

Every file is ``MAGIC ++ sha256(payload) ++ payload`` where the payload
is the pickled artifact (``repro.runtime.compiler.CompiledProgram``
pickles cleanly — the IR graph is plain objects).  The 40-byte header
makes truncation and bit-rot *detectable*: a reader that finds a bad
magic, a short file or a digest mismatch deletes the file, counts it
corrupt and reports a miss — the caller recompiles, never crashes,
never trusts a damaged artifact.

Writes are atomic (tempfile in the destination directory +
``os.replace``) so concurrent writers — two processes compiling the same
source — race benignly: both produce byte-identical files (content
addressing), and whichever ``replace`` lands last wins with no torn
state in between.

Eviction is least-recently-*used* by file mtime under a byte budget:
every hit re-stamps the artifact's mtime, and ``put`` evicts
oldest-first until the store fits.  Eviction of a file another process
already removed is tolerated silently.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import tempfile
import threading
import time

__all__ = ["ArtifactStore", "STORE_MAGIC"]

STORE_MAGIC = b"RPROART1"
_HEADER_LEN = len(STORE_MAGIC) + 32  # magic + sha256(payload)

#: Programs nest the whole IR graph; default pickle recursion headroom
#: is not always enough for deep block chains.
_PICKLE_RECURSION_LIMIT = 100_000

#: The recursion limit is process-wide: without this, one thread's restore
#: lowers the limit under another thread's pickle.
_PICKLE_LOCK = threading.Lock()


def _dumps(obj) -> bytes:
    with _PICKLE_LOCK:
        limit = sys.getrecursionlimit()
        if limit < _PICKLE_RECURSION_LIMIT:
            sys.setrecursionlimit(_PICKLE_RECURSION_LIMIT)
        try:
            return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        finally:
            if limit < _PICKLE_RECURSION_LIMIT:
                sys.setrecursionlimit(limit)


class ArtifactStore:
    """Content-addressed artifact files under ``root``.

    ``byte_budget`` (``None`` = unbounded) caps the total payload bytes on
    disk.  ``hits`` / ``misses`` / ``puts`` / ``corrupt`` / ``evictions``
    tally what this object did; they change only under its lock, so
    concurrent readers and writers never lose a count, and ``stats()``
    reports them.
    """

    def __init__(self, root, byte_budget=None):
        self.root = os.fspath(root)
        self.byte_budget = byte_budget
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self.corrupt = 0
        self.evictions = 0
        self._lock = threading.Lock()
        os.makedirs(self.root, exist_ok=True)

    # -- paths -------------------------------------------------------------

    def _path(self, kind: str, key: str) -> str:
        if not key or any(ch not in "0123456789abcdef" for ch in key):
            raise ValueError(f"artifact key must be a hex digest, got {key!r}")
        return os.path.join(self.root, kind, key[:2], f"{key}.art")

    def _bump(self, *tallies: str) -> None:
        with self._lock:
            for tally in tallies:
                setattr(self, tally, getattr(self, tally) + 1)

    # -- read --------------------------------------------------------------

    def get(self, kind: str, key: str):
        """The stored artifact, or ``None`` on miss *or* on a corrupt /
        truncated file (which is deleted and counted)."""
        path = self._path(kind, key)
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            self._bump("misses")
            return None
        payload = self._verify(blob)
        if payload is None:
            self._discard_corrupt(path)
            return None
        try:
            artifact = pickle.loads(payload)
        except Exception:
            # The digest matched, so this is a pickle written by an
            # incompatible code version rather than bit-rot — but the
            # remedy is the same: drop it and recompile.
            self._discard_corrupt(path)
            return None
        self._bump("hits")
        try:
            now = time.time()
            os.utime(path, (now, now))  # LRU touch
        except OSError:
            pass
        return artifact

    @staticmethod
    def _verify(blob: bytes):
        if len(blob) < _HEADER_LEN or not blob.startswith(STORE_MAGIC):
            return None
        digest = blob[len(STORE_MAGIC) : _HEADER_LEN]
        payload = blob[_HEADER_LEN:]
        if hashlib.sha256(payload).digest() != digest:
            return None
        return payload

    def _discard_corrupt(self, path: str) -> None:
        self._bump("corrupt", "misses")
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- write -------------------------------------------------------------

    def put(self, kind: str, key: str, artifact) -> None:
        """Atomically persist ``artifact``; then evict LRU entries if the
        byte budget is exceeded.  Never raises on I/O trouble — the store
        is an accelerator, not a source of truth."""
        path = self._path(kind, key)
        payload = _dumps(artifact)
        blob = STORE_MAGIC + hashlib.sha256(payload).digest() + payload
        directory = os.path.dirname(path)
        try:
            os.makedirs(directory, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return
        self._bump("puts")
        if self.byte_budget is not None:
            self._evict_to_budget()

    # -- maintenance ---------------------------------------------------------

    def _entries(self) -> list:
        """Every artifact on disk as ``(mtime, size, path)``."""
        found = []
        for dirpath, _dirnames, filenames in os.walk(self.root):
            for name in filenames:
                if not name.endswith(".art"):
                    continue
                path = os.path.join(dirpath, name)
                try:
                    st = os.stat(path)
                except OSError:
                    continue
                found.append((st.st_mtime, st.st_size, path))
        return found

    def _evict_to_budget(self) -> None:
        entries = self._entries()
        total = sum(size for _mtime, size, _path in entries)
        if total <= self.byte_budget:
            return
        for _mtime, size, path in sorted(entries):
            try:
                os.unlink(path)
            except OSError:
                continue
            self._bump("evictions")
            total -= size
            if total <= self.byte_budget:
                break

    def stats(self) -> dict:
        with self._lock:
            tallies = {
                tally: getattr(self, tally)
                for tally in ("hits", "misses", "puts", "corrupt", "evictions")
            }
        entries = self._entries()
        per_kind: dict = {}
        for _mtime, size, path in entries:
            kind = os.path.relpath(path, self.root).split(os.sep)[0]
            bucket = per_kind.setdefault(kind, {"artifacts": 0, "bytes": 0})
            bucket["artifacts"] += 1
            bucket["bytes"] += size
        return {
            "root": self.root,
            "artifacts": len(entries),
            "bytes": sum(size for _mtime, size, _path in entries),
            "byte_budget": self.byte_budget,
            "kinds": dict(sorted(per_kind.items())),
            **tallies,
        }
