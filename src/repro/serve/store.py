"""The content-addressed result store behind ``repro serve``.

The paper's pipeline is a pure function of the source text and the
compiler options, so every stage boundary is cacheable: two requests
with the same ``sha256(source)`` share a frontend result, two requests
that also agree on ``CompilerOptions.key()`` share a backend result.
:class:`ResultStore` generalizes the campaign's corpus cache
(``testing/campaign.py``) from a boolean "this seed verified" marker to
an artifact store holding the actual stage outputs, keyed by content:

* **keys are exact** — a key embeds the stage name, the source digest
  and (for option-dependent stages) the options digest, and every stored
  entry records the key it was written under.  Serving a cached result
  is sound for the same reason the paper's story is: the certificate
  checker remains the trust root, and a cache can only replay what some
  earlier request verified *under the same key*.
* **entries are integrity-checked** — each entry carries a sha256 of its
  stored payload bytes; a corrupted, truncated or cross-key-substituted
  entry is detected on ``get``, dropped, counted (``store.poisoned``) and
  recomputed by the caller.  A poisoned entry is never returned.
* **eviction is size-capped and pin-aware** — the store evicts
  least-recently-used entries once ``max_bytes`` is exceeded, but never
  an entry pinned by an in-flight request.  Checking the cap scans the
  whole store, so each store keeps a running total (what its last scan
  found plus what it has written since) and scans only when that total
  exceeds ``max_bytes`` or when it has written more than ``max_bytes //
  16`` since its last scan (and once, at its first put).  A put made
  during a request (while this process holds pins) defers a due scan to
  the release of the last pin, with the request's own entries still
  pinned.  So what a store has written since its last scan is at most a
  sixteenth of the cap plus one request's puts, and with ``jobs`` stores
  on one directory the directory exceeds the cap by at most that much
  per store before some store scans.

An entry is one JSON header line (schema, key, codec, sha256) followed
by the payload bytes, which ``get`` hashes as read and decodes once.  The
``json`` codec stores canonical JSON (``sort_keys``) and returns the
parsed value; the ``raw`` codec stores bytes the caller encoded itself
(a pickled program, a certificate already in canonical JSON) and
returns them verified, undecoded.  Two backings share that format: a
directory (shared by the worker pool across processes; writes are
atomic ``os.replace``) or process memory (tests, ``--no-store``).  This
is corruption *detection*, not a security boundary: the store directory
is the same local trust domain as the campaign's corpus cache.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from typing import Any, Iterator, Optional

from repro import obs
from repro.errors import ReproError
from repro.logic.certificate import canonical_json

#: Store entry schema identifier (bump on incompatible changes).
STORE_SCHEMA = "repro.serve.store/3"

#: Default on-disk budget: generous for a daemon, bounded for a laptop.
DEFAULT_MAX_BYTES = 256 << 20


class ServeError(ReproError):
    """A serving-layer failure (bind, pool start, bad request payload)."""


def source_digest(source: str, macros: Optional[dict] = None) -> str:
    """Content hash of one translation unit's *semantic* inputs.

    The filename deliberately does not participate: it only flavors
    diagnostics, and two requests differing in nothing but the name must
    share every stage result.
    """
    canon = canonical_json(
        {"source": source,
         "macros": sorted(macros.items()) if macros else []})
    return hashlib.sha256(canon.encode()).hexdigest()


def options_digest(options) -> str:
    """Content hash of a ``CompilerOptions.key()`` (the audited identity)."""
    return hashlib.sha256(repr(options.key()).encode()).hexdigest()


def stage_key(stage: str, src_digest: str,
              opt_digest: Optional[str] = None) -> str:
    """The store key of one stage boundary.

    Option-independent stages (frontend, analyze, check) are keyed by the
    source digest alone — that is exactly what makes a near-repeat
    request (same source, different backend flags) a partial cache hit.
    """
    if opt_digest is None:
        return f"{stage}:{src_digest}"
    return f"{stage}:{src_digest}:{opt_digest}"


def encode_json(value: Any) -> bytes:
    """The canonical encoding of one JSON value, the certificate's own.

    The ``json`` codec stores it, and every serve answer is written in
    it, which is what lets stored bytes be spliced into an answer.
    """
    return canonical_json(value).encode()


def _stage_of(key: str) -> str:
    return key.split(":", 1)[0]


class ResultStore:
    """Content-addressed artifact store with integrity-checked entries.

    ``root=None`` keeps everything in process memory (same wire format,
    so the integrity and eviction machinery is identical); a directory
    path makes the store shared across the worker pool.
    """

    def __init__(self, root: Optional[str] = None,
                 max_bytes: int = DEFAULT_MAX_BYTES) -> None:
        self.root = root
        self.max_bytes = max_bytes
        self._lock = threading.RLock()
        self._memory: dict[str, bytes] = {}
        self._clock = 0                    # memory-mode LRU ticks
        self._stamps: dict[str, int] = {}
        self._pins: dict[str, int] = {}
        #: A put made while pins are held leaves a due eviction scan to
        #: the release of the last pin (one scan per request, not per put).
        self._scan_pending = False
        #: What the last scan found (None before the first) and the bytes
        #: put since: their sum is the running total.
        self._scanned: Optional[int] = None
        self._written = 0
        if root is not None:
            os.makedirs(root, exist_ok=True)

    # -- encoding ----------------------------------------------------------

    @staticmethod
    def _encode(payload: Any, codec: str) -> bytes:
        """The stored bytes of one payload under one codec."""
        if codec == "json":
            return encode_json(payload)
        if codec == "raw" and isinstance(payload, bytes):
            return payload
        raise ValueError(f"cannot store a {type(payload).__name__} "
                         f"under codec {codec!r}")

    @staticmethod
    def _decode(entry: bytes, key: str, codec: str) -> Any:
        """Verify and decode one entry; raises ``ValueError`` if poisoned."""
        line, newline, data = entry.partition(b"\n")
        if not newline:
            raise ValueError("no header line")
        header = json.loads(line)
        if not isinstance(header, dict):
            raise ValueError("header is not an object")
        if header.get("schema") != STORE_SCHEMA:
            raise ValueError(f"schema {header.get('schema')!r}")
        if header.get("key") != key:
            raise ValueError(
                f"entry was written for key {header.get('key')!r}")
        if header.get("codec") != codec:
            raise ValueError(f"codec {header.get('codec')!r} != {codec!r}")
        if hashlib.sha256(data).hexdigest() != header.get("sha256"):
            raise ValueError("payload hash mismatch")
        return json.loads(data) if codec == "json" else data

    # -- raw entry access (also the fault-injection seam) ------------------

    def _path(self, key: str) -> str:
        assert self.root is not None
        return os.path.join(self.root,
                            hashlib.sha256(key.encode()).hexdigest()
                            + ".json")

    def raw_read(self, key: str) -> Optional[bytes]:
        """The stored bytes of one entry (fault-injection seam)."""
        with self._lock:
            if self.root is None:
                return self._memory.get(key)
            try:
                with open(self._path(key), "rb") as handle:
                    return handle.read()
            except OSError:
                return None

    def raw_write(self, key: str, entry: bytes) -> None:
        """Overwrite one entry's bytes verbatim (fault-injection seam)."""
        with self._lock:
            if self.root is None:
                self._memory[key] = entry
                self._touch(key)
                return
            tmp = self._path(key) + f".tmp{os.getpid()}"
            with open(tmp, "wb") as handle:
                handle.write(entry)
            os.replace(tmp, self._path(key))

    def _discard(self, key: str) -> None:
        with self._lock:
            if self.root is None:
                self._memory.pop(key, None)
                self._stamps.pop(key, None)
                return
            try:
                os.unlink(self._path(key))
            except OSError:
                pass

    def _touch(self, key: str) -> None:
        if self.root is None:
            self._clock += 1
            self._stamps[key] = self._clock
        else:
            try:
                os.utime(self._path(key))
            except OSError:
                pass

    # -- the store API -----------------------------------------------------

    def get(self, key: str, codec: str = "json") -> Any:
        """The payload stored under ``key``, or ``None``.

        Returns ``None`` both for a plain miss and for a poisoned entry
        (corrupted, truncated, or substituted from another key); the
        poisoned entry is dropped so the caller's recompute can replace
        it.  Hits refresh the entry's LRU stamp.
        """
        stage = _stage_of(key)
        entry = self.raw_read(key)
        if entry is None:
            obs.add(f"store.{stage}.misses")
            obs.add("store.misses")
            return None
        try:
            payload = self._decode(entry, key, codec)
        except Exception:
            self._discard(key)
            obs.add("store.poisoned")
            obs.add(f"store.{stage}.misses")
            obs.add("store.misses")
            return None
        with self._lock:
            self._touch(key)
        obs.add(f"store.{stage}.hits")
        obs.add("store.hits")
        return payload

    def put(self, key: str, payload: Any, codec: str = "json") -> Any:
        """Store ``payload`` under ``key``; returns the payload.

        Writes are atomic (temp file + ``os.replace``), so concurrent
        workers racing on the same key both leave a valid entry.
        """
        data = self._encode(payload, codec)
        header = json.dumps({"schema": STORE_SCHEMA, "key": key,
                             "codec": codec,
                             "sha256": hashlib.sha256(data).hexdigest()})
        entry = header.encode() + b"\n" + data
        self.raw_write(key, entry)
        obs.add(f"store.{_stage_of(key)}.puts")
        with self._lock:
            self._written += len(entry)
            due = (self._scanned is None
                   or self._scanned + self._written > self.max_bytes
                   or self._written > self.max_bytes // 16)
            if not due:
                obs.set_gauge("store.bytes", self._scanned + self._written)
            elif self._pins:
                self._scan_pending = True
            else:
                self._evict_if_needed()
        return payload

    # -- pinning and eviction ----------------------------------------------

    def pin(self, *keys: str) -> None:
        """Mark keys as in-flight: eviction will skip them."""
        with self._lock:
            for key in keys:
                self._pins[key] = self._pins.get(key, 0) + 1

    def unpin(self, *keys: str) -> None:
        """Release pins; releasing the last one runs a deferred scan,
        while ``keys`` are still pinned."""
        with self._lock:
            pins = dict(self._pins)
            for key in keys:
                count = pins.get(key, 0) - 1
                if count > 0:
                    pins[key] = count
                else:
                    pins.pop(key, None)
            if not pins and self._scan_pending:
                self._scan_pending = False
                self._evict_if_needed()
            self._pins = pins

    class _Pinned:
        def __init__(self, store: "ResultStore", keys: tuple) -> None:
            self.store, self.keys = store, keys

        def __enter__(self):
            self.store.pin(*self.keys)
            return self.store

        def __exit__(self, *exc) -> None:
            self.store.unpin(*self.keys)

    def pinned(self, *keys: str) -> "ResultStore._Pinned":
        """Context manager pinning ``keys`` for the duration of a request."""
        return ResultStore._Pinned(self, keys)

    def _entries(self) -> Iterator[tuple[str, int, float]]:
        """``(handle, size, lru_stamp)`` per entry; handle is key (memory)
        or path (disk)."""
        if self.root is None:
            for key, entry in self._memory.items():
                yield key, len(entry), self._stamps.get(key, 0)
            return
        try:
            names = os.listdir(self.root)
        except OSError:
            return
        for name in names:
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.root, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            yield path, stat.st_size, stat.st_mtime

    def size_bytes(self) -> int:
        """Total stored bytes (the quantity the cap bounds)."""
        with self._lock:
            return sum(size for _h, size, _s in self._entries())

    def _pinned_handles(self) -> set:
        if self.root is None:
            return set(self._pins)
        return {self._path(key) for key in self._pins}

    def _evict_if_needed(self) -> None:
        with self._lock:
            entries = sorted(self._entries(), key=lambda e: e[2])
            total = sum(size for _h, size, _s in entries)
            pinned = self._pinned_handles()
            for handle, size, _stamp in entries:
                if total <= self.max_bytes:
                    break
                if handle in pinned:
                    continue
                if self.root is None:
                    self._memory.pop(handle, None)
                    self._stamps.pop(handle, None)
                else:
                    try:
                        os.unlink(handle)
                    except OSError:
                        continue
                total -= size
                obs.add("store.evictions")
            # The LRU cap is observable before it thrashes: /metrics
            # reports occupancy next to the eviction counter.
            obs.set_gauge("store.bytes", total)
            self._scanned, self._written = total, 0

    def __contains__(self, key: str) -> bool:
        return self.raw_read(key) is not None
