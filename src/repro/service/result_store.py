"""Persistent, content-addressed result store with TinyLFU admission.

The store is the serving layer's memory: every completed job's JSON
payload is kept on disk under its result key (see
:func:`repro.service.api.result_key`), so identical submissions — from
any process, across server restarts — are answered without
re-simulation.

Capacity is bounded, and what survives at capacity is decided by a
TinyLFU-style **frequency admission** policy (Einziger et al.): a
candidate only displaces the coldest resident entry when the candidate
has been *asked for* more often.  One-off results therefore pass
through without evicting hot ones — the paper's frequent-value
observation applied one level up, to results instead of words.  The
frequency sketch is built from the repo's own streaming counters
(:class:`repro.profiling.topk.SpaceSaving`), aged by windowing: two
sketches, current and previous, rotated every ``window`` observations
so ancient popularity decays instead of pinning entries forever.

Layout: one file per entry, ``<key>.json``, holding the canonical
payload bytes wrapped in a sha256 integrity envelope
(:mod:`repro.common.integrity`).  Writes are atomic and durable (temp
file + flush + ``fsync`` + ``os.replace`` + directory ``fsync``); reads
verify the envelope, and an entry that fails verification is
quarantined as ``<key>.json.corrupt`` and treated as a miss — the job
layer then recomputes and re-persists it, so corruption self-heals and
is never served.  A reader that knows what the key must hold passes a
``decode`` (:func:`repro.service.api.decode_payload`); an entry it
refuses — another cell's payload, another schema's — is quarantined
the same way.  Recency for victim tie-breaks comes from file mtimes,
refreshed on hit.

``run --checkpoint DIR`` opens the same store over ``DIR``
(:func:`checkpoint_store`), so a checkpoint directory is a result
store: it resumes runs and serves as ``serve --store-dir`` alike.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.common.errors import IntegrityError
from repro.common.integrity import quarantine, read_enveloped, write_enveloped
from repro.profiling.topk import SpaceSaving

#: Default maximum number of resident entries.
DEFAULT_CAPACITY = 512

#: ``decode(payload_bytes)`` — what a reader makes of an entry, or
#: ``None`` when the entry is no answer to its key.
Decoder = Callable[[bytes], object]


def default_store_dir() -> Path:
    """The result-store directory the environment selects."""
    env = os.environ.get("REPRO_RESULT_STORE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-fvc" / "results"


def checkpoint_store(directory: Union[str, Path]) -> "ResultStore":
    """The store behind ``run --checkpoint DIR``: unbounded, so
    admission never turns a finished cell away, however many entries
    the directory already holds."""
    return ResultStore(Path(directory), capacity=sys.maxsize)


class FrequencySketch:
    """Windowed access-frequency estimator over result keys.

    Wraps two :class:`~repro.profiling.topk.SpaceSaving` summaries —
    the TinyLFU trick of periodic aging, done by rotation: once the
    current window has seen ``window`` observations it becomes the
    previous window and a fresh one starts.  An estimate is the sum of
    both windows, so popularity fades within two windows of going quiet
    rather than accumulating forever.
    """

    def __init__(self, counters: int = 1024, window: int = 4096) -> None:
        if window <= 0:
            raise ValueError("sketch window must be positive")
        self.counters = counters
        self.window = window
        self._current = SpaceSaving(counters)
        self._previous: Optional[SpaceSaving] = None

    @staticmethod
    def _slot(key: str) -> int:
        # The SpaceSaving counters track integer identities; any key
        # string maps to one through a stable 64-bit digest.
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8)
        return int.from_bytes(digest.digest(), "big")

    def touch(self, key: str) -> None:
        """Record one request for ``key`` (hit or miss alike)."""
        self._current.add(self._slot(key))
        if self._current.total >= self.window:
            self._previous = self._current
            self._current = SpaceSaving(self.counters)

    def estimate(self, key: str) -> int:
        """Estimated request count for ``key`` over the last two
        windows."""
        slot = self._slot(key)
        count = self._current.estimate(slot)
        if self._previous is not None:
            count += self._previous.estimate(slot)
        return count


class ResultStore:
    """Disk-backed ``result key → canonical payload bytes`` map with
    bounded capacity and frequency-based admission.

    Thread-safe: the HTTP threads, the dispatchers and the scheduler
    share one instance.  Counters (``hits`` / ``misses`` / ``stores`` /
    ``admission_rejects`` / ``evictions``) feed ``/v1/metrics``.
    """

    def __init__(
        self,
        directory: Path,
        capacity: int = DEFAULT_CAPACITY,
        sketch: Optional[FrequencySketch] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("result store needs capacity >= 1")
        self.directory = Path(directory)
        self.capacity = capacity
        self.sketch = sketch if sketch is not None else FrequencySketch()
        self._lock = threading.Lock()
        # key → mtime (recency; victim tie-break).  Rebuilt from disk
        # at construction, so restarts keep everything already earned.
        self._index: Dict[str, float] = {}
        if self.directory.is_dir():
            for path in self.directory.glob("*.json"):
                try:
                    self._index[path.stem] = path.stat().st_mtime
                except OSError:
                    continue
            # One server process owns this directory, so temp files
            # left by a killed writer are garbage by construction.
            for stale in self.directory.glob("*.tmp"):
                try:
                    stale.unlink()
                except OSError:
                    pass
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.admission_rejects = 0
        self.evictions = 0
        self.corrupt_quarantined = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    # Reads -------------------------------------------------------------
    def _load(self, key: str, decode: Optional[Decoder]) -> Optional[object]:
        """A resident entry's bytes, or what ``decode`` makes of them;
        ``None`` when the entry is gone, corrupt or refused.  Corrupt
        bytes are never served: the entry is quarantined for
        post-mortem, and so is one ``decode`` refuses."""
        path = self._path(key)
        try:
            payload = read_enveloped(path, site="result_store.read")
            if decode is not None:
                payload = decode(payload)
                if payload is None:
                    raise IntegrityError(f"{path}: no answer to its key")
            return payload
        except OSError:
            # Entry vanished behind our back (manual delete): heal.
            with self._lock:
                self._index.pop(key, None)
        except IntegrityError:
            quarantine(path)
            with self._lock:
                self._index.pop(key, None)
                self.corrupt_quarantined += 1
        return None

    def get(
        self, key: str, decode: Optional[Decoder] = None
    ) -> Optional[object]:
        """The stored payload bytes for ``key`` (or, given ``decode``,
        what it makes of them), or ``None``.

        Every lookup — hit or miss — feeds the frequency sketch; that
        is what lets a repeatedly-requested result win admission later
        even if its first computation was rejected at capacity.  A
        corrupt or refused entry is reported a miss, so the job layer
        recomputes and re-persists it.
        """
        with self._lock:
            self.sketch.touch(key)
            known = key in self._index
        payload = self._load(key, decode) if known else None
        if payload is None:
            with self._lock:
                self.misses += 1
            return None
        path = self._path(key)
        now = None
        try:
            os.utime(path)
            now = path.stat().st_mtime
        except OSError:
            pass
        with self._lock:
            self.hits += 1
            if now is not None:
                self._index[key] = now
        return payload

    def contains(self, key: str) -> bool:
        """Whether ``key`` is resident (no counters, no sketch)."""
        with self._lock:
            return key in self._index

    def peek(
        self, key: str, decode: Optional[Decoder] = None
    ) -> Optional[object]:
        """Read ``key`` without observability side effects.

        The recovery path rehydrates done jobs through this, and the
        cluster scheduler probes its memo: unlike :meth:`get` it feeds
        no sketch, bumps no hit/miss counters and refreshes no mtime,
        so replaying a journal does not distort the admission policy or
        the metrics a restart should not invent.  Corrupt or refused
        entries are still quarantined, never served.
        """
        with self._lock:
            known = key in self._index
        return self._load(key, decode) if known else None

    # Writes ------------------------------------------------------------
    def _write(self, key: str, payload: bytes) -> float:
        """Persist ``key`` and return the entry's mtime.  Pure IO — the
        caller publishes the index entry under the lock."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        write_enveloped(path, payload, site="result_store.write")
        return path.stat().st_mtime

    def put(self, key: str, payload: bytes) -> bool:
        """Offer a payload for residency; returns whether it was
        admitted.

        Under capacity every offer is admitted.  At capacity the
        candidate competes with the coldest resident entry (minimum
        sketch estimate, oldest mtime breaking ties) and only a
        strictly higher estimated frequency displaces it — the TinyLFU
        rule.  A rejected payload is *not* lost to the caller: the job
        record still carries it; it just is not persisted.

        The admission/eviction decision happens under the lock; the
        write itself does not (CONC003: a store write would otherwise
        stall every HTTP read on disk latency).  That is safe because
        ``write_enveloped`` publishes via atomic rename and one key
        always maps to the same canonical payload bytes, so concurrent
        writers of a key are idempotent; the index entry only appears
        after the bytes are durably in place.
        """
        victim_path: Optional[Path] = None
        with self._lock:
            self.sketch.touch(key)
            if key not in self._index and len(self._index) >= self.capacity:
                victim = min(
                    self._index,
                    key=lambda k: (self.sketch.estimate(k), self._index[k]),
                )
                if self.sketch.estimate(key) <= self.sketch.estimate(victim):
                    self.admission_rejects += 1
                    return False
                victim_path = self._path(victim)
                del self._index[victim]
                self.evictions += 1
        if victim_path is not None:
            try:
                victim_path.unlink()
            except OSError:
                pass
        mtime = self._write(key, payload)
        with self._lock:
            self._index[key] = mtime
            self.stores += 1
        return True

    # Maintenance -------------------------------------------------------
    def verify(self) -> Dict[str, int]:
        """Envelope-check every resident entry without serving any.

        Corrupt entries are quarantined as ``<key>.json.corrupt`` and
        dropped from the index; stale ``*.tmp`` droppings are swept.
        Returns ``{"checked", "ok", "quarantined", "tmp_removed"}``.
        """
        # Snapshot the key set, check entries outside the lock (the
        # envelope reads are file IO; holding the lock across them
        # would stall every concurrent get/put on disk latency), then
        # reconcile per entry.  An entry put concurrently with its
        # check simply gets verified next run.
        checked = ok = quarantined = tmp_removed = 0
        with self._lock:
            keys = list(self._index)
        for key in keys:
            checked += 1
            path = self._path(key)
            try:
                read_enveloped(path)
            except IntegrityError:
                quarantine(path)
                with self._lock:
                    if self._index.pop(key, None) is not None:
                        self.corrupt_quarantined += 1
                        quarantined += 1
            except OSError:
                with self._lock:
                    self._index.pop(key, None)
            else:
                ok += 1
        # The tmp sweep assumes no concurrent writer (verify is an
        # offline maintenance op): an in-flight atomic publish uses a
        # .tmp name this would remove.
        if self.directory.is_dir():
            for stale in self.directory.glob("*.tmp"):
                try:
                    stale.unlink()
                    tmp_removed += 1
                except OSError:
                    pass
        return {
            "checked": checked,
            "ok": ok,
            "quarantined": quarantined,
            "tmp_removed": tmp_removed,
        }

    def clear(self) -> int:
        """Delete every entry; returns the number removed."""
        with self._lock:
            removed = 0
            for key in list(self._index):
                try:
                    self._path(key).unlink()
                except OSError:
                    pass
                del self._index[key]
                removed += 1
            return removed

    def keys(self) -> List[str]:
        """Resident keys, most recently touched first."""
        with self._lock:
            ranked: List[Tuple[float, str]] = sorted(
                ((mtime, key) for key, mtime in self._index.items()),
                reverse=True,
            )
        return [key for _, key in ranked]

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def size_bytes(self) -> int:
        """Total on-disk bytes of resident entries (envelope included).

        Sizes are always bytes in the observability contract — never KB,
        never entry counts pretending to be sizes.
        """
        with self._lock:
            keys = list(self._index)
        total = 0
        for key in keys:
            try:
                total += self._path(key).stat().st_size
            except OSError:
                continue
        return total

    def stats(self) -> Dict[str, int]:
        """Counter snapshot for ``/v1/metrics``."""
        size = self.size_bytes()
        with self._lock:
            return {
                "entries": len(self._index),
                "capacity": self.capacity,
                "size_bytes": size,
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "admission_rejects": self.admission_rejects,
                "evictions": self.evictions,
                "corrupt_quarantined": self.corrupt_quarantined,
            }
