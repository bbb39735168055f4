"""Write-ahead journal for the control plane: durable job/lease state.

The journal is what makes the coordinator restartable.  Every job
state transition (``submitted``/``leased``/``attempt``/``progress``/
``done``/``failed``/``cancelled``) and every recovery-relevant
scheduler event (worker register/deregister/loss, lease issue/expiry/
steal/completion) is appended to ``journal.log`` under the serve state
directory as one integrity-enveloped canonical-JSON record — the same
``FVCE1`` framing (:mod:`repro.common.integrity`) the data plane wraps
around every persisted entry, applied per record::

    FVCE1\\n
    <sha256-hex> <payload-length>\\n
    {"k":"job.submit","seq":17,...}

Records are self-delimiting, so the log is a plain concatenation —
appends need no index, and replay walks the file sequentially,
verifying each record's checksum before applying it.  A torn tail (the
crash happened mid-append) fails its checksum and replay stops at the
last good record; the startup sweep quarantines the torn bytes as
``journal.log.corrupt`` and truncates, exactly like the trace cache
quarantines a corrupt entry.

**Snapshot + compaction** keeps the log bounded: :meth:`Journal
.snapshot` captures the current sequence number *first*, then gathers
component state, publishes it atomically as ``snapshot.bin``
(:func:`~repro.common.integrity.write_enveloped`), and rewrites the
log keeping only records newer than the snapshot covers.  Because the
sequence high-water mark is captured before the state is gathered,
a record can land both inside the snapshot and in the kept tail —
which is why every record is **idempotent and absolute** (``state=``,
``attempts=N``, not ``attempts+=1``): double-apply converges to the
same state.

**Disk pressure** is a first-class outcome, not a crash: an append
that would exceed ``quota_bytes`` (journal + snapshot combined) or
that hits a real ``ENOSPC``/``EIO`` raises the typed
:class:`~repro.common.errors.StorageExhausted`.  The service sheds
*new submissions* with ``503`` + ``Retry-After`` while that condition
holds and keeps serving reads; the flag self-heals on the first append
that succeeds (compaction or freed disk).

Lock discipline (CONC003): the journal's lock is a **leaf** lock —
nothing called under it takes another lock, and no blocking primitive
(``os.fsync``, fault points) runs inside it.  Appends are written +
flushed under the lock for ordering and fsync'd after release (group
commit); callers in :mod:`repro.service.jobs` and
:mod:`repro.cluster.coordinator` append strictly *outside* their own
component locks.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import IntegrityError, StorageExhausted
from repro.common.integrity import (
    MAGIC,
    quarantine,
    read_enveloped,
    write_enveloped,
    wrap,
)
from repro.experiments.render import dumps_compact

#: Record schema tag; replay rejects snapshots from other schemas.
JOURNAL_SCHEMA = "journal/v1"
SNAPSHOT_SCHEMA = "journal.snapshot/v1"

LOG_NAME = "journal.log"
SNAPSHOT_NAME = "snapshot.bin"

#: High-rate, low-value record kinds that skip the per-append fsync
#: (their loss costs cosmetic progress display, never correctness).
_NO_FSYNC_KINDS = frozenset({"job.progress"})


def _read_all(path: Path) -> bytes:
    """Whole-file read via raw fd syscalls (missing file → ``b""``)."""
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return b""
    chunks: List[bytes] = []
    try:
        while True:
            chunk = os.read(fd, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    except OSError:
        return b""
    finally:
        os.close(fd)
    return b"".join(chunks)


def _write_all(path: Path, blob: bytes) -> None:
    """Whole-file create/overwrite via raw fd syscalls."""
    fd = os.open(
        str(path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644
    )
    try:
        os.write(fd, blob)
    finally:
        os.close(fd)


def _parse_log(blob: bytes) -> Tuple[List[Tuple[bytes, Dict]], int, bool]:
    """Walk concatenated enveloped records.

    Returns ``(entries, good_end, torn)``: the verified ``(raw bytes,
    record dict)`` pairs, the offset of the first unparseable byte, and
    whether the walk stopped early (torn tail / corrupt record —
    everything past the failure is untrusted and discarded).
    """
    entries: List[Tuple[bytes, Dict]] = []
    pos = 0
    total = len(blob)
    while pos < total:
        if not blob.startswith(MAGIC, pos):
            return entries, pos, True
        header_end = blob.find(b"\n", pos + len(MAGIC))
        if header_end < 0:
            return entries, pos, True
        try:
            digest_hex, length_text = (
                blob[pos + len(MAGIC):header_end].decode("ascii").split(" ")
            )
            declared = int(length_text)
        except (UnicodeDecodeError, ValueError):
            return entries, pos, True
        start = header_end + 1
        payload = blob[start:start + declared]
        if len(payload) != declared:
            return entries, pos, True
        if hashlib.sha256(payload).hexdigest() != digest_hex:
            return entries, pos, True
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            return entries, pos, True
        if not isinstance(record, dict) or not isinstance(
            record.get("seq"), int
        ):
            return entries, pos, True
        end = start + declared
        entries.append((blob[pos:end], record))
        pos = end
    return entries, pos, False


class Journal:
    """Append-only, integrity-enveloped record log with snapshot +
    compaction and a byte quota.

    Thread-safe; shared by the HTTP threads, the dispatchers and the
    scheduler.  ``fsync=False`` trades the power-loss guarantee
    for speed (tests); process crashes are still covered because the
    bytes reach the kernel on every append.
    """

    def __init__(
        self,
        directory,
        quota_bytes: Optional[int] = None,
        fsync: bool = True,
        snapshot_every: int = 512,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Byte budget over ``journal.log`` + ``snapshot.bin``;
        #: ``None`` = unbounded.  Breaches raise ``StorageExhausted``.
        self.quota_bytes = quota_bytes
        self.snapshot_every = snapshot_every
        self._fsync = fsync
        self._lock = threading.Lock()
        #: Append fd (``O_APPEND``, unbuffered): one ``os.write`` per
        #: record keeps the under-lock critical section a single
        #: syscall, and the group-commit fsync happens after release.
        self._fd: Optional[int] = None
        self._seq = 0
        #: Highest seq the on-disk snapshot covers.
        self._covers = 0
        self._log_size = self._size_of(self.log_path)
        self._snapshot_size = self._size_of(self.snapshot_path)
        #: Sticky degradation flag: the last append failed (quota or
        #: ENOSPC).  Cleared by the next successful append.
        self.exhausted = False
        self.counters: Dict[str, int] = {
            "records": 0,
            "append_failures": 0,
            "snapshots": 0,
            "snapshot_failures": 0,
            "compactions": 0,
            "replayed": 0,
            "recovered_jobs": 0,
            "torn_truncated": 0,
            "quarantined": 0,
        }

    # Paths -------------------------------------------------------------
    @property
    def log_path(self) -> Path:
        return self.directory / LOG_NAME

    @property
    def snapshot_path(self) -> Path:
        return self.directory / SNAPSHOT_NAME

    @staticmethod
    def _size_of(path: Path) -> int:
        try:
            return path.stat().st_size
        except OSError:
            return 0

    # Appending ---------------------------------------------------------
    def _note_append_failure(self) -> None:
        with self._lock:
            self.exhausted = True
            self.counters["append_failures"] += 1

    def append(self, kind: str, **fields) -> int:
        """Durably append one record; returns its sequence number.

        Raises :class:`StorageExhausted` on quota breach or any OS
        write failure — the caller decides whether that sheds the
        operation (new submissions) or is merely counted (records about
        work already accepted, via :meth:`append_safe`).
        """
        with self._lock:
            self._seq += 1
            seq = self._seq
        record: Dict[str, object] = {"k": kind, "seq": seq}
        for name, value in fields.items():
            if value is not None:
                record[name] = value
        blob = wrap(dumps_compact(record).encode("utf-8"))
        # The fault point sits outside the lock (it can sleep or raise)
        # and sees the enveloped bytes: truncate models a torn write,
        # bitflip a corrupt record, io_error an ENOSPC-class failure.
        from repro.faults.sites import fault_point

        try:
            mutated = fault_point("journal.append", data=blob)
        except OSError as exc:
            self._note_append_failure()
            raise StorageExhausted(f"journal append failed: {exc}") from exc
        blob = blob if mutated is None else mutated
        with self._lock:
            used = self._log_size + self._snapshot_size
            if (
                self.quota_bytes is not None
                and used + len(blob) > self.quota_bytes
            ):
                self.exhausted = True
                self.counters["append_failures"] += 1
                raise StorageExhausted(
                    f"state quota exhausted ({used} bytes used, record "
                    f"needs {len(blob)}, quota {self.quota_bytes})"
                )
            try:
                if self._fd is None:
                    self._fd = os.open(
                        str(self.log_path),
                        os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                        0o644,
                    )
                os.write(self._fd, blob)
            except OSError as exc:
                self.exhausted = True
                self.counters["append_failures"] += 1
                raise StorageExhausted(
                    f"journal append failed: {exc}"
                ) from exc
            self._log_size += len(blob)
            self.counters["records"] += 1
            self.exhausted = False
            fd = self._fd
        if self._fsync and kind not in _NO_FSYNC_KINDS:
            try:
                os.fsync(fd)
            except OSError:
                # Group commit is best-effort past the flush: the bytes
                # reached the kernel; only the power-loss window widens.
                pass
        return seq

    def append_safe(self, kind: str, **fields) -> Optional[int]:
        """Append without ever raising: storage exhaustion is counted
        (and flagged on :attr:`exhausted`) but must not fail work the
        service already accepted."""
        try:
            return self.append(kind, **fields)
        except StorageExhausted:
            return None

    # Snapshot + compaction ---------------------------------------------
    def snapshot_due(self) -> bool:
        """Whether enough records accumulated past the last snapshot."""
        with self._lock:
            return (self._seq - self._covers) >= self.snapshot_every

    def snapshot(self, gather: Callable[[], Dict]) -> bool:
        """Publish a snapshot and compact the log behind it.

        The seq high-water mark is captured *before* ``gather()`` runs
        (which takes the component locks), so any record racing the
        gather lands in the kept tail as well as the snapshot — safe,
        because records are idempotent and absolute.  Returns whether
        the snapshot was published.
        """
        with self._lock:
            covers = self._seq
        state = gather()
        payload = dumps_compact(
            {"schema": SNAPSHOT_SCHEMA, "covers": covers, "state": state}
        ).encode("utf-8")
        try:
            write_enveloped(
                self.snapshot_path, payload, site="journal.snapshot"
            )
        except OSError:
            with self._lock:
                self.counters["snapshot_failures"] += 1
            return False
        self._compact(covers)
        with self._lock:
            self.counters["snapshots"] += 1
            self._covers = covers
            self._snapshot_size = self._size_of(self.snapshot_path)
            if (
                self.quota_bytes is None
                or self._log_size + self._snapshot_size <= self.quota_bytes
            ):
                # Compaction freed space: storage degradation self-heals.
                self.exhausted = False
        return True

    def _compact(self, covers: int) -> None:
        """Rewrite the log keeping only records with ``seq > covers``.

        Runs entirely under the lock — the swap must not interleave
        with appends — using raw fd syscalls so the critical section is
        a handful of bounded local-disk operations.
        """
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                except OSError:
                    pass
                self._fd = None
            blob = _read_all(self.log_path)
            entries, _end, _torn = _parse_log(blob)
            kept = b"".join(
                raw for raw, record in entries if record["seq"] > covers
            )
            tmp = self.log_path.with_name(LOG_NAME + ".compact.tmp")
            try:
                _write_all(tmp, kept)
                os.replace(tmp, self.log_path)
            except OSError:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                return
            self._log_size = len(kept)
            self.counters["compactions"] += 1

    # Recovery-side reads -----------------------------------------------
    def _read_snapshot(self) -> Tuple[Optional[Dict], int]:
        """The snapshot's ``(state, covers)``; a corrupt snapshot is
        quarantined and recovery proceeds from the full log."""
        if not self.snapshot_path.exists():
            return None, 0
        try:
            payload = read_enveloped(self.snapshot_path, site="journal.replay")
            doc = json.loads(payload.decode("utf-8"))
            if (
                not isinstance(doc, dict)
                or doc.get("schema") != SNAPSHOT_SCHEMA
            ):
                raise IntegrityError(
                    f"{self.snapshot_path}: not a {SNAPSHOT_SCHEMA} snapshot"
                )
            return doc.get("state") or {}, int(doc.get("covers", 0))
        except (OSError, IntegrityError, ValueError):
            quarantine(self.snapshot_path)
            with self._lock:
                self.counters["quarantined"] += 1
                self._snapshot_size = 0
            return None, 0

    def _read_log(self) -> Tuple[List[Tuple[bytes, Dict]], int, bool]:
        if not self.log_path.exists():
            return [], 0, False
        try:
            with open(self.log_path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return [], 0, False
        from repro.faults.sites import fault_point

        try:
            mutated = fault_point("journal.replay", data=blob)
        except OSError:
            # An unreadable log is an empty log: recovery proceeds with
            # whatever the snapshot holds rather than crashing startup.
            return [], 0, False
        blob = blob if mutated is None else mutated
        return _parse_log(blob)

    def replay(self) -> Tuple[Optional[Dict], List[Dict], bool]:
        """Read ``(snapshot_state, tail_records, torn)`` and re-base the
        append sequence past everything seen.

        ``tail_records`` holds every verified record with ``seq`` past
        the snapshot's covers mark, in file order.  Torn/corrupt tails
        stop the walk at the last good record (use :meth:`sweep` to
        quarantine the bad bytes).
        """
        state, covers = self._read_snapshot()
        entries, _end, torn = self._read_log()
        records = [record for _raw, record in entries]
        top = max([covers] + [record["seq"] for record in records])
        tail = [record for record in records if record["seq"] > covers]
        with self._lock:
            self._seq = max(self._seq, top)
            self._covers = covers
            self.counters["replayed"] += len(tail)
        return state, tail, torn

    def sweep(self) -> Dict[str, int]:
        """Startup GC: quarantine a torn/corrupt log tail, drop stale
        temp files, and validate the snapshot envelope.

        Returns ``{"records_ok", "torn_bytes", "quarantined",
        "tmp_removed", "snapshot_ok"}`` — the fsck report the CLI
        prints.  Safe to call on a live journal only before appends
        start (recovery and the ``journal fsck`` command both qualify).
        """
        report = {
            "records_ok": 0,
            "torn_bytes": 0,
            "quarantined": 0,
            "tmp_removed": 0,
            "snapshot_ok": 0,
        }
        for stale in self.directory.glob("*.tmp"):
            try:
                stale.unlink()
                report["tmp_removed"] += 1
            except OSError:
                pass
        blob = b""
        if self.log_path.exists():
            try:
                with open(self.log_path, "rb") as handle:
                    blob = handle.read()
            except OSError:
                blob = b""
        entries, good_end, torn = _parse_log(blob)
        report["records_ok"] = len(entries)
        if torn:
            bad = blob[good_end:]
            report["torn_bytes"] = len(bad)
            corrupt_path = self.log_path.with_name(
                LOG_NAME + ".corrupt"
            )
            with self._lock:
                if self._fd is not None:
                    try:
                        os.close(self._fd)
                    except OSError:
                        pass
                    self._fd = None
                try:
                    _write_all(corrupt_path, bad)
                    log_fd = os.open(str(self.log_path), os.O_WRONLY)
                    try:
                        os.ftruncate(log_fd, good_end)
                    finally:
                        os.close(log_fd)
                except OSError:
                    pass
                else:
                    report["quarantined"] += 1
                    self.counters["torn_truncated"] += 1
                self._log_size = self._size_of(self.log_path)
        snapshot_ok = True
        if self.snapshot_path.exists():
            try:
                payload = read_enveloped(self.snapshot_path)
                doc = json.loads(payload.decode("utf-8"))
                if doc.get("schema") != SNAPSHOT_SCHEMA:
                    raise IntegrityError("wrong snapshot schema")
            except (OSError, IntegrityError, ValueError):
                snapshot_ok = False
                quarantine(self.snapshot_path)
                with self._lock:
                    self.counters["quarantined"] += 1
                    self._snapshot_size = 0
                report["quarantined"] += 1
        report["snapshot_ok"] = 1 if snapshot_ok else 0
        return report

    # Observability ------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Counter/gauge snapshot for ``/v1/metrics``."""
        with self._lock:
            stats = dict(self.counters)
            stats["size_bytes"] = self._log_size + self._snapshot_size
            stats["quota_bytes"] = self.quota_bytes or 0
            stats["exhausted"] = 1 if self.exhausted else 0
            stats["seq"] = self._seq
            stats["tail_records"] = self._seq - self._covers
        return stats

    def close(self) -> None:
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                except OSError:
                    pass
                self._fd = None


# Recovery ---------------------------------------------------------------
@dataclass
class RecoveredJob:
    """One job as reconstructed from snapshot + tail."""

    id: str
    spec: Dict
    result_key: str
    state: str = "queued"
    attempts: int = 0
    created: float = 0.0
    progress: Optional[Tuple[int, int]] = None
    error: Optional[str] = None
    cached: bool = False
    stored: Optional[bool] = None
    cancel_requested: bool = False

    def as_state(self) -> Dict:
        """The absolute record/snapshot form of this job."""
        view: Dict[str, object] = {
            "id": self.id,
            "spec": self.spec,
            "result_key": self.result_key,
            "state": self.state,
            "attempts": self.attempts,
            "created": self.created,
        }
        if self.progress is not None:
            view["progress"] = list(self.progress)
        if self.error is not None:
            view["error"] = self.error
        if self.cached:
            view["cached"] = True
        if self.stored is not None:
            view["stored"] = self.stored
        if self.cancel_requested:
            view["cancel"] = True
        return view

    @classmethod
    def from_state(cls, raw: Dict) -> "RecoveredJob":
        # Records written before the one-executor service carry a
        # ``lane``; it named an execution strategy, never state, and
        # recovery ignores it.
        progress = raw.get("progress")
        return cls(
            id=str(raw["id"]),
            spec=dict(raw.get("spec") or {}),
            result_key=str(raw.get("result_key", "")),
            state=str(raw.get("state", "queued")),
            attempts=int(raw.get("attempts", 0)),
            created=float(raw.get("created", 0.0)),
            progress=(
                (int(progress[0]), int(progress[1]))
                if isinstance(progress, (list, tuple)) and len(progress) == 2
                else None
            ),
            error=raw.get("error"),
            cached=bool(raw.get("cached", False)),
            stored=raw.get("stored"),
            cancel_requested=bool(raw.get("cancel", False)),
        )


@dataclass
class RecoveredState:
    """Everything recovery rebuilds the control plane from."""

    jobs: List[RecoveredJob] = field(default_factory=list)
    queue_counters: Dict[str, int] = field(default_factory=dict)
    sched_counters: Dict[str, int] = field(default_factory=dict)
    #: Serial high-water marks — restored so post-crash ids can never
    #: collide with ids pre-crash workers still hold.
    job_serial: int = 0
    worker_serial: int = 0
    lease_serial: int = 0
    #: Highest scheduler-clock reading seen; the restarted scheduler
    #: re-bases its monotonic clock here so TTL math stays correct.
    epoch: float = 0.0
    replayed: int = 0
    torn: bool = False


_LIVE_STATES = ("queued", "running")
_TERMINAL_STATES = ("done", "failed", "cancelled")

def _trailing_serial(identifier: str, prefix: str) -> int:
    """``w-0012`` → 12, ``lease-000007`` → 7, ``job-00031-ab12cd34`` → 31."""
    if not identifier.startswith(prefix):
        return 0
    rest = identifier[len(prefix):]
    digits = rest.split("-", 1)[0]
    try:
        return int(digits)
    except ValueError:
        return 0


def recover(journal: Journal) -> RecoveredState:
    """Replay snapshot + tail into a :class:`RecoveredState`.

    Application is order-tolerant inside the snapshot/tail double-apply
    window because records are absolute: a ``job.finish`` applied on a
    job the snapshot already shows terminal changes nothing, and
    counters only advance on live→terminal edges.
    """
    snapshot_state, tail, torn = journal.replay()
    state = RecoveredState(torn=torn, replayed=len(tail))
    jobs: Dict[str, RecoveredJob] = {}
    order: List[str] = []
    if snapshot_state:
        queue_state = snapshot_state.get("queue") or {}
        for raw in queue_state.get("jobs") or []:
            job = RecoveredJob.from_state(raw)
            jobs[job.id] = job
            order.append(job.id)
        state.queue_counters = dict(queue_state.get("counters") or {})
        state.job_serial = int(queue_state.get("serial", 0))
        sched_state = snapshot_state.get("sched") or {}
        state.sched_counters = dict(sched_state.get("counters") or {})
        state.worker_serial = int(sched_state.get("worker_serial", 0))
        state.lease_serial = int(sched_state.get("lease_serial", 0))
        state.epoch = float(sched_state.get("epoch", 0.0))

    def bump(name: str, amount: int = 1) -> None:
        state.queue_counters[name] = (
            state.queue_counters.get(name, 0) + amount
        )

    for record in tail:
        kind = record.get("k")
        if kind == "job.submit":
            job_id = str(record.get("id", ""))
            if job_id and job_id not in jobs:
                jobs[job_id] = RecoveredJob(
                    id=job_id,
                    spec=dict(record.get("spec") or {}),
                    result_key=str(record.get("result_key", "")),
                    created=float(record.get("created", 0.0)),
                )
                order.append(job_id)
                bump("submitted")
        elif kind == "job.cached":
            job_id = str(record.get("id", ""))
            if job_id and job_id not in jobs:
                jobs[job_id] = RecoveredJob(
                    id=job_id,
                    spec=dict(record.get("spec") or {}),
                    result_key=str(record.get("result_key", "")),
                    created=float(record.get("created", 0.0)),
                    state="done",
                    cached=True,
                    stored=True,
                )
                order.append(job_id)
                bump("submitted")
        elif kind == "job.claim":
            job = jobs.get(str(record.get("id", "")))
            if job is not None and job.state in _LIVE_STATES:
                job.state = "running"
        elif kind == "job.attempt":
            job = jobs.get(str(record.get("id", "")))
            if job is not None:
                job.attempts = max(job.attempts, int(record.get("n", 0)))
        elif kind == "job.progress":
            job = jobs.get(str(record.get("id", "")))
            if job is not None:
                job.progress = (
                    int(record.get("done", 0)),
                    int(record.get("total", 0)),
                )
        elif kind == "job.finish":
            job = jobs.get(str(record.get("id", "")))
            final = str(record.get("state", ""))
            if (
                job is not None
                and final in _TERMINAL_STATES
                and job.state in _LIVE_STATES
            ):
                job.state = final
                job.error = record.get("error")
                stored = record.get("stored")
                job.stored = stored if isinstance(stored, bool) else None
                counter = {
                    "done": "completed",
                    "failed": "failed",
                    "cancelled": "cancelled",
                }[final]
                bump(counter)
        elif kind == "job.cancel":
            job = jobs.get(str(record.get("id", "")))
            if job is not None and job.state in _LIVE_STATES:
                job.cancel_requested = True
        elif kind == "job.retry":
            bump("retries")
        elif kind == "sched":
            worker = record.get("worker")
            if isinstance(worker, str):
                state.worker_serial = max(
                    state.worker_serial, _trailing_serial(worker, "w-")
                )
            lease = record.get("lease")
            if isinstance(lease, str):
                state.lease_serial = max(
                    state.lease_serial, _trailing_serial(lease, "lease-")
                )
            t = record.get("t")
            if isinstance(t, (int, float)):
                state.epoch = max(state.epoch, float(t))
        # Unknown kinds (markers, future schema growth) are skipped —
        # replay tolerates forward-compatible records.

    state.jobs = [jobs[job_id] for job_id in order]
    for job in state.jobs:
        state.job_serial = max(
            state.job_serial, _trailing_serial(job.id, "job-")
        )
    journal.counters["recovered_jobs"] += len(state.jobs)
    return state
