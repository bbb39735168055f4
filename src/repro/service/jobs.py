"""Job records, lifecycle states and the thread-safe job queue.

A job is born ``queued``, is claimed by one dispatcher (``running``),
and ends in exactly one of ``done`` / ``failed`` / ``cancelled``.  The
:class:`JobQueue` owns every record, hands pending ids to dispatchers
in FIFO order, and keeps the lifecycle counters ``/v1/metrics``
reports.

Three service behaviours live here rather than in the dispatchers:

* **store-hit answering** — a submission whose result key is already in
  the result store is materialised directly as a ``done`` job
  (``cached: true``), never touching the queue;
* **in-flight deduplication** — a submission whose result key matches a
  job that is currently queued or running returns that job
  (``deduplicated: true``) instead of simulating the same thing twice;
* **overload shedding** — with ``max_queue_depth`` set, a submission
  that would enqueue a new job beyond the bound raises
  :class:`QueueFullError` (the HTTP layer answers ``503`` +
  ``Retry-After``) instead of growing an unbounded backlog.
"""

from __future__ import annotations

import queue
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.errors import StorageExhausted

#: Lifecycle states.  ``queued`` and ``running`` are live; the rest are
#: terminal.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

_LIVE = (QUEUED, RUNNING)
_TERMINAL = (DONE, FAILED, CANCELLED)

#: Schema tag stamped on every job view the service returns.  Clients
#: must tolerate unknown keys; additive changes keep this tag, breaking
#: changes bump it (see ``docs/API.md``).
JOB_SCHEMA = "job/v2"


class QueueFullError(Exception):
    """A submission was shed: the pending queue is at its depth bound.

    The HTTP layer translates this into ``503`` with a ``Retry-After``
    header — the overload contract is *reject new work loudly, never
    drop accepted work silently*.
    """

    def __init__(self, depth: int, limit: int) -> None:
        super().__init__(
            f"queue is full ({depth} pending, limit {limit}); retry later"
        )
        self.depth = depth
        self.limit = limit


@dataclass
class Job:
    """One submitted unit of work and everything observable about it."""

    id: str
    spec: Dict
    result_key: str
    state: str = QUEUED
    created: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    attempts: int = 0
    error: Optional[str] = None
    #: ``(done, total)`` cell progress, engine-hook fed.
    progress: Optional[Tuple[int, int]] = None
    #: Answered straight from the result store, no simulation.
    cached: bool = False
    #: Whether the completed payload won result-store admission.
    stored: Optional[bool] = None
    #: The completed payload (kept in memory even when the store
    #: rejected it, so the submitter always gets the result).
    payload: Optional[Dict] = None
    #: Set to request cancellation; checked queued and running.
    cancel_event: threading.Event = field(default_factory=threading.Event)

    def as_dict(self, include_result: bool = True) -> Dict:
        """The job's public JSON view (``GET /v1/jobs/<id>``)."""
        view: Dict[str, object] = {
            "schema": JOB_SCHEMA,
            "id": self.id,
            "spec": self.spec,
            "result_key": self.result_key,
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "attempts": self.attempts,
            "error": self.error,
            "cached": self.cached,
            "stored": self.stored,
        }
        if self.progress is not None:
            done, total = self.progress
            view["progress"] = {"done": done, "total": total}
        if include_result and self.state == DONE:
            view["result"] = self.payload
        return view


class JobQueue:
    """Registry of every job plus the FIFO of pending work.

    All mutation goes through methods that hold the internal lock, so
    HTTP threads and worker threads can share one instance freely.
    """

    def __init__(
        self,
        max_jobs: int = 10000,
        max_queue_depth: Optional[int] = None,
        journal=None,
    ) -> None:
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._order: List[str] = []  # insertion order, for trimming
        self._pending: "queue.Queue[str]" = queue.Queue()
        self._max_jobs = max_jobs
        #: Pending-job bound; ``None`` = unbounded.  At the bound, new
        #: (non-deduplicated) submissions raise :class:`QueueFullError`.
        self.max_queue_depth = max_queue_depth
        #: Optional write-ahead journal (:class:`repro.service.journal
        #: .Journal`).  When set, every lifecycle transition is appended
        #: so a restarted coordinator can rebuild this queue.  Appends
        #: always happen *outside* ``_lock`` — the journal fsyncs and
        #: hosts a fault point, and neither may run under a lock.
        self.journal = journal
        self._serial = 0  # plain int so snapshots can capture/restore it
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        self.cancelled = 0
        self.retries = 0
        self.shed = 0

    def _new_id(self) -> str:
        # Job ids are transport handles, never result material: results
        # are addressed by the deterministic result_key, and ids appear
        # in no payload the store persists.  The random suffix guards
        # against id collisions across server restarts.
        self._serial += 1
        return f"job-{self._serial:05d}-{uuid.uuid4().hex[:8]}"  # repro: allow[DET001]

    def _trim(self) -> None:
        # Drop the oldest *terminal* records once the registry is full;
        # live jobs are never evicted.
        while len(self._order) > self._max_jobs:
            for index, job_id in enumerate(self._order):
                if self._jobs[job_id].state in _TERMINAL:
                    del self._jobs[job_id]
                    del self._order[index]
                    break
            else:
                return

    # Submission --------------------------------------------------------
    def submit(self, spec: Dict, result_key: str) -> Tuple[Job, bool]:
        """Register a new queued job; returns ``(job, deduplicated)``.

        When a live job with the same result key exists, that job is
        returned instead (``deduplicated=True``) and nothing new is
        enqueued.  Deduplicated submissions are never shed — they add
        no work — but a submission that *would* enqueue a new job while
        ``max_queue_depth`` jobs are already pending raises
        :class:`QueueFullError` instead of growing the
        backlog, and one that cannot be durably journalled (disk quota
        or ``ENOSPC``) is rolled back and re-raises
        :class:`StorageExhausted` — accepted means recorded.
        """
        with self._lock:
            self.submitted += 1
            for job_id in reversed(self._order):
                existing = self._jobs[job_id]
                if (
                    existing.result_key == result_key
                    and existing.state in _LIVE
                ):
                    return existing, True
            if self.max_queue_depth is not None:
                depth = sum(
                    1 for j in self._jobs.values() if j.state == QUEUED
                )
                if depth >= self.max_queue_depth:
                    self.shed += 1
                    raise QueueFullError(depth, self.max_queue_depth)
            job = Job(id=self._new_id(), spec=spec, result_key=result_key)
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._trim()
        if self.journal is not None:
            try:
                self.journal.append(
                    "job.submit",
                    id=job.id,
                    spec=spec,
                    result_key=result_key,
                    created=job.created,
                )
            except StorageExhausted:
                # The write-ahead contract: a job we cannot record is a
                # job we never accepted.  Undo the insert and shed.
                with self._lock:
                    self._jobs.pop(job.id, None)
                    if job.id in self._order:
                        self._order.remove(job.id)
                    self.submitted -= 1
                    self.shed += 1
                raise
        self._pending.put(job.id)
        return job, False

    def add_cached(self, spec: Dict, result_key: str, payload: Dict) -> Job:
        """Register a submission answered from the result store: the
        job is born ``done`` and never enters the queue."""
        now = time.time()
        with self._lock:
            self.submitted += 1
            job = Job(
                id=self._new_id(),
                spec=spec,
                result_key=result_key,
                state=DONE,
                started=now,
                finished=now,
                cached=True,
                stored=True,
                payload=payload,
            )
            self._jobs[job.id] = job
            self._order.append(job.id)
            self._trim()
        if self.journal is not None:
            # A cached answer adds no queue work, so exhaustion never
            # sheds it — the store already holds the durable truth.
            self.journal.append_safe(
                "job.cached",
                id=job.id,
                spec=spec,
                result_key=result_key,
                created=job.created,
            )
        return job

    # Dispatcher side ---------------------------------------------------
    def next_job(self, timeout: float = 0.2) -> Optional[Job]:
        """Claim the next pending job (``running``), or ``None`` on
        timeout.  Jobs cancelled while queued are resolved here."""
        try:
            job_id = self._pending.get(timeout=timeout)
        except queue.Empty:
            return None
        resolved_cancel = False
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.state != QUEUED:
                return None
            if job.cancel_event.is_set():
                job.state = CANCELLED
                job.finished = time.time()
                self.cancelled += 1
                resolved_cancel = True
            else:
                job.state = RUNNING
                job.started = time.time()
        if self.journal is not None:
            if resolved_cancel:
                self.journal.append_safe(
                    "job.finish", id=job.id, state=CANCELLED
                )
            else:
                self.journal.append_safe("job.claim", id=job.id)
        return None if resolved_cancel else job

    def note_retry(self) -> None:
        with self._lock:
            self.retries += 1
        if self.journal is not None:
            self.journal.append_safe("job.retry")

    def note_attempt(self, job: Job, attempt: int) -> None:
        """Record that ``job`` is starting attempt ``attempt``.

        Job records are read by HTTP threads (``GET /v1/jobs/<id>``)
        while a worker thread mutates them, so the write goes through
        the queue's lock like every other job mutation.  The count is
        monotonic: a job recovered at attempt 2 whose executor restarts
        its local loop at 1 keeps reporting 2.
        """
        with self._lock:
            job.attempts = max(job.attempts, attempt)
            recorded = job.attempts
        if self.journal is not None:
            self.journal.append_safe("job.attempt", id=job.id, n=recorded)

    def note_progress(self, job: Job, done: int, total: int) -> None:
        """Record engine-hook progress for ``job`` (cells done/total)."""
        with self._lock:
            job.progress = (done, total)
        if self.journal is not None:
            self.journal.append_safe(
                "job.progress", id=job.id, done=done, total=total
            )

    def finish(
        self,
        job: Job,
        state: str,
        error: Optional[str] = None,
        payload: Optional[Dict] = None,
        stored: Optional[bool] = None,
    ) -> None:
        """Move a running job to a terminal state."""
        if state not in _TERMINAL:
            raise ValueError(f"not a terminal state: {state!r}")
        with self._lock:
            job.state = state
            job.finished = time.time()
            job.error = error
            job.payload = payload
            job.stored = stored
            if state == DONE:
                self.completed += 1
            elif state == FAILED:
                self.failed += 1
            else:
                self.cancelled += 1
        if self.journal is not None:
            self.journal.append_safe(
                "job.finish",
                id=job.id,
                state=state,
                error=error,
                stored=stored,
            )

    # Introspection -----------------------------------------------------
    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> Optional[Job]:
        """Request cancellation; returns the job or ``None``.

        Queued jobs resolve when a worker drains them; running jobs are
        stopped by their worker (which kills the child process).
        Terminal jobs are unaffected.
        """
        with self._lock:
            job = self._jobs.get(job_id)
        if job is not None and job.state in _LIVE:
            job.cancel_event.set()
            if self.journal is not None:
                self.journal.append_safe("job.cancel", id=job.id)
        return job

    def jobs(self) -> List[Job]:
        """Every known job, submission order."""
        with self._lock:
            return [self._jobs[job_id] for job_id in self._order]

    def queue_depth(self) -> int:
        """Number of jobs waiting for a dispatcher (the overload
        bound)."""
        with self._lock:
            return sum(1 for j in self._jobs.values() if j.state == QUEUED)

    def running_count(self) -> int:
        with self._lock:
            return sum(1 for j in self._jobs.values() if j.state == RUNNING)

    def stats(self) -> Dict[str, int]:
        """Lifecycle counters for ``/v1/metrics``."""
        with self._lock:
            live = [j.state for j in self._jobs.values()]
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "cancelled": self.cancelled,
                "retries": self.retries,
                "shed": self.shed,
                "queued": sum(1 for s in live if s == QUEUED),
                "running": sum(1 for s in live if s == RUNNING),
            }

    # Durability ---------------------------------------------------------
    def restore(self, recovered, payloads: Dict[str, Dict]) -> int:
        """Rebuild the queue from recovery state (startup only).

        ``recovered`` is a :class:`repro.service.journal.RecoveredState`;
        ``payloads`` maps result keys to store payloads the caller
        prefetched (store reads block, so they must not happen under
        this lock).  Jobs that were running at the crash re-enter the
        queue at their recorded attempt count — their pre-crash leases
        are dead, so ``queued`` is the truthful state.  Done jobs are
        rehydrated from the store and never recomputed.  Returns the
        number of jobs restored.
        """
        to_enqueue: List[str] = []
        with self._lock:
            for rec in recovered.jobs:
                if rec.id in self._jobs:
                    continue
                job = Job(
                    id=rec.id,
                    spec=rec.spec,
                    result_key=rec.result_key,
                    created=rec.created,
                    attempts=rec.attempts,
                    cached=rec.cached,
                )
                if rec.progress is not None:
                    job.progress = rec.progress
                if rec.state in _TERMINAL:
                    job.state = rec.state
                    job.finished = rec.created
                    job.error = rec.error
                    job.stored = rec.stored
                    if rec.state == DONE:
                        job.payload = payloads.get(rec.result_key)
                else:
                    job.state = QUEUED
                    if rec.cancel_requested:
                        job.cancel_event.set()
                    to_enqueue.append(job.id)
                self._jobs[job.id] = job
                self._order.append(job.id)
            self._serial = max(self._serial, recovered.job_serial)
            counters = recovered.queue_counters
            self.submitted = counters.get("submitted", 0)
            self.completed = counters.get("completed", 0)
            self.failed = counters.get("failed", 0)
            self.cancelled = counters.get("cancelled", 0)
            self.retries = counters.get("retries", 0)
            self.shed = counters.get("shed", 0)
            restored = len(self._order)
        for job_id in to_enqueue:
            self._pending.put(job_id)
        return restored

    def snapshot_state(self) -> Dict:
        """Absolute state for the journal snapshot: every job in
        record form (no payloads — done results live in the store) plus
        the lifecycle counters and the id serial high-water mark."""
        with self._lock:
            jobs = []
            for job_id in self._order:
                job = self._jobs[job_id]
                view: Dict[str, object] = {
                    "id": job.id,
                    "spec": job.spec,
                    "result_key": job.result_key,
                    "state": job.state,
                    "attempts": job.attempts,
                    "created": job.created,
                }
                if job.progress is not None:
                    view["progress"] = list(job.progress)
                if job.error is not None:
                    view["error"] = job.error
                if job.cached:
                    view["cached"] = True
                if job.stored is not None:
                    view["stored"] = job.stored
                if job.state in _LIVE and job.cancel_event.is_set():
                    view["cancel"] = True
                jobs.append(view)
            return {
                "jobs": jobs,
                "serial": self._serial,
                "counters": {
                    "submitted": self.submitted,
                    "completed": self.completed,
                    "failed": self.failed,
                    "cancelled": self.cancelled,
                    "retries": self.retries,
                    "shed": self.shed,
                },
            }
