"""Coordinator-side execution: the one executor of served jobs.

:class:`ClusterScheduler` is the fabric's brain.  It tracks registered
workers — remote ``repro-fvc worker`` processes over HTTP and the
service's local worker processes over a pipe (:mod:`repro.cluster
.pipe`) — keeps the FIFO of pending **tasks** (normalised job specs
keyed by their result key), grants time-bounded **leases** over them,
and hands each result to the runs waiting on it.  The service's
dispatcher threads call :meth:`ClusterScheduler.run_spec`: a grid
experiment fans its cells out as tasks and merges them, any other spec
is one task.

Failure model (see ``docs/CLUSTER.md``):

* **worker loss** — a remote worker that stops heartbeating past its
  TTL, or a local worker whose pipe closes, is dropped and every lease
  it held is re-queued (front of the queue, so takeovers run first);
* **lease expiry** — a lease older than the lease deadline (``serve
  --timeout``) is revoked and its task re-queued even while the holder
  still heartbeats (a hung simulation on a live worker);
* **work stealing** — a worker that asks for work while the queue is
  drained steals the youngest lease from the most-loaded worker
  (holders keep at least one), rebalancing batch skew;
* **attempt budget** — every lease is an attempt; a task whose last
  attempt is lost fails with ``gave up after N attempts`` and the last
  cause, and a worker whose run raises pushes the error, which fails
  the task at once.  The coordinator itself never simulates;
* **withdrawal** — a task lives only while some run waits on it; the
  last run to stop waiting (done, failed or cancelled) drops it, and an
  unfinished task leaves the queue or has its lease revoked.  The
  result store is the memo.

Every one of those transitions is appended to :attr:`ClusterScheduler
.events` — the lease audit log — and counted in the ``cluster_*``
metrics (``/v1/metrics``).  Duplicated computation from stale leases
is harmless by design: tasks are deterministic, so any copy produces
the same bytes, and stale pushes are acknowledged-and-ignored.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.common.errors import ReproError
from repro.engine.cells import CellResult, SimCell
from repro.engine.runner import RunCancelled
from repro.service.api import (
    cell_result,
    cell_spec,
    decode_payload,
    payload_bytes,
    result_key,
    valid_payload,
)
from repro.cluster.protocol import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_WORKER_TTL_SECONDS,
    LEASE_SCHEMA,
    WORKER_SCHEMA,
    WORKERS_SCHEMA,
)

#: Task states.
PENDING = "pending"
LEASED = "leased"
DONE = "done"
FAILED = "failed"

#: The audit log keeps this many most-recent events.
_MAX_EVENTS = 4096

#: Seconds between a waiting run's cancel/reap/progress checks.
_TICK = 0.05

#: ``attempts(n)`` — told the highest lease attempt of a run's tasks
#: whenever it rises.
AttemptHook = Callable[[int], None]


class TaskFailed(ReproError):
    """A task a run waited on failed: its worker raised, or its attempt
    budget ran out.  The message is the task's error."""


class Task:
    """One spec the fabric owes somebody an answer for.

    Tasks are keyed by the spec's result key, so concurrent runs needing
    the same work share one task (and one computation); ``waiters``
    counts those runs.  ``event`` fires exactly once: when the task is
    ``done`` (``payload`` holds the result and ``stored`` its result-
    store admission, settled before the event fires) or ``failed``
    (``error`` says why).
    """

    __slots__ = (
        "key", "spec", "state", "attempts", "lease", "waiters",
        "payload", "stored", "error", "event",
    )

    def __init__(self, key: str, spec: Dict) -> None:
        self.key = key
        self.spec = spec
        self.state = PENDING
        self.attempts = 0
        self.lease: Optional[str] = None
        self.waiters = 0
        self.payload: Optional[Dict] = None
        self.stored: Optional[bool] = None
        self.error: Optional[str] = None
        self.event = threading.Event()


@dataclass
class Lease:
    """One time-bounded grant of one task to one worker."""

    id: str
    task: Task
    worker_id: str
    issued: float
    #: ``None`` = no deadline (``serve --timeout 0``).
    deadline: Optional[float]


@dataclass
class WorkerInfo:
    """Coordinator-side view of one registered worker."""

    id: str
    name: str
    pid: Optional[int]
    host: Optional[str]
    registered: float
    last_seen: float
    #: A local worker is lost when its pipe closes, never by TTL.
    local: bool = False
    completed: int = 0
    lease_ids: Set[str] = field(default_factory=set)


class ClusterScheduler:
    """Worker registry + lease table + pending-task queue.

    Thread-safe: HTTP handler threads (register/heartbeat/lease/
    result), local-worker pipe threads, dispatcher threads
    (:meth:`run_spec`) and the reaper logic all serialise on one lock;
    simulation and store IO happen outside it.  The clock is injectable
    (monotonic seconds) so lease expiry is unit-testable without
    sleeping.
    """

    def __init__(
        self,
        store=None,
        registry=None,
        lease_timeout: Optional[float] = None,
        worker_ttl: float = DEFAULT_WORKER_TTL_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        clock: Callable[[], float] = time.monotonic,
        journal=None,
    ) -> None:
        #: Optional :class:`repro.service.result_store.ResultStore`;
        #: consulted before queueing a task and offered every completed
        #: one, which is what makes results cluster-wide.
        self.store = store
        #: Optional :class:`repro.obs.MetricsRegistry` the scheduler
        #: counts ``worker_attempts_total`` (one per lease) into.
        self.registry = registry
        #: Seconds a lease stays valid (``serve --timeout``); ``None``
        #: or 0 = no deadline.
        self.lease_timeout = lease_timeout or None
        self.worker_ttl = worker_ttl
        self.max_attempts = max_attempts
        # The scheduler owns an explicit clock *epoch* so every TTL and
        # lease deadline survives a restart: ``now()`` reads the raw
        # (injectable, monotonic) clock relative to the instant the
        # epoch was (re-)based.  Recovery calls :meth:`restore` with
        # the highest pre-crash reading, so post-restart timestamps
        # keep increasing even though ``time.monotonic`` reset to an
        # arbitrary origin with the new process.
        self._raw_clock = clock
        self._base = clock()
        self._epoch = 0.0
        #: Optional write-ahead journal; recovery-relevant transitions
        #: are buffered under the lock and appended after release.
        self.journal = journal
        self._journal_pending: List[Dict[str, object]] = []
        self._lock = threading.Lock()
        #: Wakes lease requests blocked on an empty queue.
        self._work = threading.Condition(self._lock)
        self._workers: Dict[str, WorkerInfo] = {}
        self._tasks: Dict[str, Task] = {}
        self._queue: Deque[Task] = deque()
        self._leases: Dict[str, Lease] = {}
        self._worker_serial = 0
        self._lease_serial = 0
        #: The lease audit log: every issue/complete/expiry/steal/
        #: takeover, most recent last (bounded).
        self.events: Deque[Dict[str, object]] = deque(maxlen=_MAX_EVENTS)
        self.counters: Dict[str, int] = {
            "cluster_workers_registered_total": 0,
            "cluster_workers_lost_total": 0,
            "cluster_heartbeats_total": 0,
            "cluster_leases_issued_total": 0,
            "cluster_leases_completed_total": 0,
            "cluster_leases_expired_total": 0,
            "cluster_leases_reissued_total": 0,
            "cluster_cells_stolen_total": 0,
            "cluster_results_stale_total": 0,
            "cluster_trace_serves_total": 0,
        }

    #: Scheduler events the journal records (enough to restore serial
    #: high-water marks and the clock epoch on recovery; heartbeats are
    #: deliberately not journaled — they are liveness, not state).
    _JOURNALED_EVENTS = frozenset(
        {
            "register",
            "deregister",
            "worker_lost",
            "issue",
            "lease_expired",
            "steal",
            "complete",
        }
    )

    # Clock -------------------------------------------------------------
    def now(self) -> float:
        """Scheduler time: epoch-based monotonic seconds.

        Monotonic across restarts *of this scheduler* (via
        :meth:`restore`), which is what lease deadlines and worker TTLs
        are compared against."""
        return self._epoch + (self._raw_clock() - self._base)

    # Bookkeeping -------------------------------------------------------
    def _log(self, event: str, **attrs) -> None:
        # Callers hold the lock.  The audit log mirrors into the span
        # stream so takeovers show up next to the tasks they re-run.
        entry: Dict[str, object] = {"event": event}
        entry.update(attrs)
        self.events.append(entry)
        if self.journal is not None and event in self._JOURNALED_EVENTS:
            record: Dict[str, object] = {"ev": event, "t": self.now()}
            for key in ("worker", "lease"):
                value = attrs.get(key)
                if isinstance(value, str):
                    record[key] = value
            self._journal_pending.append(record)

    def _flush_journal(self) -> None:
        # Journal appends fsync and host a fault point, so buffered
        # records drain strictly outside the scheduler lock.
        if self.journal is None:
            return
        with self._lock:
            pending, self._journal_pending = self._journal_pending, []
        for record in pending:
            self.journal.append_safe("sched", **record)

    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def log_events(self, event: Optional[str] = None) -> List[Dict]:
        """A snapshot of the audit log (optionally one event kind)."""
        with self._lock:
            entries = list(self.events)
        if event is None:
            return entries
        return [entry for entry in entries if entry["event"] == event]

    # Worker registry ---------------------------------------------------
    def register(
        self,
        name: str = "worker",
        pid: Optional[int] = None,
        host: Optional[str] = None,
        local: bool = False,
    ) -> Dict:
        """Register a worker; returns its id and the fabric's timing
        contract (heartbeat cadence, lease deadline).  ``local`` marks a
        worker whose liveness is its pipe, not its heartbeats."""
        from repro.obs import tracing

        now = self.now()
        with self._lock:
            self._worker_serial += 1
            worker_id = f"w-{self._worker_serial:04d}"
            self._workers[worker_id] = WorkerInfo(
                id=worker_id,
                name=str(name),
                pid=pid,
                host=host,
                registered=now,
                last_seen=now,
                local=local,
            )
            self._count("cluster_workers_registered_total")
            self._log("register", worker=worker_id, name=str(name))
        self._flush_journal()
        tracing.event("cluster_worker_registered", worker=worker_id)
        return {
            "schema": WORKER_SCHEMA,
            "worker_id": worker_id,
            "heartbeat_seconds": round(self.worker_ttl / 3.0, 3),
            "lease_seconds": self.lease_timeout,
        }

    def heartbeat(self, worker_id: str) -> Dict:
        """Refresh a worker's liveness clock.  ``known: false`` tells a
        forgotten worker (coordinator restart, TTL expiry) to
        re-register."""
        from repro.faults.sites import fault_point

        fault_point("cluster.heartbeat")
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None:
                return {"schema": WORKER_SCHEMA, "known": False}
            worker.last_seen = self.now()
            self._count("cluster_heartbeats_total")
        return {"schema": WORKER_SCHEMA, "known": True}

    def deregister(self, worker_id: str, cause: Optional[str] = None) -> bool:
        """Drop a worker and re-queue anything it still held.

        Without ``cause`` this is a graceful goodbye (worker SIGTERM):
        the worker finished its in-flight task first, so the leases it
        hands back never ran and keep their attempts.  With one, the
        worker was lost (a local child's pipe closed) and ``cause`` is
        what its leases' attempts died of."""
        with self._lock:
            worker = self._workers.pop(worker_id, None)
            if worker is None:
                return False
            if cause is None:
                self._log("deregister", worker=worker_id)
            else:
                self._count("cluster_workers_lost_total")
                self._log("worker_lost", worker=worker_id, cause=cause)
            self._requeue_worker_leases(
                worker, cause or "worker deregistered", spent=cause is not None
            )
            # A lease request the worker has blocked learns it is gone.
            self._work.notify_all()
        self._flush_journal()
        return True

    def live_worker_count(self) -> int:
        """Workers inside their TTL right now (local workers always)."""
        now = self.now()
        with self._lock:
            return sum(
                1
                for worker in self._workers.values()
                if worker.local or now - worker.last_seen <= self.worker_ttl
            )

    def workers_view(self) -> Dict:
        """The ``GET /v1/workers`` body: fabric topology + queue state."""
        now = self.now()
        with self._lock:
            workers = [
                {
                    "id": worker.id,
                    "name": worker.name,
                    "pid": worker.pid,
                    "host": worker.host,
                    "age_seconds": round(now - worker.registered, 3),
                    "idle_seconds": round(now - worker.last_seen, 3),
                    "leases": len(worker.lease_ids),
                    "completed": worker.completed,
                }
                for worker in self._workers.values()
            ]
            return {
                "schema": WORKERS_SCHEMA,
                "workers": workers,
                "pending_cells": len(self._queue),
                "leased_cells": len(self._leases),
                "events_total": len(self.events),
            }

    # Task transitions (lock held) --------------------------------------
    def _fail(self, task: Task, error: str) -> None:
        task.state = FAILED
        task.error = error
        self._log("task_failed", task=task.key, error=error)
        task.event.set()

    def _requeue_task(
        self, task: Task, worker: str, cause: str, spent: bool = True
    ) -> None:
        # Front of the queue: a takeover should run before fresh work so
        # the stalled run unblocks first.  A task whose last attempt
        # just died fails instead; an attempt that never ran (``spent``
        # false) is handed back.
        if task.state != LEASED:
            return
        task.lease = None
        if not spent:
            task.attempts -= 1
        elif task.attempts >= self.max_attempts:
            self._fail(task, f"{cause} (gave up after {task.attempts} attempts)")
            return
        task.state = PENDING
        self._queue.appendleft(task)
        self._work.notify_all()
        self._count("cluster_leases_reissued_total")
        self._log(
            "reissue", task=task.key, worker=worker, reason=cause,
            attempt=task.attempts,
        )

    def _requeue_worker_leases(
        self, worker: WorkerInfo, cause: str, spent: bool = True
    ) -> None:
        for lease_id in sorted(worker.lease_ids):
            lease = self._leases.pop(lease_id, None)
            if lease is not None:
                self._requeue_task(lease.task, worker.id, cause, spent)
        worker.lease_ids.clear()

    # Reaping -----------------------------------------------------------
    def reap(self) -> None:
        """Expire silent remote workers and overdue leases; re-queue
        their tasks.  Called from lease requests and the dispatchers'
        wait loop, so liveness never depends on a dedicated timer
        thread."""
        from repro.obs import tracing

        lost: List[str] = []
        expired: List[str] = []
        now = self.now()
        with self._lock:
            for worker_id in sorted(self._workers):
                worker = self._workers[worker_id]
                if not worker.local and now - worker.last_seen > self.worker_ttl:
                    lost.append(worker_id)
                    self._count("cluster_workers_lost_total")
                    self._log(
                        "worker_lost", worker=worker_id,
                        idle=round(now - worker.last_seen, 3),
                    )
                    self._requeue_worker_leases(worker, "worker lost")
                    del self._workers[worker_id]
            for lease_id in sorted(self._leases):
                lease = self._leases[lease_id]
                if lease.deadline is not None and lease.deadline < now:
                    expired.append(lease_id)
                    self._count("cluster_leases_expired_total")
                    self._log(
                        "lease_expired", lease=lease_id, task=lease.task.key,
                        worker=lease.worker_id,
                    )
                    holder = self._workers.get(lease.worker_id)
                    if holder is not None:
                        holder.lease_ids.discard(lease_id)
                    del self._leases[lease_id]
                    self._requeue_task(
                        lease.task, lease.worker_id,
                        f"timed out after {self.lease_timeout:.1f}s",
                    )
        self._flush_journal()
        for worker_id in lost:
            tracing.event("cluster_takeover", worker=worker_id, cause="worker_lost")
        for lease_id in expired:
            tracing.event("cluster_takeover", lease=lease_id, cause="lease_expired")

    # Leasing -----------------------------------------------------------
    def _steal(self, thief_id: str) -> Optional[Task]:
        # Lock held.  Revoke the youngest lease of the most-loaded
        # *other* worker — but never its last one, so stealing converges
        # instead of ping-ponging a single task between idle workers.
        victim: Optional[WorkerInfo] = None
        for worker in self._workers.values():
            if worker.id == thief_id or len(worker.lease_ids) < 2:
                continue
            if victim is None or len(worker.lease_ids) > len(victim.lease_ids):
                victim = worker
        if victim is None:
            return None
        lease_id = max(
            victim.lease_ids, key=lambda lid: (self._leases[lid].issued, lid)
        )
        lease = self._leases.pop(lease_id)
        victim.lease_ids.discard(lease_id)
        self._count("cluster_cells_stolen_total")
        self._log(
            "steal", task=lease.task.key, victim=victim.id, thief=thief_id,
            lease=lease_id,
        )
        return lease.task

    def _grant(self, worker: WorkerInfo, max_leases: int) -> List[Dict]:
        # Lock held.  Pending tasks first; an empty queue triggers work
        # stealing (one task).
        now = self.now()
        tasks: List[Task] = []
        while self._queue and len(tasks) < max_leases:
            tasks.append(self._queue.popleft())
        if not tasks:
            stolen = self._steal(worker.id)
            if stolen is not None:
                tasks.append(stolen)
        grants = []
        for task in tasks:
            task.state = LEASED
            task.attempts += 1
            self._lease_serial += 1
            lease = Lease(
                id=f"lease-{self._lease_serial:06d}",
                task=task,
                worker_id=worker.id,
                issued=now,
                deadline=(
                    None if self.lease_timeout is None
                    else now + self.lease_timeout
                ),
            )
            task.lease = lease.id
            self._leases[lease.id] = lease
            worker.lease_ids.add(lease.id)
            self._count("cluster_leases_issued_total")
            self._log(
                "issue", lease=lease.id, task=task.key, worker=worker.id,
                attempt=task.attempts,
            )
            grants.append(
                {
                    "lease_id": lease.id,
                    "attempt": task.attempts,
                    "deadline_seconds": self.lease_timeout,
                    "spec": task.spec,
                }
            )
        return grants

    def lease(
        self, worker_id: str, max_leases: int = 1, wait: float = 0.0
    ) -> Dict:
        """Grant up to ``max_leases`` tasks to ``worker_id``.

        With nothing to grant, the request blocks for up to ``wait``
        seconds (capped at the worker TTL) until work arrives, so an
        idle worker re-asks at once instead of sleeping between polls.
        An unknown worker gets ``known: false`` and should re-register.
        """
        from repro.faults.sites import fault_point

        fault_point("cluster.lease")
        self.reap()
        max_leases = max(1, int(max_leases))
        give_up = time.monotonic() + min(max(0.0, float(wait)), self.worker_ttl)
        with self._lock:
            while True:
                worker = self._workers.get(worker_id)
                if worker is None:
                    return {"schema": LEASE_SCHEMA, "known": False, "leases": []}
                worker.last_seen = self.now()
                grants = self._grant(worker, max_leases)
                remaining = give_up - time.monotonic()
                if grants or remaining <= 0:
                    break
                self._work.wait(remaining)
        self._flush_journal()
        if grants and self.registry is not None:
            self.registry.counter("worker_attempts_total").inc(len(grants))
        return {"schema": LEASE_SCHEMA, "known": True, "leases": grants}

    def lease_live(self, lease_id: str) -> bool:
        """Whether ``lease_id`` is still granted (not completed, expired,
        stolen or withdrawn)."""
        with self._lock:
            return lease_id in self._leases

    # Results -----------------------------------------------------------
    def _publish(self, task: Task) -> None:
        # The store put lands before the event fires, so a run that sees
        # the task done can serve its key at once.
        if self.store is not None:
            # The cluster-wide memo: identical bytes to a local run's
            # stored result, under the identical key.
            task.stored = self.store.put(task.key, payload_bytes(task.payload))
        task.event.set()

    def complete(
        self,
        lease_id: str,
        worker_id: str,
        payload: object = None,
        error: Optional[str] = None,
    ) -> Dict:
        """Ingest one pushed result: a payload, or the ``error`` the
        worker's run raised, which fails the task without a retry.

        Stale pushes (expired/stolen/withdrawn/unknown leases, id
        mismatches) are acknowledged and dropped — the authoritative
        copy either exists already or is owed by a newer lease.  A
        payload that does not match the leased spec re-queues the task.
        """
        from repro.faults.sites import fault_point

        fault_point("cluster.result")
        with self._lock:
            lease = self._leases.get(lease_id)
            if lease is None or lease.worker_id != worker_id:
                self._count("cluster_results_stale_total")
                self._log("stale_result", lease=lease_id, worker=worker_id)
                return {"accepted": False, "stale": True}
            del self._leases[lease_id]
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.lease_ids.discard(lease_id)
                worker.last_seen = self.now()
            task = lease.task
            task.lease = None
            if error is not None:
                self._fail(task, str(error))
                return {"accepted": True, "stale": False}
            if not valid_payload(task.spec, payload):
                self._count("cluster_results_stale_total")
                self._log(
                    "rejected_result", lease=lease_id, task=task.key,
                    worker=worker_id,
                )
                self._requeue_task(task, worker_id, "rejected result")
                return {"accepted": False, "stale": False}
            task.state = DONE
            task.payload = payload  # type: ignore[assignment]
            self._count("cluster_leases_completed_total")
            if worker is not None:
                worker.completed += 1
            self._log("complete", task=task.key, source=worker_id)
        self._flush_journal()
        self._publish(task)
        return {"accepted": True, "stale": False}

    # Trace sharding ----------------------------------------------------
    def trace_entry_bytes(self, workload: str, input_name: str) -> bytes:
        """The enveloped trace-cache entry for one ``(workload,
        input)`` — what ``GET /v1/traces/<workload>/<input>`` serves.

        Served verbatim from the coordinator's content-addressed cache
        (envelope intact, so the fetching worker re-verifies the sha256
        before persisting).  With disk persistence off, the entry is
        synthesised and enveloped on the fly.
        """
        from repro.engine.trace_cache import default_trace_cache

        cache = default_trace_cache()
        if cache is not None:
            path = cache.ensure(workload, input_name)
            blob = path.read_bytes()
        else:
            from repro.common.integrity import wrap
            from repro.trace.io import trace_to_bytes
            from repro.workloads.registry import get_workload

            trace = get_workload(workload).generate_trace(input_name)
            blob = wrap(zlib.compress(trace_to_bytes(trace), 6))
        with self._lock:
            self._count("cluster_trace_serves_total")
        return blob

    # Execution ---------------------------------------------------------
    def _acquire(self, work: Sequence[Tuple[str, Dict]]) -> List[Task]:
        """The tasks for ``(key, spec)`` pairs, one waiter each: shared
        with other runs where the key is already owed, answered from
        the result store where it is resident, queued otherwise."""
        tasks: List[Task] = []
        fresh: List[Task] = []
        with self._lock:
            for key, spec in work:
                task = self._tasks.get(key)
                if task is None:
                    task = self._tasks[key] = Task(key, spec)
                    fresh.append(task)
                task.waiters += 1
                tasks.append(task)
        # Store lookups happen outside the lock (disk IO); fresh tasks
        # are in no queue yet, so nothing can lease them meanwhile.  A
        # peek: the memo probe is no client read, so it feeds neither
        # the admission sketch nor the hit/miss counters.  An entry
        # that is no result of its task's spec is quarantined by the
        # decoder and the task queued.
        stored = {
            task.key: self.store.peek(
                task.key, partial(decode_payload, task.spec)
            )
            if self.store is not None
            else None
            for task in fresh
        }
        with self._lock:
            for task in fresh:
                payload = stored[task.key]
                if payload is not None:
                    task.state = DONE
                    task.payload = payload
                    task.stored = True
                    self._log("complete", task=task.key, source="store")
                    task.event.set()
                else:
                    self._queue.append(task)
            self._work.notify_all()
        self._flush_journal()
        return tasks

    def _release(self, tasks: Sequence[Task]) -> None:
        """A run stopped waiting on ``tasks``: forget every task no other
        run awaits, withdrawing unfinished ones from the queue and from
        their lease holders."""
        with self._lock:
            for task in tasks:
                task.waiters -= 1
                if task.waiters > 0:
                    continue
                if self._tasks.get(task.key) is task:
                    del self._tasks[task.key]
                if task.state == PENDING:
                    try:
                        self._queue.remove(task)
                    except ValueError:
                        pass
                elif task.state == LEASED:
                    lease = self._leases.pop(task.lease or "", None)
                    if lease is not None:
                        holder = self._workers.get(lease.worker_id)
                        if holder is not None:
                            holder.lease_ids.discard(lease.id)
                    self._log("withdraw", task=task.key, lease=task.lease)

    def _wait(
        self,
        tasks: Sequence[Task],
        progress=None,
        should_cancel=None,
        attempts: Optional[AttemptHook] = None,
    ) -> None:
        """Block until every task is done; raises :class:`TaskFailed` as
        soon as one fails and :class:`RunCancelled` when
        ``should_cancel()`` turns true."""
        total = len(tasks)
        reported = -1
        highest = 0
        while True:
            if attempts is not None:
                top = max((task.attempts for task in tasks), default=0)
                if top > highest:
                    highest = top
                    attempts(top)
            done = 0
            for task in tasks:
                if task.event.is_set():
                    if task.state == FAILED:
                        raise TaskFailed(task.error)
                    done += 1
            if progress is not None and done != reported:
                progress(done, total)
                reported = done
            if done == total:
                return
            if should_cancel is not None and should_cancel():
                raise RunCancelled(f"cancelled after {done}/{total} tasks")
            self.reap()
            for task in tasks:
                if not task.event.is_set():
                    task.event.wait(_TICK)
                    break

    def run_cells(
        self,
        cells: Sequence[SimCell],
        progress=None,
        should_cancel=None,
        store=None,
        attempts: Optional[AttemptHook] = None,
    ) -> List[CellResult]:
        """Execute cells as tasks; results in input order.

        Fits the engine's :data:`~repro.engine.runner.CellExecutor`
        hook; ``store`` is ignored, since workers replay cells on their
        own trace stores.  Cells resolve through the result store, an
        in-flight shared task or a worker lease, and every worker runs
        :func:`repro.engine.cells.run_cell`, so the merged results are
        bit-identical to a local run.
        """
        specs = [cell_spec(cell) for cell in cells]
        tasks = self._acquire([(result_key(spec), spec) for spec in specs])
        try:
            self._wait(tasks, progress, should_cancel, attempts)
            return [
                cell_result(cell, task.payload)
                for cell, task in zip(cells, tasks)
            ]
        finally:
            self._release(tasks)

    def run_spec(
        self,
        spec: Dict,
        key: str,
        progress=None,
        should_cancel=None,
        attempts: Optional[AttemptHook] = None,
    ) -> Tuple[Dict, Optional[bool]]:
        """Run one normalised job spec; returns ``(payload, stored)``.

        A grid experiment runs through the engine with this scheduler
        as its cell executor — planned, its cells fanned out as tasks,
        merged in plan order — and the merged payload is offered to the
        store under ``key``.  Any other spec is one task keyed ``key``,
        so its store put is the task's own.
        """
        if spec["type"] == "experiment":
            from repro.experiments.registry import get_experiment
            from repro.experiments.render import experiment_payload

            experiment = get_experiment(spec["experiment_id"])
            if experiment.plan_cells(spec["fast"]) is not None:
                result = experiment.run_with_engine(
                    fast=spec["fast"],
                    progress=progress,
                    should_cancel=should_cancel,
                    executor=partial(self.run_cells, attempts=attempts),
                )
                payload = experiment_payload(result)
                stored = None
                if self.store is not None:
                    stored = self.store.put(key, payload_bytes(payload))
                return payload, stored
        tasks = self._acquire([(key, spec)])
        try:
            self._wait(tasks, progress, should_cancel, attempts)
            return tasks[0].payload, tasks[0].stored
        finally:
            self._release(tasks)

    # Durability --------------------------------------------------------
    def restore(
        self,
        worker_serial: int = 0,
        lease_serial: int = 0,
        epoch: float = 0.0,
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        """Re-base this scheduler on recovered control-plane state
        (startup only, before any worker traffic).

        The serial high-water marks guarantee post-restart worker and
        lease ids never collide with ids pre-crash workers still hold —
        a stale ``w-0002`` pushing against a dead ``lease-000007`` is
        acknowledged stale instead of corrupting a fresh grant.  The
        clock epoch re-bases :meth:`now` past the highest pre-crash
        reading, so TTL and deadline arithmetic stays monotonic across
        the restart.  Pre-crash leases and workers are deliberately
        *not* recreated: their leases are dead by definition, and the
        workers re-register through their heartbeat ``known: false``
        loop.
        """
        with self._lock:
            self._worker_serial = max(self._worker_serial, int(worker_serial))
            self._lease_serial = max(self._lease_serial, int(lease_serial))
            if counters:
                for name in self.counters:
                    if name in counters:
                        self.counters[name] = int(counters[name])
            # Re-base past BOTH the recovered epoch and whatever this
            # incarnation's clock already read — now() must never rewind.
            raw = self._raw_clock()
            elapsed = self._epoch + (raw - self._base)
            self._base = raw
            self._epoch = max(elapsed, float(epoch))

    def snapshot_state(self) -> Dict:
        """The scheduler's contribution to the journal snapshot."""
        with self._lock:
            return {
                "worker_serial": self._worker_serial,
                "lease_serial": self._lease_serial,
                "epoch": self.now(),
                "counters": dict(self.counters),
            }

    # Observability -----------------------------------------------------
    def metric_samples(self) -> Dict[str, Dict[str, object]]:
        """The scheduler's ``cluster_*`` entries for ``/v1/metrics``."""
        live = self.live_worker_count()
        with self._lock:
            samples: Dict[str, Dict[str, object]] = {
                name: {"type": "counter", "value": value}
                for name, value in self.counters.items()
            }
            samples["cluster_workers"] = {"type": "gauge", "value": live}
            samples["cluster_pending_cells"] = {
                "type": "gauge",
                "value": len(self._queue),
            }
            samples["cluster_leased_cells"] = {
                "type": "gauge",
                "value": len(self._leases),
            }
        return samples
