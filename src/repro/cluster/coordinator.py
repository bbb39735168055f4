"""Coordinator-side cluster state: leases, liveness, work stealing.

:class:`ClusterScheduler` is the fabric's brain.  It tracks registered
workers (heartbeat-refreshed, TTL-expired), keeps the queue of pending
cell tasks, grants time-bounded **leases** over them, and folds pushed
results back into plan-ordered :class:`~repro.engine.cells.CellResult`
lists.  :class:`ClusterExecutor` is the thin thread layer that claims
``cluster``-lane jobs from the service's :class:`~repro.service.jobs
.JobQueue` and drives whole specs through the scheduler.

Failure model (see ``docs/CLUSTER.md``):

* **worker loss** — a worker that stops heartbeating past its TTL is
  dropped and every lease it held is re-queued (front of the queue, so
  takeovers run first);
* **lease expiry** — a lease older than the lease timeout is revoked
  and its cell re-queued even while the holder still heartbeats (a
  hung simulation on a live worker);
* **work stealing** — a worker that asks for work while the queue is
  drained steals the youngest lease from the most-loaded worker
  (holders keep at least one), rebalancing batch skew;
* **retry budget + local fallback** — a cell whose lease was issued
  ``max_attempts`` times stops being offered to workers and is
  computed by the coordinator itself; the same fallback engages when
  no live workers remain.  The fabric therefore *always* terminates
  with exactly the payload a local run produces.

Every one of those transitions is appended to :attr:`ClusterScheduler
.events` — the lease audit log — and counted in the ``cluster_*``
metrics (``/v1/metrics``).  Duplicated computation from stale leases
is harmless by design: cells are deterministic, so any copy of a cell
produces the same bytes, and stale pushes are acknowledged-and-ignored.
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set

from repro.engine.cells import CellResult, SimCell, run_cell
from repro.engine.runner import RunCancelled
from repro.service.api import CELL_SCHEMA, cell_payload, payload_bytes
from repro.cluster.protocol import (
    DEFAULT_LEASE_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_WORKER_TTL_SECONDS,
    LEASE_SCHEMA,
    WORKER_SCHEMA,
    WORKERS_SCHEMA,
    cell_fields,
    cell_task_key,
)

#: Task states.
PENDING = "pending"
LEASED = "leased"
LOCAL = "local"
DONE = "done"

#: The audit log keeps this many most-recent events.
_MAX_EVENTS = 4096


class CellTask:
    """One cell the fabric owes somebody an answer for.

    Tasks are keyed by :func:`~repro.cluster.protocol.cell_task_key`,
    so concurrent runs needing the same cell share one task (and one
    computation).  ``event`` fires exactly once, when the task reaches
    ``done``; ``payload`` then holds the ``repro.cell/1`` dict.
    """

    __slots__ = ("key", "cell", "state", "attempts", "payload", "event")

    def __init__(self, key: str, cell: SimCell) -> None:
        self.key = key
        self.cell = cell
        self.state = PENDING
        self.attempts = 0
        self.payload: Optional[Dict] = None
        self.event = threading.Event()


@dataclass
class Lease:
    """One time-bounded grant of one task to one worker."""

    id: str
    task: CellTask
    worker_id: str
    issued: float
    deadline: float


@dataclass
class WorkerInfo:
    """Coordinator-side view of one registered worker."""

    id: str
    name: str
    pid: Optional[int]
    host: Optional[str]
    registered: float
    last_seen: float
    completed: int = 0
    lease_ids: Set[str] = field(default_factory=set)


class ClusterScheduler:
    """Worker registry + lease table + pending-cell queue.

    Thread-safe: HTTP handler threads (register/heartbeat/lease/
    result), executor threads (:meth:`run_cells`) and the reaper logic
    all serialise on one lock; cell simulation and store IO happen
    outside it.  The clock is injectable (monotonic seconds) so lease
    expiry is unit-testable without sleeping.
    """

    def __init__(
        self,
        store=None,
        registry=None,
        lease_timeout: float = DEFAULT_LEASE_SECONDS,
        worker_ttl: float = DEFAULT_WORKER_TTL_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        clock: Callable[[], float] = time.monotonic,
        journal=None,
    ) -> None:
        #: Optional :class:`repro.service.result_store.ResultStore`;
        #: consulted before leasing and offered every completed cell,
        #: which is what makes results cluster-wide.
        self.store = store
        #: Optional :class:`repro.obs.MetricsRegistry` (kept for
        #: symmetry; the owning service merges :meth:`metric_samples`
        #: into its own view instead).
        self.registry = registry
        self.lease_timeout = lease_timeout
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
        self._workers: Dict[str, WorkerInfo] = {}
        self._tasks: Dict[str, CellTask] = {}
        self._queue: Deque[CellTask] = deque()
        #: Tasks past their lease budget, reserved for local fallback.
        self._exhausted: Deque[CellTask] = deque()
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
            "cluster_local_fallback_total": 0,
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
        # stream so takeovers show up next to the cells they re-run.
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
    ) -> Dict:
        """Register a worker; returns its id and the fabric's timing
        contract (heartbeat cadence, lease deadline)."""
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

    def deregister(self, worker_id: str) -> bool:
        """Graceful goodbye (worker SIGTERM): drop the worker and
        re-queue anything it still held."""
        with self._lock:
            worker = self._workers.pop(worker_id, None)
            if worker is None:
                return False
            self._log("deregister", worker=worker_id)
            self._requeue_worker_leases(worker, reason="deregister")
        self._flush_journal()
        return True

    def live_worker_count(self) -> int:
        """Workers inside their TTL right now."""
        now = self.now()
        with self._lock:
            return sum(
                1
                for worker in self._workers.values()
                if now - worker.last_seen <= self.worker_ttl
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
                "pending_cells": len(self._queue) + len(self._exhausted),
                "leased_cells": len(self._leases),
                "events_total": len(self.events),
            }

    # Reaping -----------------------------------------------------------
    def _requeue_task(self, task: CellTask, reason: str, worker: str) -> None:
        # Lock held.  Front of the queue: a takeover should run before
        # fresh work so the stalled run unblocks first.
        if task.state != LEASED:
            return
        task.state = PENDING
        self._queue.appendleft(task)
        self._count("cluster_leases_reissued_total")
        self._log(
            "reissue", task=task.key, worker=worker, reason=reason,
            attempt=task.attempts,
        )

    def _requeue_worker_leases(self, worker: WorkerInfo, reason: str) -> None:
        # Lock held.
        for lease_id in sorted(worker.lease_ids):
            lease = self._leases.pop(lease_id, None)
            if lease is not None:
                self._requeue_task(lease.task, reason=reason, worker=worker.id)
        worker.lease_ids.clear()

    def reap(self) -> None:
        """Expire silent workers and overdue leases; re-queue their
        cells.  Called from lease requests and the executor wait loop,
        so liveness never depends on a dedicated timer thread."""
        from repro.obs import tracing

        lost: List[str] = []
        expired: List[str] = []
        now = self.now()
        with self._lock:
            for worker_id in sorted(self._workers):
                worker = self._workers[worker_id]
                if now - worker.last_seen > self.worker_ttl:
                    lost.append(worker_id)
                    self._count("cluster_workers_lost_total")
                    self._log(
                        "worker_lost", worker=worker_id,
                        idle=round(now - worker.last_seen, 3),
                    )
                    self._requeue_worker_leases(worker, reason="worker_lost")
                    del self._workers[worker_id]
            for lease_id in sorted(self._leases):
                lease = self._leases[lease_id]
                if lease.deadline < now:
                    expired.append(lease_id)
                    self._count("cluster_leases_expired_total")
                    self._log(
                        "lease_expired", lease=lease_id, task=lease.task.key,
                        worker=lease.worker_id,
                    )
                    holder = self._workers.get(lease.worker_id)
                    if holder is not None:
                        holder.lease_ids.discard(lease_id)
                    self._requeue_task(
                        lease.task, reason="lease_expired",
                        worker=lease.worker_id,
                    )
                    del self._leases[lease_id]
        self._flush_journal()
        for worker_id in lost:
            tracing.event("cluster_takeover", worker=worker_id, cause="worker_lost")
        for lease_id in expired:
            tracing.event("cluster_takeover", lease=lease_id, cause="lease_expired")

    # Leasing -----------------------------------------------------------
    def _pop_grantable(self) -> Optional[CellTask]:
        # Lock held.  Skip stale queue entries and divert tasks past
        # their lease budget to the local-fallback lane.
        while self._queue:
            task = self._queue.popleft()
            if task.state != PENDING:
                continue
            if task.attempts >= self.max_attempts:
                self._exhausted.append(task)
                self._log("lease_budget_exhausted", task=task.key)
                continue
            return task
        return None

    def _steal(self, thief_id: str) -> Optional[CellTask]:
        # Lock held.  Revoke the youngest lease of the most-loaded
        # *other* worker — but never its last one, so stealing converges
        # instead of ping-ponging a single cell between idle workers.
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
        lease.task.state = PENDING
        self._count("cluster_cells_stolen_total")
        self._log(
            "steal", task=lease.task.key, victim=victim.id, thief=thief_id,
            lease=lease_id,
        )
        return lease.task

    def lease(self, worker_id: str, max_leases: int = 1) -> Dict:
        """Grant up to ``max_leases`` cells to ``worker_id``.

        An empty queue triggers work stealing (one cell).  An unknown
        worker gets ``known: false`` and should re-register.
        """
        from repro.faults.sites import fault_point

        fault_point("cluster.lease")
        self.reap()
        max_leases = max(1, int(max_leases))
        now = self.now()
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None:
                return {"schema": LEASE_SCHEMA, "known": False, "leases": []}
            worker.last_seen = now
            granted: List[CellTask] = []
            while len(granted) < max_leases:
                task = self._pop_grantable()
                if task is None:
                    break
                granted.append(task)
            if not granted:
                stolen = self._steal(worker_id)
                if stolen is not None:
                    granted.append(stolen)
            leases = []
            for task in granted:
                task.state = LEASED
                task.attempts += 1
                self._lease_serial += 1
                lease = Lease(
                    id=f"lease-{self._lease_serial:06d}",
                    task=task,
                    worker_id=worker_id,
                    issued=now,
                    deadline=now + self.lease_timeout,
                )
                self._leases[lease.id] = lease
                worker.lease_ids.add(lease.id)
                self._count("cluster_leases_issued_total")
                self._log(
                    "issue", lease=lease.id, task=task.key, worker=worker_id,
                    attempt=task.attempts,
                )
                leases.append(
                    {
                        "lease_id": lease.id,
                        "attempt": task.attempts,
                        "deadline_seconds": self.lease_timeout,
                        "cell": cell_fields(task.cell),
                    }
                )
        self._flush_journal()
        return {"schema": LEASE_SCHEMA, "known": True, "leases": leases}

    # Results -----------------------------------------------------------
    def _valid_payload(self, task: CellTask, payload: object) -> bool:
        return (
            isinstance(payload, dict)
            and payload.get("schema") == CELL_SCHEMA
            and payload.get("cell") == cell_fields(task.cell)
            and isinstance(payload.get("stats"), dict)
            and isinstance(payload.get("extras"), dict)
        )

    def _finish_task(
        self, task: CellTask, payload: Dict, source: str
    ) -> None:
        offer = False
        with self._lock:
            if task.state != DONE:
                task.state = DONE
                task.payload = payload
                self._log("complete", task=task.key, source=source)
                offer = True
        task.event.set()
        self._flush_journal()
        if offer and self.store is not None:
            # The cluster-wide memo: identical bytes to a local run's
            # stored result, under the identical key.
            self.store.put(task.key, payload_bytes(payload))

    def complete(self, lease_id: str, worker_id: str, payload: object) -> Dict:
        """Ingest one pushed cell result.

        Stale pushes (expired/stolen/unknown leases, id mismatches) are
        acknowledged and dropped — the authoritative copy either exists
        already or is owed by a newer lease.  A payload that does not
        match the leased cell re-queues the cell.
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
            if not self._valid_payload(task, payload):
                self._count("cluster_results_stale_total")
                self._log(
                    "rejected_result", lease=lease_id, task=task.key,
                    worker=worker_id,
                )
                self._requeue_task(task, reason="rejected_result", worker=worker_id)
                return {"accepted": False, "stale": False}
            self._count("cluster_leases_completed_total")
            if worker is not None:
                worker.completed += 1
        self._finish_task(task, payload, source=worker_id)
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
    def _task_for(self, cell: SimCell) -> CellTask:
        key = cell_task_key(cell)
        with self._lock:
            task = self._tasks.get(key)
            if task is not None:
                return task
            task = CellTask(key, cell)
            self._tasks[key] = task
        # Store lookup outside the lock (disk IO); racing creators are
        # impossible — the dict insert above is the only entry point
        # and runs under the lock.
        stored = self.store.get(key) if self.store is not None else None
        if stored is not None:
            self._finish_task(task, json.loads(stored), source="store")
            return task
        with self._lock:
            if task.state == PENDING:
                self._queue.append(task)
        return task

    def _claim_local(self) -> Optional[CellTask]:
        # A task past its lease budget is always ours; a pending task
        # is ours only when no live worker could take it.
        now = self.now()
        with self._lock:
            while self._exhausted:
                task = self._exhausted.popleft()
                if task.state == PENDING:
                    task.state = LOCAL
                    return task
            live = any(
                now - worker.last_seen <= self.worker_ttl
                for worker in self._workers.values()
            )
            if not live:
                while self._queue:
                    task = self._queue.popleft()
                    if task.state == PENDING:
                        task.state = LOCAL
                        return task
        return None

    def run_cells(
        self,
        cells: Sequence[SimCell],
        progress=None,
        should_cancel=None,
        store=None,
    ) -> List[CellResult]:
        """Execute cells across the fabric; results in input order.

        This is the engine's :data:`~repro.engine.runner.CellExecutor`
        hook.  Cells resolve through (in order): the result store, an
        in-flight shared task, a worker lease, or — when workers are
        gone or a cell's lease budget is spent — local computation in
        this thread.  Either way the cell runs through
        :func:`repro.engine.cells.run_cell` semantics, so the merged
        results are bit-identical to a local run.
        """
        tasks = [self._task_for(cell) for cell in cells]
        total = len(tasks)
        reported = -1
        while True:
            done = sum(1 for task in tasks if task.state == DONE)
            if progress is not None and done != reported:
                progress(done, total)
                reported = done
            if done == total:
                break
            if should_cancel is not None and should_cancel():
                raise RunCancelled(
                    f"cancelled after {done}/{total} cells"
                )
            self.reap()
            claimed = self._claim_local()
            if claimed is not None:
                self._run_local(claimed, store)
                continue
            for task in tasks:
                if task.state != DONE:
                    task.event.wait(0.05)
                    break
        return [self._result_for(task) for task in tasks]

    def _run_local(self, task: CellTask, store) -> None:
        from repro.obs import tracing

        with self._lock:
            self._count("cluster_local_fallback_total")
            self._log(
                "local_fallback", task=task.key, attempt=task.attempts,
            )
        tracing.event("cluster_local_fallback", task=task.key)
        if store is None:
            from repro.workloads.store import shared_store

            store = shared_store
        result = run_cell(task.cell, store)
        self._finish_task(task, cell_payload(result), source="local")

    @staticmethod
    def _result_for(task: CellTask) -> CellResult:
        payload = task.payload
        assert payload is not None  # task.state == DONE guarantees it
        # JSON round-trips preserve int vs float, so the dicts are the
        # originals bit-for-bit — no numeric coercion wanted here.
        return CellResult(
            cell=task.cell,
            stats=dict(payload["stats"]),
            extras=dict(payload["extras"]),
        )

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
                "value": len(self._queue) + len(self._exhausted),
            }
            samples["cluster_leased_cells"] = {
                "type": "gauge",
                "value": len(self._leases),
            }
        return samples


def execute_spec_cluster(
    spec: Dict,
    scheduler: ClusterScheduler,
    progress=None,
    should_cancel=None,
) -> Dict:
    """Run one normalised job spec through the cluster fabric.

    The cluster analogue of :func:`repro.service.api.execute_spec`:
    experiments decompose via ``plan_cells`` and fan their cells across
    workers through the scheduler's executor hook; single-cell specs
    lease directly.  Same payload bytes either way.
    """
    from repro.workloads.store import shared_store

    if spec["type"] == "experiment":
        from repro.experiments.registry import get_experiment
        from repro.experiments.render import experiment_payload

        experiment = get_experiment(spec["experiment_id"])
        result = experiment.run_with_engine(
            shared_store,
            fast=spec["fast"],
            jobs=1,
            progress=progress,
            should_cancel=should_cancel,
            executor=scheduler.run_cells,
        )
        return experiment_payload(result)
    if spec["type"] == "cell":
        from repro.cluster.protocol import cell_from_fields

        cell = cell_from_fields(
            {k: v for k, v in spec.items() if k != "type"}
        )
        results = scheduler.run_cells(
            [cell], progress=progress, should_cancel=should_cancel
        )
        return cell_payload(results[0])
    from repro.service.api import SpecError

    raise SpecError(f"cannot execute spec type {spec.get('type')!r}")


class ClusterExecutor:
    """Threads that claim ``cluster``-lane jobs and drive them through
    the scheduler.

    The local :class:`~repro.service.workers.WorkerPool` keeps its
    child-process isolation for the ``local`` lane; cluster jobs run in
    coordinator threads because the heavy lifting happens in remote
    worker processes anyway (and the local-fallback path is the same
    ``run_cell`` the pool's children execute).
    """

    def __init__(
        self,
        queue,
        scheduler: ClusterScheduler,
        on_done=None,
        dispatchers: int = 2,
        registry=None,
    ) -> None:
        if dispatchers <= 0:
            raise ValueError("cluster executor needs at least one dispatcher")
        self.queue = queue
        self.scheduler = scheduler
        self.on_done = on_done
        self.dispatchers = dispatchers
        self.registry = registry
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        self._draining = threading.Event()

    def start(self) -> "ClusterExecutor":
        """Spawn the dispatcher threads (idempotent)."""
        if self._threads:
            return self
        for index in range(self.dispatchers):
            thread = threading.Thread(
                target=self._loop,
                name=f"repro-cluster-dispatch-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, drain: bool = True, timeout: Optional[float] = None) -> None:
        """Stop dispatching; ``drain=True`` finishes accepted cluster
        jobs first (the SIGTERM path)."""
        from repro.service import jobs as jobstates

        if drain:
            self._draining.set()
        else:
            for job in self.queue.jobs():
                if job.lane == jobstates.CLUSTER_LANE and job.state in (
                    jobstates.QUEUED, jobstates.RUNNING,
                ):
                    job.cancel_event.set()
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout)
        self._threads = []
        if not drain:
            while self.queue.queue_depth(lane=jobstates.CLUSTER_LANE):
                self.queue.next_job(
                    timeout=0.01, lane=jobstates.CLUSTER_LANE
                )

    def _loop(self) -> None:
        from repro.service import jobs as jobstates

        while True:
            if self._stop.is_set():
                if not self._draining.is_set():
                    return
                if not self.queue.queue_depth(lane=jobstates.CLUSTER_LANE):
                    return
            job = self.queue.next_job(
                timeout=0.1, lane=jobstates.CLUSTER_LANE
            )
            if job is not None:
                self._execute(job)

    def _execute(self, job) -> None:
        from repro.common.errors import ReproError
        from repro.obs import tracing
        from repro.service import jobs as jobstates

        self.queue.note_attempt(job, 1)
        if self.registry is not None:
            self.registry.counter("worker_attempts_total").inc()

        def report(done: int, total: int) -> None:
            self.queue.note_progress(job, done, total)

        with tracing.span(
            "cluster.job",
            key=f"{job.result_key}#1",
            attrs={"job_id": job.id},
        ) as span:
            try:
                payload = execute_spec_cluster(
                    job.spec,
                    self.scheduler,
                    progress=report,
                    should_cancel=job.cancel_event.is_set,
                )
            except RunCancelled:
                if span is not None:
                    span.attrs["outcome"] = "cancelled"
                self.queue.finish(job, jobstates.CANCELLED)
                return
            except ReproError as exc:
                if span is not None:
                    span.attrs["outcome"] = "error"
                self.queue.finish(
                    job, jobstates.FAILED,
                    error=f"{type(exc).__name__}: {exc}",
                )
                return
            except Exception as exc:  # noqa: BLE001 - verdict, not handling
                if span is not None:
                    span.attrs["outcome"] = "error"
                self.queue.finish(
                    job, jobstates.FAILED,
                    error=f"{type(exc).__name__}: {exc}",
                )
                return
            if span is not None:
                span.attrs["outcome"] = "done"
        stored = None
        if self.on_done is not None:
            stored = self.on_done(job, payload)
        self.queue.finish(
            job, jobstates.DONE, payload=payload, stored=stored
        )
