"""The pipe transport: ``serve --workers K``'s local worker processes.

Each local worker is a forked child running the same
:func:`repro.cluster.worker.work_loop` as ``repro-fvc worker``, with a
:class:`PipeClient` in place of the HTTP client.  In the parent, one
:class:`LocalWorker` thread per child serves the child's calls by
calling the :class:`~repro.cluster.coordinator.ClusterScheduler`
directly, and supervises the child:

* the child holds one lease at a time, and for each grant the parent
  decides the ``worker.child`` fault the child applies before running
  it, so ``@1`` means the first attempt whichever child takes it;
* when the scheduler revokes the child's lease — its deadline passed,
  or a cancel withdrew its task — the child is killed;
* a child that exits (killed, crashed, faulted) closes its pipe: the
  worker is lost at once, its lease is re-issued within the task's
  attempt budget, and a fresh child is forked in its place;
* a child exits when its pipe closes, so a SIGKILLed ``serve`` leaves
  no idle workers behind;
* a child keeps no other descriptor of the serving process: forked
  from a multi-threaded server, it would otherwise hold the listening
  socket, in-flight connections and a concurrent ``subprocess.Popen``'s
  exec-status pipe for as long as it lives.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from typing import List, Optional, Set

from repro.cluster.protocol import WORKER_SCHEMA
from repro.faults.sites import decide_child_fault
from repro.service.client import ServiceError

#: Seconds between a supervisor's checks that its child's lease is
#: still granted.
_TICK = 0.05

#: Serialises pipe creation with fork, and guards :data:`_PARENT_ENDS`.
_SPAWN_LOCK = threading.Lock()

#: The parent end of every live local worker's pipe.  A forked child
#: closes them all (its own included), so each end is held by the parent
#: alone and a closed pipe means what it says in both directions.
_PARENT_ENDS: Set = set()


class PipeClient:
    """The :class:`~repro.service.client.ServiceClient` calls
    :func:`~repro.cluster.worker.work_loop` makes, over the child's end
    of its pipe.

    Only the loop's thread uses the pipe: heartbeats never cross it,
    since a local worker's liveness is the open pipe itself.
    """

    def __init__(self, conn) -> None:
        self._conn = conn

    def _call(self, method: str, *args):
        try:
            self._conn.send((method, args))
            ok, value = self._conn.recv()
        except (EOFError, OSError):
            # The parent is gone or stopped this worker.
            raise SystemExit(0) from None
        if not ok:
            raise ServiceError(value)
        return value

    def register_worker(self, name="worker", pid=None, host=None):
        return self._call("register", name, pid, host)

    def worker_heartbeat(self, worker_id):
        return {"schema": WORKER_SCHEMA, "known": True}

    def lease_cells(self, worker_id, max_leases=1, wait=0.0):
        return self._call("lease", worker_id, wait)

    def push_cell_result(self, lease_id, worker_id, payload=None, error=None):
        return self._call("complete", lease_id, worker_id, payload, error)

    def deregister_worker(self, worker_id):
        return self._call("deregister", worker_id)

    def fetch_trace_entry(self, workload, input_name):
        return self._call("trace", workload, input_name)


def _inherited_descriptors() -> List[int]:
    """This process's open descriptors, listed from ``/proc/self/fd``
    (or ``/dev/fd``); empty where neither can be listed."""
    for directory in ("/proc/self/fd", "/dev/fd"):
        try:
            names = os.listdir(directory)
        except OSError:
            continue
        open_fds = []
        for fd in map(int, names):
            try:
                os.fstat(fd)
            except OSError:
                continue  # the listing's own descriptor, closed by now
            open_fds.append(fd)
        return open_fds
    return []


def _drop_inherited(keep: int) -> None:
    """Point every inherited descriptor except 0/1/2 and ``keep`` at
    ``/dev/null``.

    ``dup2`` drops the references without freeing the numbers, so a
    Python object that still owns one of them can never close or write
    into a file the child opens later.
    """
    null = os.open(os.devnull, os.O_RDWR)
    try:
        for fd in _inherited_descriptors():
            if fd > 2 and fd not in (keep, null):
                os.dup2(null, fd, inheritable=False)
    finally:
        os.close(null)


def _child_main(conn, name: str, parent_ends) -> None:
    """A local worker process: the worker loop over ``conn``."""
    for end in parent_ends:
        end.close()
    _drop_inherited(conn.fileno())
    # Ctrl-C on ``serve`` reaches the whole process group; the parent
    # drains and then stops its children itself.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.cluster.worker import WorkerConfig, work_loop

    config = WorkerConfig(coordinator="the serving process", name=name, batch=1)
    work_loop(PipeClient(conn), config, threading.Event())


def _reap(process, grace: float = 1.0) -> None:
    """Give ``process`` ``grace`` seconds to exit, then kill it.

    Polls instead of ``process.join(grace)``: the child dropped its
    copy of multiprocessing's exit-sentinel pipe with every other
    inherited descriptor, so the sentinel no longer bounds a join.
    """
    deadline = time.monotonic() + grace
    while process.is_alive() and time.monotonic() < deadline:
        time.sleep(_TICK / 5)
    if process.is_alive():
        process.kill()
    process.join()


class LocalWorker:
    """One local worker process plus the parent thread that serves and
    supervises it, re-forking it whenever it exits."""

    def __init__(self, scheduler, name: str) -> None:
        self.scheduler = scheduler
        self.name = name
        self._ctx = multiprocessing.get_context("fork")
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        #: Guards the current child and its registration, which other
        #: threads read.
        self._lock = threading.Lock()
        self.process = None
        self.worker_id: Optional[str] = None

    def start(self) -> "LocalWorker":
        """Fork the first child here, in the caller's thread, so the
        fork cannot race whatever the caller does next (a concurrent
        ``subprocess.Popen`` would hand the child its exec-status pipe
        and block until the child exits)."""
        conn, process = self._spawn()
        self._thread = threading.Thread(
            target=self._supervise,
            args=(conn, process),
            name=f"repro-{self.name}",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = None) -> None:
        """Stop re-forking and end the child (callers drain first)."""
        self._stop.set()
        worker_id = self.worker_id
        if worker_id is not None:
            # Also wakes a lease request the child has blocked.
            self.scheduler.deregister(worker_id)
        if self._thread is not None:
            self._thread.join(timeout)

    # Parent thread -----------------------------------------------------
    def _spawn(self):
        with _SPAWN_LOCK:
            parent_end, child_end = self._ctx.Pipe()
            _PARENT_ENDS.add(parent_end)
            process = self._ctx.Process(
                target=_child_main,
                args=(child_end, self.name, list(_PARENT_ENDS)),
                name=f"repro-{self.name}",
                daemon=True,
            )
            process.start()
            child_end.close()
        return parent_end, process

    def _supervise(self, conn, process) -> None:
        while True:
            with self._lock:
                self.process = process
            killed = self._serve(conn, process)
            with _SPAWN_LOCK:
                _PARENT_ENDS.discard(conn)
            conn.close()
            _reap(process)
            with self._lock:
                worker_id, self.worker_id = self.worker_id, None
            if worker_id is None:
                # Died before registering: do not fork in a tight loop.
                self._stop.wait(1.0)
            else:
                cause = None
                if not (killed or self._stop.is_set()):
                    cause = f"worker process died (exit code {process.exitcode})"
                self.scheduler.deregister(worker_id, cause=cause)
            if self._stop.is_set():
                return
            conn, process = self._spawn()

    def _serve(self, conn, process) -> bool:
        """Serve the child's calls until its pipe closes or the worker
        stops; returns whether the child was killed for a revoked
        lease."""
        held: Optional[str] = None  # the child's one live lease
        while not self._stop.is_set():
            if not conn.poll(_TICK):
                if held is not None and not self.scheduler.lease_live(held):
                    process.kill()
                    return True
                continue
            try:
                method, args = conn.recv()
            except (EOFError, OSError):
                return False
            try:
                value = self._call(method, args)
                reply = (True, value)
            except Exception as exc:  # noqa: BLE001 - relayed to the child
                value, reply = None, (False, f"{type(exc).__name__}: {exc}")
            if method == "lease" and value and value["leases"]:
                held = value["leases"][0]["lease_id"]
            elif method == "complete":
                held = None
            try:
                conn.send(reply)
            except OSError:
                return False
        return False

    def _call(self, method: str, args):
        scheduler = self.scheduler
        if method == "register":
            name, pid, host = args
            grant = scheduler.register(name, pid, host, local=True)
            with self._lock:
                self.worker_id = grant["worker_id"]
            return grant
        if method == "lease":
            worker_id, wait = args
            grant = scheduler.lease(worker_id, max_leases=1, wait=wait)
            for lease in grant["leases"]:
                lease["fault"] = decide_child_fault()
            return grant
        if method == "complete":
            lease_id, worker_id, payload, error = args
            return scheduler.complete(lease_id, worker_id, payload, error=error)
        if method == "deregister":
            return {"removed": scheduler.deregister(*args)}
        if method == "trace":
            return scheduler.trace_entry_bytes(*args)
        raise ValueError(f"unknown local worker call {method!r}")
