"""The thin cluster worker: register, heartbeat, lease, compute, push.

``repro-fvc worker --coordinator URL`` runs :func:`run_worker`, and
each of ``serve --workers K``'s local worker processes runs the same
:func:`work_loop` over a pipe (:mod:`repro.cluster.pipe`): register
with the coordinator, heartbeat from a daemon thread, pull task leases
in small batches and run each leased spec through the one shared
:func:`repro.service.api.execute_spec` path on the worker's own trace
store — so a worker-computed result is bit-identical to a local run by
construction.  A run that raises is pushed as an ``error``: the
failure is deterministic, so the coordinator fails the task instead of
re-issuing it.

The worker is deliberately stateless: everything it needs travels over
the ``/v1`` protocol.  Missing workload traces resolve through
:class:`ClusterTraceCache` — local content-addressed cache first, then
a fetch of the coordinator's enveloped entry (integrity re-verified
before use and before persisting), then local synthesis as the final
fallback.  Transport failures lean on the PR-4 machinery: the client
is armed with a seeded-backoff :class:`~repro.service.resilience
.RetryPolicy` and a :class:`~repro.service.resilience.CircuitBreaker`,
and anything that still escapes is treated as transient — the worker
waits and re-polls, and the coordinator's lease deadline covers the
tasks it was holding.

SIGTERM/SIGINT finish the in-flight task, push its result, deregister,
and exit; SIGKILL is the case the lease protocol exists for.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import zlib
from dataclasses import dataclass
from typing import Optional

from repro import obs
from repro.common.errors import IntegrityError, TraceFormatError
from repro.common.integrity import unwrap, write_enveloped
from repro.engine.runner import _WORKER_STORE_TRACES
from repro.engine.trace_cache import TraceCache, default_cache_dir
from repro.service.api import execute_spec, result_key
from repro.service.client import ServiceClient, ServiceError
from repro.service.resilience import CircuitBreaker, CircuitOpenError, RetryPolicy
from repro.trace.io import trace_from_bytes
from repro.trace.trace import Trace
from repro.workloads.store import TraceStore
from repro.cluster.protocol import DEFAULT_LEASE_BATCH


@dataclass
class WorkerConfig:
    """One worker process's knobs (CLI flags map 1:1)."""

    coordinator: str
    name: str = "worker"
    #: Leases pulled per request (>1 amortises round trips; stealing
    #: rebalances the skew).
    batch: int = DEFAULT_LEASE_BATCH
    #: Seconds the coordinator holds an empty lease request open (and
    #: the back-off after a transport failure).
    poll: float = 0.5
    #: HTTP timeout per request.
    timeout: float = 30.0
    #: Exit after this many completed tasks (test/benchmark bound).
    max_cells: Optional[int] = None
    #: Exit once the coordinator drains (after completing >= 1 task).
    once: bool = False


class ClusterTraceCache(TraceCache):
    """A worker-side trace cache that fetches misses from the
    coordinator before falling back to local synthesis.

    The fetched bytes are the coordinator's entry file verbatim —
    integrity envelope intact — so the worker re-verifies the sha256
    before decoding, and persists the verified payload into its own
    content-addressed cache (same address, same bytes).  This is the
    trace-sharding half of the fabric: a trace synthesised anywhere is
    served everywhere.
    """

    def __init__(self, directory, client: ServiceClient, persist: bool = True) -> None:
        super().__init__(directory)
        self.client = client
        #: ``False`` mirrors ``REPRO_TRACE_CACHE=off``: still fetch
        #: remotely, never touch the local disk.
        self.persist = persist
        self.remote_fetches = 0

    def _fetch_remote(self, workload_name: str, input_name: str) -> Optional[Trace]:
        from repro.obs import tracing

        try:
            blob = self.client.fetch_trace_entry(workload_name, input_name)
        except (ServiceError, CircuitOpenError):
            return None
        try:
            payload = unwrap(
                blob, source=f"remote:{workload_name}/{input_name}"
            )
            trace = trace_from_bytes(
                zlib.decompress(payload),
                source=f"remote:{workload_name}/{input_name}",
            )
        except (IntegrityError, TraceFormatError, zlib.error, EOFError):
            # A corrupt wire copy is a miss, never a crash — synthesis
            # still produces the identical trace.
            return None
        self.remote_fetches += 1
        if obs.enabled():
            obs.registry().counter("cluster_trace_fetches_total").inc()
        tracing.event(
            "cluster_trace_fetched", workload=workload_name, input=input_name
        )
        if self.persist:
            try:
                path = self.path_for(workload_name, input_name)
                self.directory.mkdir(parents=True, exist_ok=True)
                write_enveloped(path, payload, site="trace_cache.write")
                self.stores += 1
            except OSError:
                pass  # read-only cache dir: serve the trace unpersisted
        return trace

    def load_or_generate(self, workload_name: str, input_name: str = "ref") -> Trace:
        if self.persist:
            trace = self.load(workload_name, input_name)
            if trace is not None:
                return trace
        trace = self._fetch_remote(workload_name, input_name)
        if trace is not None:
            return trace
        if self.persist:
            return super().load_or_generate(workload_name, input_name)
        from repro.workloads.registry import get_workload

        return get_workload(workload_name).generate_trace(input_name)


class _Registration:
    """The worker's current identity, shared with the heartbeat thread."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.worker_id: Optional[str] = None
        self.heartbeat_seconds = 3.0

    def adopt(self, grant: dict) -> None:
        with self.lock:
            self.worker_id = grant["worker_id"]
            self.heartbeat_seconds = max(
                0.2, float(grant.get("heartbeat_seconds", 3.0))
            )

    def current(self) -> Optional[str]:
        with self.lock:
            return self.worker_id


def _register(client: ServiceClient, config: WorkerConfig, reg: _Registration) -> None:
    grant = client.register_worker(
        name=config.name, pid=os.getpid(), host=socket.gethostname()
    )
    reg.adopt(grant)


def _heartbeat_loop(
    client: ServiceClient,
    config: WorkerConfig,
    reg: _Registration,
    stop: threading.Event,
) -> None:
    while not stop.wait(reg.heartbeat_seconds):
        worker_id = reg.current()
        if worker_id is None:
            continue
        try:
            ack = client.worker_heartbeat(worker_id)
        except (ServiceError, CircuitOpenError):
            continue  # transient: the TTL gives us slack for 2 misses
        if not ack.get("known", False):
            try:
                _register(client, config, reg)
            except (ServiceError, CircuitOpenError):
                continue


def _run_lease(lease: dict, store: TraceStore):
    """Run one leased spec; returns ``(payload, None)`` or ``(None,
    error)`` when the run raised (a deterministic failure, so the
    coordinator fails the task instead of re-issuing it)."""
    from repro.faults.sites import apply_child_fault
    from repro.obs import tracing

    spec = lease["spec"]
    with tracing.span(
        "cluster.task",
        key=f"{result_key(spec)}#{lease['attempt']}",
        attrs={"lease": lease["lease_id"], "attempt": lease["attempt"]},
    ):
        try:
            # Only a local worker's grant carries a fault: the parent
            # decided it (``worker.child``), so ``@1`` means the first
            # attempt whichever child takes it.
            apply_child_fault(lease.get("fault"))
            return execute_spec(spec, store=store), None
        except Exception as exc:  # noqa: BLE001 - verdict, not handling
            return None, f"{type(exc).__name__}: {exc}"


def run_worker(config: WorkerConfig) -> int:
    """Run one HTTP worker process until stopped or drained.

    Returns the process exit code (0 on a clean stop).  Installs
    SIGTERM/SIGINT handlers when running in the main thread.
    """
    client = ServiceClient(
        config.coordinator,
        timeout=config.timeout,
        retry=RetryPolicy(retries=3, backoff=0.2, seed=os.getpid()),
        breaker=CircuitBreaker(failure_threshold=8, reset_timeout=2.0),
    )
    stop = threading.Event()

    def _graceful(signum, frame):  # noqa: ARG001 - signal signature
        stop.set()

    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGTERM, _graceful)
        signal.signal(signal.SIGINT, _graceful)
    return work_loop(client, config, stop)


def work_loop(client, config: WorkerConfig, stop: threading.Event) -> int:
    """The worker loop over ``client``: a :class:`ServiceClient` for a
    remote worker, a :class:`~repro.cluster.pipe.PipeClient` for a
    local one.  Returns the exit code."""
    reg = _Registration()
    try:
        _register(client, config, reg)
    except (ServiceError, CircuitOpenError) as exc:
        print(f"worker: cannot register with {config.coordinator}: {exc}")
        return 1

    persist = os.environ.get("REPRO_TRACE_CACHE", "").lower() not in (
        "off", "0", "no", "false",
    )
    store = TraceStore(
        max_traces=_WORKER_STORE_TRACES,
        disk_cache=ClusterTraceCache(default_cache_dir(), client, persist=persist),
    )

    beat = threading.Thread(
        target=_heartbeat_loop,
        args=(client, config, reg, stop),
        name="repro-worker-heartbeat",
        daemon=True,
    )
    beat.start()

    completed = 0
    try:
        while not stop.is_set():
            if config.max_cells is not None and completed >= config.max_cells:
                break
            worker_id = reg.current()
            try:
                # The coordinator holds an empty request for up to
                # ``poll`` seconds, so there is no sleep between polls.
                grant = client.lease_cells(
                    worker_id, max_leases=config.batch, wait=config.poll
                )
            except (ServiceError, CircuitOpenError):
                stop.wait(config.poll)
                continue
            if not grant.get("known", False):
                try:
                    _register(client, config, reg)
                except (ServiceError, CircuitOpenError):
                    stop.wait(config.poll)
                continue
            leases = grant.get("leases", [])
            if not leases and config.once and completed > 0:
                break
            for lease in leases:
                if stop.is_set():
                    break  # unpushed leases re-issue via their timeout
                payload, error = _run_lease(lease, store)
                try:
                    ack = client.push_cell_result(
                        lease["lease_id"], reg.current(), payload, error=error
                    )
                except (ServiceError, CircuitOpenError):
                    continue  # lease expiry covers the lost push
                if not ack.get("accepted", False):
                    # Stale lease — expired, stolen, withdrawn, or the
                    # coordinator restarted and invalidated every
                    # pre-crash grant.  The rest of this batch is just as
                    # dead: drop it and re-lease (re-registering if
                    # needed) instead of running tasks nobody will accept.
                    break
                completed += 1
                if obs.enabled():
                    obs.registry().counter("cluster_cells_total").inc()
                if (
                    config.max_cells is not None
                    and completed >= config.max_cells
                ):
                    break
    finally:
        stop.set()
        worker_id = reg.current()
        if worker_id is not None:
            try:
                client.deregister_worker(worker_id)
            except (ServiceError, CircuitOpenError):
                pass
        beat.join(timeout=2.0)
    return 0
