"""Thin stdlib client for the simulation service.

Wraps the HTTP JSON API in plain method calls::

    client = ServiceClient("http://127.0.0.1:8031")
    job = client.submit_experiment("fig10", fast=True)
    done = client.wait(job["id"])
    payload = client.result(done["result_key"])

Used by the ``repro-fvc submit``/``status``/``fetch`` CLI verbs and the
end-to-end tests; only :mod:`urllib.request`, no dependencies.

Degradation is opt-in per client: pass a
:class:`~repro.service.resilience.RetryPolicy` to retry transient
failures (connection errors, HTTP 503 — honouring the server's
``Retry-After`` hint) with seeded jittered backoff, and/or a
:class:`~repro.service.resilience.CircuitBreaker` to fail fast once
the service is clearly down instead of hammering it.
"""

from __future__ import annotations

import json
import os
import threading
import time
import urllib.error
import urllib.request
from typing import Callable, Dict, Optional

from repro.experiments.render import dumps_compact
from repro.service.resilience import CircuitBreaker, RetryPolicy

#: Default service endpoint; overridable via ``REPRO_SERVICE_URL``.
DEFAULT_URL = "http://127.0.0.1:8031"


def default_service_url() -> str:
    """The service URL the environment selects."""
    return os.environ.get("REPRO_SERVICE_URL", DEFAULT_URL)


class ServiceError(Exception):
    """An API-level failure (HTTP error status or unreachable server).

    ``status`` is the HTTP status (``None`` for transport failures);
    ``retry_after`` carries the server's ``Retry-After`` hint in
    seconds when one was sent (shedding responses).
    """

    def __init__(
        self,
        message: str,
        status: Optional[int] = None,
        retry_after: Optional[float] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after

    @property
    def transient(self) -> bool:
        """Whether retrying could plausibly succeed: the server was
        unreachable, or it answered 503 (shedding)."""
        return self.status is None or self.status == 503


class JobFailed(ServiceError):
    """A waited-on job ended ``failed`` or ``cancelled``."""

    def __init__(self, job: Dict) -> None:
        super().__init__(
            f"job {job.get('id')} ended {job.get('state')}: "
            f"{job.get('error')}"
        )
        self.job = job


class ServiceClient:
    """HTTP client for one service endpoint.

    ``retry`` / ``breaker`` opt this client into transient-failure
    retries and fail-fast circuit breaking (both default off — a bare
    client behaves exactly like the pre-degradation one).  ``sleep`` is
    injectable so retry tests run on a virtual clock.
    """

    def __init__(
        self,
        base_url: Optional[str] = None,
        timeout: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.base_url = (base_url or default_service_url()).rstrip("/")
        self.timeout = timeout
        self.retry = retry
        self.breaker = breaker
        self._sleep = sleep
        # One client is shared across threads (the cluster worker's
        # heartbeat thread and its lease loop), so the diagnostic
        # counter takes a lock rather than racing the increments away.
        self._stats_lock = threading.Lock()
        self.retries_attempted = 0

    # Transport ---------------------------------------------------------
    def _request_once(
        self, method: str, path: str, body: Optional[Dict] = None
    ) -> bytes:
        from repro.faults.sites import fault_point

        try:
            fault_point("client.request")
        except OSError as exc:
            # Injected transport failure: surface exactly like a
            # connection error, so the retry/breaker paths engage.
            raise ServiceError(
                f"cannot reach {self.base_url}: {exc}"
            ) from None
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = dumps_compact(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as rsp:
                return rsp.read()
        except urllib.error.HTTPError as exc:
            detail = ""
            try:
                detail = json.loads(exc.read()).get("error", "")
            except (ValueError, OSError):
                pass
            retry_after = None
            try:
                header = exc.headers.get("Retry-After")
                if header is not None:
                    retry_after = float(header)
            except (AttributeError, ValueError):
                pass
            raise ServiceError(
                f"{method} {path} -> HTTP {exc.code}"
                + (f": {detail}" if detail else ""),
                status=exc.code,
                retry_after=retry_after,
            ) from None
        except urllib.error.URLError as exc:
            raise ServiceError(
                f"cannot reach {self.base_url}: {exc.reason}"
            ) from None
        except OSError as exc:
            # Raw socket failures (e.g. ECONNRESET mid-read against a
            # server that was just killed or is mid-restart) escape
            # urllib unwrapped; surface them as the same transient
            # transport error so the retry/breaker paths engage.
            raise ServiceError(
                f"cannot reach {self.base_url}: {exc}"
            ) from None

    def _request(
        self, method: str, path: str, body: Optional[Dict] = None
    ) -> bytes:
        attempt = 0
        while True:
            if self.breaker is not None:
                self.breaker.allow()  # raises CircuitOpenError when open
            try:
                payload = self._request_once(method, path, body)
            except ServiceError as exc:
                if self.breaker is not None and exc.transient:
                    self.breaker.record_failure()
                if (
                    self.retry is None
                    or not exc.transient
                    or attempt >= self.retry.retries
                ):
                    raise
                self._sleep(
                    self.retry.delay_for(attempt, retry_after=exc.retry_after)
                )
                attempt += 1
                with self._stats_lock:
                    self.retries_attempted += 1
                continue
            if self.breaker is not None:
                self.breaker.record_success()
            return payload

    def _json(self, method: str, path: str, body: Optional[Dict] = None):
        return json.loads(self._request(method, path, body))

    # API ---------------------------------------------------------------
    def healthz(self) -> Dict:
        """Liveness probe."""
        return self._json("GET", "/v1/healthz")

    def metrics(self) -> Dict:
        """The flat counter snapshot."""
        return self._json("GET", "/v1/metrics")

    def submit(self, spec: Dict) -> Dict:
        """Submit a raw job spec; returns the job's JSON view."""
        return self._json("POST", "/v1/jobs", body=spec)

    def submit_experiment(self, experiment_id: str, fast: bool = False) -> Dict:
        """Submit one whole experiment."""
        return self.submit(
            {"type": "experiment", "experiment_id": experiment_id, "fast": fast}
        )

    def submit_cell(self, workload: str, **fields) -> Dict:
        """Submit one engine simulation cell."""
        spec = {"type": "cell", "workload": workload}
        spec.update(fields)
        return self.submit(spec)

    def status(self, job_id: str) -> Dict:
        """One job's current JSON view."""
        return self._json("GET", f"/v1/jobs/{job_id}")

    def jobs(self) -> Dict:
        """Every known job."""
        return self._json("GET", "/v1/jobs")

    def cancel(self, job_id: str) -> Dict:
        """Request cancellation of a queued or running job."""
        return self._json("DELETE", f"/v1/jobs/{job_id}")

    def result_bytes(self, key: str) -> bytes:
        """The stored payload, byte-exact as persisted."""
        return self._request("GET", f"/v1/results/{key}")

    def result(self, key: str) -> Dict:
        """The stored payload, JSON-decoded."""
        return json.loads(self.result_bytes(key))

    # Sweeps ------------------------------------------------------------
    def submit_sweep(self, spec: Dict) -> Dict:
        """Submit one ``sweep/v1`` spec; returns the ``sweep.view/1``
        tracking body (idempotent by content address)."""
        return self._json("POST", "/v1/sweeps", body=spec)

    def sweep(self, sweep_id: str) -> Dict:
        """One sweep's current view, including the assembled
        ``sweep.result/1`` payload once every job is done."""
        return self._json("GET", f"/v1/sweeps/{sweep_id}")

    def sweeps(self) -> Dict:
        """Every tracked sweep, submission order."""
        return self._json("GET", "/v1/sweeps")

    def wait_sweep(
        self, sweep_id: str, timeout: float = 300.0, poll: float = 0.2
    ) -> Dict:
        """Poll until the sweep reaches a terminal state.

        Returns the final view (``result`` populated on success);
        raises :class:`JobFailed` when any member job ends
        ``failed``/``cancelled`` and :class:`ServiceError` on timeout.
        """
        deadline = time.monotonic() + timeout
        while True:
            view = self.sweep(sweep_id)
            state = view.get("state")
            if state == "done":
                return view
            if state in ("failed", "cancelled"):
                raise JobFailed(
                    {"id": sweep_id, "state": state, "error": view.get("jobs")}
                )
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"sweep {sweep_id} still {state} after {timeout:.0f}s"
                )
            time.sleep(poll)

    def run_sweep(self, spec: Dict, timeout: float = 300.0) -> Dict:
        """Submit a sweep, wait, and return the ``sweep.result/1``
        payload."""
        view = self.submit_sweep(spec)
        if view.get("state") != "done" or "result" not in view:
            view = self.wait_sweep(view["sweep_id"], timeout=timeout)
        return view["result"]

    # Cluster protocol --------------------------------------------------
    def register_worker(
        self,
        name: str = "worker",
        pid: Optional[int] = None,
        host: Optional[str] = None,
    ) -> Dict:
        """Register this process as a cluster worker; returns the
        ``worker/v1`` grant (worker id + timing contract)."""
        return self._json(
            "POST", "/v1/workers",
            body={"name": name, "pid": pid, "host": host},
        )

    def worker_heartbeat(self, worker_id: str) -> Dict:
        """Refresh a worker's liveness; ``known: false`` means
        re-register."""
        return self._json("POST", f"/v1/workers/{worker_id}/heartbeat")

    def deregister_worker(self, worker_id: str) -> Dict:
        """Graceful worker goodbye: drop the registration and re-queue
        held leases."""
        return self._json("DELETE", f"/v1/workers/{worker_id}")

    def workers(self) -> Dict:
        """The ``workers/v1`` fabric view (topology + queue state)."""
        return self._json("GET", "/v1/workers")

    def lease_cells(
        self, worker_id: str, max_leases: int = 1, wait: float = 0.0
    ) -> Dict:
        """Pull up to ``max_leases`` task leases for ``worker_id``; with
        nothing to grant, the coordinator holds the request for up to
        ``wait`` seconds."""
        return self._json(
            "POST", "/v1/cells/lease",
            body={
                "worker_id": worker_id,
                "max_leases": max_leases,
                "wait": wait,
            },
        )

    def push_cell_result(
        self,
        lease_id: str,
        worker_id: str,
        payload: Optional[Dict] = None,
        error: Optional[str] = None,
    ) -> Dict:
        """Push one lease's result: the computed payload, or the
        ``error`` its run raised."""
        return self._json(
            "POST", f"/v1/cells/{lease_id}/result",
            body={"worker_id": worker_id, "payload": payload, "error": error},
        )

    def fetch_trace_entry(self, workload: str, input_name: str) -> bytes:
        """The coordinator's enveloped trace-cache entry bytes for one
        ``(workload, input)`` — the trace-sharding fetch path."""
        return self._request("GET", f"/v1/traces/{workload}/{input_name}")

    # Convenience -------------------------------------------------------
    def wait(
        self, job_id: str, timeout: float = 300.0, poll: float = 0.2
    ) -> Dict:
        """Poll until the job reaches a terminal state.

        Returns the final job view; raises :class:`JobFailed` when it
        ends ``failed``/``cancelled`` and :class:`ServiceError` on
        timeout.
        """
        deadline = time.monotonic() + timeout
        while True:
            job = self.status(job_id)
            state = job.get("state")
            if state == "done":
                return job
            if state in ("failed", "cancelled"):
                raise JobFailed(job)
            if time.monotonic() > deadline:
                raise ServiceError(
                    f"job {job_id} still {state} after {timeout:.0f}s"
                )
            time.sleep(poll)

    def run(self, spec: Dict, timeout: float = 300.0) -> Dict:
        """Submit, wait, and return the result payload."""
        job = self.submit(spec)
        if job.get("state") != "done":
            job = self.wait(job["id"], timeout=timeout)
        payload = job.get("result")
        if payload is not None:
            return payload
        return self.result(job["result_key"])
