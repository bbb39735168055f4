"""The ``served-cells`` workload: cell jobs against ``repro-fvc serve``.

Two client threads run a closed loop over a submission sequence made
from the seed: each submits a job, polls it until it ends, fetches the
stored payload and only then takes the next submission.  The server
gets fresh state and result-store directories on every pass.
"""

from __future__ import annotations

import os
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

#: Every workload, so each job reloads a trace of its own kind.
WORKLOADS = (
    "go", "m88ksim", "gcc", "li", "perl", "vortex", "compress", "ijpeg",
    "swim", "tomcatv", "mgrid", "applu", "su2cor", "hydro2d",
)
KINDS = ("baseline", "fvc")
SIZES_KB = (4, 8, 16)
#: Submissions per pass: the 84 distinct specs plus 36 resubmissions.
SUBMISSIONS = 120
CLIENTS = 2
WORKERS = 2
#: Seconds between two status polls of one job.
POLL_S = 0.02
#: Seconds the server may take to answer its first health probe.
START_TIMEOUT_S = 60.0


def distinct_specs() -> List[Dict]:
    """The 84 distinct cell specs (test inputs, 32 B lines, 512-entry
    FVC over the top 7 values)."""
    return [
        {
            "type": "cell",
            "workload": workload,
            "input_name": "test",
            "kind": kind,
            "size_bytes": size_kb * 1024,
            "line_bytes": 32,
            "ways": 1,
            "fvc_entries": 512,
            "top_values": 7,
        }
        for workload in WORKLOADS
        for kind in KINDS
        for size_kb in SIZES_KB
    ]


def submissions(seed: int) -> List[Dict]:
    """The seeded submission order.

    Every distinct spec appears once in shuffled order; the remaining
    slots resubmit a spec first submitted at least :data:`CLIENTS`
    positions earlier.  In a closed loop of :data:`CLIENTS` clients
    taking submissions in order, that spec has completed by then.
    """
    rng = random.Random(seed)
    fresh = distinct_specs()
    rng.shuffle(fresh)
    repeat_at = set(
        rng.sample(range(CLIENTS, SUBMISSIONS), SUBMISSIONS - len(fresh))
    )
    order: List[Dict] = []
    first_seen: List[int] = []
    for position in range(SUBMISSIONS):
        if position in repeat_at:
            eligible = [i for i in first_seen if i <= position - CLIENTS]
            order.append(dict(order[rng.choice(eligible)]))
        else:
            first_seen.append(position)
            order.append(fresh.pop())
    return order


class Server:
    """One ``repro-fvc serve`` child with its own state directories."""

    def __init__(self, root: Path, env: Dict[str, str], log: Path) -> None:
        self.root = root
        self.env = env
        self.log = log
        self.process: Optional[subprocess.Popen] = None
        self.url = ""

    def start(self) -> float:
        """Spawn the server and wait for a healthy ``/v1/healthz``;
        returns the seconds that took."""
        from repro import api
        from repro.service.client import ServiceError

        command = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--workers", str(WORKERS),
            "--state-dir", str(self.root / "state"),
            "--store-dir", str(self.root / "store"),
        ]
        started = time.monotonic()
        with open(self.log, "ab") as log:
            self.process = subprocess.Popen(
                command,
                env=self.env,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        banner = self.process.stdout.readline().decode("utf-8", "replace")
        if " on http://" not in banner:
            raise RuntimeError(f"server did not start: {banner!r}")
        self.url = banner.split(" on ", 1)[1].split()[0]
        client = api.connect(self.url, timeout=5.0)
        deadline = started + START_TIMEOUT_S
        while True:
            try:
                if client.healthz().get("status") in ("ok", "degraded"):
                    return time.monotonic() - started
            except ServiceError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never became healthy")
            time.sleep(0.005)

    def stop(self) -> None:
        """Drain with SIGTERM and wait for the process to end."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.process = None


def reference_payloads(specs: List[Dict]) -> Dict[str, bytes]:
    """``result key -> payload bytes`` of every distinct spec, run
    in this process through the engine's cell path."""
    from repro.engine.cells import SimCell, run_cell
    from repro.service.api import (
        cell_payload,
        normalise_spec,
        payload_bytes,
        result_key,
    )

    references: Dict[str, bytes] = {}
    for spec in specs:
        normal = normalise_spec(spec)
        fields = {k: v for k, v in normal.items() if k != "type"}
        references[result_key(normal)] = payload_bytes(
            cell_payload(run_cell(SimCell(**fields)))
        )
    return references


def poll_offsets(seed: int) -> List[float]:
    """Seconds each submission waits before its first status poll.

    Polls every :data:`POLL_S` from the submit call would put every
    latency the client sees on one grid of poll intervals, and the
    median would step from one grid line to the next between runs.
    A seeded offset within one interval spreads the polls instead.
    """
    rng = random.Random(f"poll-{seed}")
    return [rng.uniform(0.0, POLL_S) for _ in range(SUBMISSIONS)]


def closed_loop(
    url: str, order: List[Dict], offsets: List[float]
) -> Dict[str, object]:
    """Run every submission through :data:`CLIENTS` closed-loop
    clients, the first poll of submission ``i`` after ``offsets[i]``;
    returns per-submission outcomes and the loop's wall time."""
    from repro import api
    from repro.obs import tracing
    from repro.service.client import ServiceError

    outcomes: List[Optional[Dict]] = [None] * len(order)
    lock = threading.Lock()
    cursor = [0]

    def client_loop() -> None:
        client = api.connect(url, timeout=60.0)
        with tracing.span("bench.client"):
            while True:
                with lock:
                    position = cursor[0]
                    cursor[0] += 1
                if position >= len(order):
                    return
                outcomes[position] = one_submission(
                    client, order[position], offsets[position]
                )

    def one_submission(client, spec: Dict, delay: float) -> Dict:
        started = time.monotonic()
        try:
            with tracing.span("service.submit"):
                view = client.submit(spec)
            while view["state"] not in ("done", "failed", "cancelled"):
                time.sleep(delay)
                delay = POLL_S
                with tracing.span("service.poll"):
                    view = client.status(view["id"])
            latency = time.monotonic() - started
            if view["state"] != "done":
                return {"error": f"job ended {view['state']}: {view.get('error')}"}
            with tracing.span("service.fetch"):
                body = client.result_bytes(view["result_key"])
        except ServiceError as exc:
            return {"error": str(exc)}
        return {"latency": latency, "view": view, "body": body}

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"wall": time.monotonic() - started, "outcomes": outcomes}


def peak_children_rss_mb() -> float:
    """Largest resident set among waited-for children (the server and,
    through it, its job processes), in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def trace_entries(directory: Path) -> List[str]:
    """Names of the trace-cache entries on disk."""
    return sorted(os.listdir(directory)) if directory.is_dir() else []
