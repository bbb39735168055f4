"""The committed cluster-fabric trajectory (``make bench-cluster``).

Measures the fig13 test-scale sweep end to end through the distributed
fabric — coordinator + N real ``repro-fvc worker`` subprocesses, beside
the coordinator's one local worker (``serve --workers 1``) — at 1, 2
and 4 remote workers, median of :data:`REPEATS` timed runs each, and
writes ``BENCH_cluster.json`` at the repo root.

Every row re-gates the determinism contract: the payload served by the
sharded run must be byte-identical to what ``repro-fvc run fig13
--fast --json`` (``--jobs 1``) prints.  There is deliberately no
speed *gate*: at test scale the sweep is protocol-bound, so the file
records the wall-clock trajectory for trend inspection rather than
asserting a speedup.

Each timed sample covers submit-to-done only; worker spawn/registration
happens outside the clock, one untimed warmup run per worker count
settles trace caches, and every run gets a fresh result store so no
sample is answered from the memo.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

EXPERIMENT = "fig13"
WORKER_COUNTS = (1, 2, 4)
REPEATS = 3


def local_payload() -> bytes:
    from repro.cli import main

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main(["run", EXPERIMENT, "--fast", "--json"]) == 0
    return buffer.getvalue().encode()


def spawn_worker(url: str, name: str, cache_dir: str):
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(REPO_ROOT, "src"),
        REPRO_TRACE_CACHE_DIR=cache_dir,
    )
    env.pop("REPRO_FAULTS", None)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--coordinator", url, "--name", name, "--poll", "0.05",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )


def timed_run(worker_count: int, cache_dirs, store_dir, expected: bytes):
    """One coordinator + worker_count workers, one sharded fig13 run.

    Returns (seconds, payload_identical)."""
    from repro.service.client import ServiceClient
    from repro.service.server import ReproService, ServiceConfig

    service = ReproService(
        ServiceConfig(port=0, workers=1, store_dir=store_dir)
    ).start()
    workers = []
    try:
        for index in range(worker_count):
            workers.append(
                spawn_worker(service.url, f"w{index}", cache_dirs[index])
            )
        deadline = time.monotonic() + 60.0
        # The coordinator's own local worker counts too.
        expected_workers = worker_count + service.config.workers
        while service.cluster.live_worker_count() < expected_workers:
            if time.monotonic() > deadline:
                raise SystemExit("bench-cluster: workers never registered")
            time.sleep(0.05)

        client = ServiceClient(service.url)
        started = time.perf_counter()
        job = client.submit_experiment(EXPERIMENT, fast=True)
        done = client.wait(job["id"], timeout=600)
        elapsed = time.perf_counter() - started
        assert done["state"] == "done", done
        served = client.result_bytes(done["result_key"])
        return elapsed, served == expected
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.terminate()
        for worker in workers:
            try:
                worker.wait(timeout=10)
            except subprocess.TimeoutExpired:
                worker.kill()
        service.stop(drain=False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="fig13 wall-clock through the cluster fabric "
        "at 1/2/4 workers"
    )
    parser.add_argument(
        "-o", "--output", default="BENCH_cluster.json",
        help="result file (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    os.environ.pop("REPRO_FAULTS", None)
    expected = local_payload()

    tmp = tempfile.mkdtemp(prefix="bench-cluster-")
    # Cache dirs persist across runs so synthesis cost lands in warmup.
    cache_dirs = [
        os.path.join(tmp, f"cache-{index}")
        for index in range(max(WORKER_COUNTS))
    ]

    rows = {}
    identical = True
    store_serial = 0
    for count in WORKER_COUNTS:
        timings = []
        for iteration in range(REPEATS + 1):  # first run is warmup
            store_serial += 1
            store_dir = os.path.join(tmp, f"results-{store_serial}")
            seconds, same = timed_run(count, cache_dirs, store_dir, expected)
            identical = identical and same
            if iteration > 0:
                timings.append(seconds)
        median = statistics.median(timings)
        rows[str(count)] = {
            "seconds": timings,
            "median_seconds": median,
        }
        print(f"{EXPERIMENT} @ {count} worker(s): median {median:.3f}s")

    report = {
        "schema": "repro.bench-cluster/1",
        "experiment": EXPERIMENT,
        "repeats": REPEATS,
        "workers": rows,
        "payloads_identical": identical,
        "passed": identical,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    if not identical:
        print(
            "FAIL: sharded payload diverged from run --jobs 1",
            file=sys.stderr,
        )
        return 1
    print(f"payloads byte-identical at every worker count -> {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
