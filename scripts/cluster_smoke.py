"""Cluster fabric smoke gate (CI: the cluster-smoke job).

Starts an in-process coordinator (``ReproService`` on an ephemeral
port, with its one local worker), attaches two real ``repro-fvc
worker`` subprocesses, runs the fig13 test-scale sweep, and gates on
the bit-identical contract: the stored payload must equal what
``repro-fvc run fig13 --fast --json`` (``--jobs 1``) prints, byte for
byte.  Each remote worker must have completed at least one lease.

``--kill-one`` runs the failure drill on top: one worker is poisoned
(``REPRO_FAULTS=engine.cell:hang``) so its first cell stalls, the
worker is then SIGKILLed mid-lease, and the run must still complete
with identical bytes — the coordinator's worker-TTL reap re-issues the
orphaned lease to the surviving worker, and the audit log must record
the takeover.

``--kill-coordinator`` drills the other side of the fabric: the
coordinator runs as a real ``repro-fvc serve --state-dir`` subprocess,
is SIGKILLed mid-fig13 (after at least one lease completed), and is
restarted on the same port and state dir.  The restarted coordinator
must recover the job from its write-ahead journal, the workers must
re-attach through their heartbeat ``known: false`` loop, and the final
payload must still be byte-identical to ``run --jobs 1``.

Every coordinator runs one local worker (``--workers 1``) beside the
two remote ones, so "all workers registered" means three.

Usage::

    PYTHONPATH=src python scripts/cluster_smoke.py \
        [--kill-one | --kill-coordinator]
"""

from __future__ import annotations

import argparse
import io
import os
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

EXPERIMENT = "fig13"

#: The coordinator's local worker plus the two remote ones.
ALL_WORKERS = 3


def local_payload() -> bytes:
    """What ``run fig13 --fast --json`` prints with ``--jobs 1``."""
    from repro.cli import main

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        rc = main(["run", EXPERIMENT, "--fast", "--json"])
    assert rc == 0, f"local run failed with exit code {rc}"
    return buffer.getvalue().encode()


def spawn_worker(url: str, name: str, cache_dir: str, faults: str = ""):
    env = dict(
        os.environ,
        PYTHONPATH=os.path.join(REPO_ROOT, "src"),
        REPRO_TRACE_CACHE_DIR=cache_dir,
    )
    env.pop("REPRO_FAULTS", None)
    if faults:
        env["REPRO_FAULTS"] = faults
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "worker",
            "--coordinator", url, "--name", name, "--poll", "0.1",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )


def wait_until(predicate, timeout: float, message: str) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise SystemExit(f"cluster smoke FAILED: {message}")
        time.sleep(0.1)


def spawn_coordinator(port: int, tmp: str):
    """A real ``serve`` subprocess with a durable ``--state-dir``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    env.pop("REPRO_FAULTS", None)
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", str(port),
            "--workers", "1",
            "--store-dir", os.path.join(tmp, "results"),
            "--state-dir", os.path.join(tmp, "state"),
            "--worker-ttl", "3",
            "--timeout", "120",
        ],
        env=env,
        start_new_session=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT,
    )


def killpg(process) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=30)


def kill_coordinator_drill() -> int:
    """SIGKILL the coordinator mid-run, restart it, gate recovery."""
    import socket

    from repro.service.client import ServiceClient, ServiceError

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    url = f"http://127.0.0.1:{port}"
    client = ServiceClient(url)

    def healthy() -> bool:
        try:
            client.healthz()
            return True
        except ServiceError:
            return False

    def metric(name: str) -> float:
        try:
            return client.metrics()["metrics"][name]["value"]
        except (ServiceError, KeyError):
            return -1.0

    tmp = tempfile.mkdtemp(prefix="cluster-smoke-")
    coordinator = spawn_coordinator(port, tmp)
    workers = []
    try:
        wait_until(healthy, 60.0, "coordinator never became healthy")
        # Slow every cell so the SIGKILL demonstrably lands mid-run:
        # some leases completed, others still in flight.
        for index in range(2):
            workers.append(
                spawn_worker(
                    url, f"w{index}", os.path.join(tmp, f"cache-{index}"),
                    faults="engine.cell:delay(0.3)@1-999",
                )
            )
        wait_until(
            lambda: metric("cluster_workers") == ALL_WORKERS,
            30.0, "workers never registered",
        )
        job = client.submit_experiment(EXPERIMENT, fast=True)
        wait_until(
            lambda: metric("cluster_leases_completed_total") >= 1,
            120.0, "no lease completed before the kill",
        )
        killpg(coordinator)
        print(f"SIGKILLed coordinator pid {coordinator.pid} mid-run")

        coordinator = spawn_coordinator(port, tmp)
        wait_until(healthy, 60.0, "restarted coordinator never came up")
        recovered = metric("journal_recovered_jobs_total")
        assert recovered >= 1, f"journal recovered {recovered} jobs"
        view = client.status(job["id"])
        assert view["state"] in ("queued", "running", "done"), view
        # Workers re-attach on their own: heartbeat answers
        # ``known: false`` and the loop re-registers.
        wait_until(
            lambda: metric("cluster_workers") == ALL_WORKERS,
            60.0, "workers never re-attached after the restart",
        )
        done = client.wait(job["id"], timeout=600)
        assert done["state"] == "done", done
        served = client.result_bytes(done["result_key"])
        expected = local_payload()
        if served != expected:
            raise SystemExit(
                "cluster smoke FAILED: post-recovery payload differs "
                f"from run --jobs 1 ({len(served)} vs "
                f"{len(expected)} bytes)"
            )
        print(
            f"coordinator-kill OK: job {job['id']} recovered from the "
            f"journal ({int(recovered)} job(s)), workers re-attached, "
            f"{EXPERIMENT} payload byte-identical"
        )
        return 0
    finally:
        for worker in workers:
            if worker.poll() is None:
                worker.terminate()
        for worker in workers:
            try:
                worker.wait(timeout=10)
            except subprocess.TimeoutExpired:
                worker.kill()
        if coordinator.poll() is None:
            killpg(coordinator)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--kill-one",
        action="store_true",
        help="SIGKILL one worker mid-lease and gate the takeover",
    )
    parser.add_argument(
        "--kill-coordinator",
        action="store_true",
        help="SIGKILL the coordinator mid-run, restart it, and gate "
        "journal recovery + worker re-attach",
    )
    args = parser.parse_args(argv)
    if args.kill_coordinator:
        return kill_coordinator_drill()

    from repro.service.client import ServiceClient
    from repro.service.server import ReproService, ServiceConfig

    tmp = tempfile.mkdtemp(prefix="cluster-smoke-")
    service = ReproService(
        ServiceConfig(
            port=0,
            workers=1,
            store_dir=os.path.join(tmp, "results"),
            # A tight TTL keeps the SIGKILL drill fast; the lease
            # deadline stays long so recovery demonstrably comes from
            # worker-loss reaping, not lease expiry.
            cluster_worker_ttl=3.0,
            job_timeout=120.0,
        )
    ).start()
    workers = []
    try:
        hang = "engine.cell:hang(300)@1" if args.kill_one else ""
        workers.append(
            spawn_worker(
                service.url, "victim" if args.kill_one else "w0",
                os.path.join(tmp, "cache-0"), faults=hang,
            )
        )
        workers.append(
            spawn_worker(
                service.url, "w1", os.path.join(tmp, "cache-1")
            )
        )
        wait_until(
            lambda: service.cluster.live_worker_count() == ALL_WORKERS,
            timeout=30.0,
            message="workers never registered",
        )

        client = ServiceClient(service.url)
        job = client.submit_experiment(EXPERIMENT, fast=True)

        if args.kill_one:
            # The poisoned worker's first leased cell hangs.  Wait
            # until it actually holds a lease, then SIGKILL it.
            victim = workers[0]

            def victim_holds_a_lease() -> bool:
                view = service.cluster.workers_view()
                return any(
                    entry["pid"] == victim.pid and entry["leases"] > 0
                    for entry in view["workers"]
                )

            wait_until(
                victim_holds_a_lease,
                timeout=60.0,
                message="poisoned worker never took a lease",
            )
            os.kill(victim.pid, signal.SIGKILL)
            victim.wait(timeout=10)
            print(f"SIGKILLed worker pid {victim.pid} mid-lease")

        done = client.wait(job["id"], timeout=600)
        assert done["state"] == "done", done
        served = client.result_bytes(done["result_key"])
        completions = {
            entry["name"]: entry["completed"]
            for entry in client.workers()["workers"]
            if not entry["name"].startswith("local-")
        }

        expected = local_payload()
        if served != expected:
            raise SystemExit(
                "cluster smoke FAILED: served payload differs from "
                f"run --jobs 1 ({len(served)} vs {len(expected)} bytes)"
            )

        entries = service.metrics()["metrics"]
        completed = entries["cluster_leases_completed_total"]["value"]
        assert completed >= 1, entries
        if not args.kill_one:
            # The coordinator never simulates, so the gate is that the
            # remote workers really shared the sweep.
            assert sorted(completions) == ["w0", "w1"], completions
            assert all(n >= 1 for n in completions.values()), (
                "expected every remote worker to complete a lease, "
                f"saw {completions}"
            )

        if args.kill_one:
            events = [e["event"] for e in service.cluster.log_events()]
            assert "worker_lost" in events, events
            assert "reissue" in events, events
            lost = entries["cluster_workers_lost_total"]["value"]
            reissued = entries["cluster_leases_reissued_total"]["value"]
            assert lost >= 1 and reissued >= 1, entries
            print(
                f"takeover OK: {lost} worker(s) lost, "
                f"{reissued} lease(s) re-issued, audit log has "
                f"{events.count('worker_lost')} worker_lost + "
                f"{events.count('reissue')} reissue entries"
            )

        print(
            f"cluster smoke OK: {EXPERIMENT} payload byte-identical "
            f"across 2 remote workers and 1 local ({completed} leases "
            f"completed, by remote worker: {completions})"
        )
        return 0
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


if __name__ == "__main__":
    raise SystemExit(main())
