"""End-to-end cluster fabric tests over real worker subprocesses.

These are the test-suite twins of ``scripts/cluster_smoke.py`` (the CI
gate): a coordinator with one local worker plus two genuine
``repro-fvc worker`` processes run the fig13 test-scale sweep, the
stored payload must equal the ``run --jobs 1`` bytes exactly, and both
remote workers must have completed leases.  The takeover test additionally
SIGKILLs a worker while it holds a lease and requires the same bytes
plus an audit trail of the re-issue.
"""

import io
import os
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout

import pytest

from repro.service.client import ServiceClient
from repro.service.server import ReproService, ServiceConfig

EXPERIMENT = "fig13"
SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

pytestmark = pytest.mark.slow


def local_payload():
    """The ``run fig13 --fast --json`` bytes (the --jobs 1 oracle)."""
    from repro.cli import main

    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert main(["run", EXPERIMENT, "--fast", "--json"]) == 0
    return buffer.getvalue().encode()


def spawn_worker(url, name, cache_dir, faults=""):
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_TRACE_CACHE_DIR=str(cache_dir))
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


def wait_until(predicate, timeout, message):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, message
        time.sleep(0.1)


@pytest.fixture()
def service(tmp_path):
    service = ReproService(
        ServiceConfig(
            port=0,
            workers=1,
            store_dir=tmp_path / "results",
            # Tight TTL so worker loss is detected quickly; long lease
            # deadline so recovery provably comes from loss reaping.
            cluster_worker_ttl=3.0,
            job_timeout=120.0,
        )
    ).start()
    yield service
    service.stop(drain=False)


#: The service's one local worker plus the two remote ones.
ALL_WORKERS = 3


def remote_completions(service):
    """Leases each remote worker completed, by name."""
    return {
        entry["name"]: entry["completed"]
        for entry in service.cluster.workers_view()["workers"]
        if not entry["name"].startswith("local-")
    }


def reap_workers(workers):
    for worker in workers:
        if worker.poll() is None:
            worker.terminate()
    for worker in workers:
        try:
            worker.wait(timeout=10)
        except subprocess.TimeoutExpired:
            worker.kill()


class TestShardedRun:
    def test_payload_byte_identical_across_two_workers(
        self, service, tmp_path
    ):
        workers = [
            spawn_worker(service.url, f"w{n}", tmp_path / f"cache-{n}")
            for n in range(2)
        ]
        try:
            wait_until(
                lambda: service.cluster.live_worker_count() == ALL_WORKERS,
                timeout=30.0,
                message="workers never registered",
            )
            client = ServiceClient(service.url)
            job = client.submit_experiment(EXPERIMENT, fast=True)
            done = client.wait(job["id"], timeout=600)
            assert done["state"] == "done", done
            served = client.result_bytes(done["result_key"])
            completions = remote_completions(service)
        finally:
            reap_workers(workers)

        assert served == local_payload()
        # Both remote workers computed cells beside the local one.
        assert sorted(completions) == ["w0", "w1"]
        assert all(count >= 1 for count in completions.values()), completions


class TestWorkerKillTakeover:
    def test_sigkill_mid_cell_reissues_and_stays_byte_identical(
        self, service, tmp_path
    ):
        # The victim's first leased cell hangs (deterministic injected
        # fault), guaranteeing it dies while holding the lease.
        victim = spawn_worker(
            service.url, "victim", tmp_path / "cache-victim",
            faults="engine.cell:hang(300)@1",
        )
        survivor = spawn_worker(
            service.url, "survivor", tmp_path / "cache-survivor"
        )
        try:
            wait_until(
                lambda: service.cluster.live_worker_count() == ALL_WORKERS,
                timeout=30.0,
                message="workers never registered",
            )
            client = ServiceClient(service.url)
            job = client.submit_experiment(EXPERIMENT, fast=True)

            def victim_holds_a_lease():
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

            done = client.wait(job["id"], timeout=600)
            assert done["state"] == "done", done
            served = client.result_bytes(done["result_key"])
        finally:
            reap_workers([victim, survivor])

        # The re-run of the orphaned cell produced the same bytes.
        assert served == local_payload()

        # The audit log records the takeover: the worker was declared
        # lost and its lease re-issued.
        events = [e["event"] for e in service.cluster.log_events()]
        assert "worker_lost" in events
        assert "reissue" in events
        lost = [e["worker"] for e in service.cluster.log_events("worker_lost")]
        reissues = service.cluster.log_events("reissue")
        assert any(e["worker"] in lost for e in reissues)

        entries = service.metrics()["metrics"]
        assert entries["cluster_workers_lost_total"]["value"] >= 1
        assert entries["cluster_leases_reissued_total"]["value"] >= 1
