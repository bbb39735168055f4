"""The service's local workers: ``serve --workers K`` runs every job on
the cluster scheduler, whose local worker processes give the service
its hard guarantees — crash containment, bounded retries, a per-task
deadline, cancellation and drain.

Every job here is a cheap real cell spec; misbehaviour comes from
``worker.child`` fault plans, which the parent decides per lease and the
child applies before running it.
"""

import os
import socket
import time

import pytest

from repro.faults import install, reset
from repro.faults.plan import FaultPlan
from repro.service import jobs as jobstates
from repro.service.api import execute_spec, normalise_spec, result_key
from repro.service.server import ReproService, ServiceConfig


def _spec(size_kb=1, workload="go"):
    return normalise_spec(
        {
            "type": "cell",
            "workload": workload,
            "input_name": "test",
            "size_bytes": size_kb * 1024,
        }
    )


def _wait_for(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(interval)


@pytest.fixture()
def make_service(tmp_path):
    services = []

    def make(plan=None, **overrides):
        if plan is not None:
            install(FaultPlan.parse(plan))
        config = ServiceConfig(
            port=0, workers=1, store_dir=tmp_path / "results", **overrides
        )
        service = ReproService(config).start()
        services.append(service)
        return service

    yield make
    for service in services:
        service.stop(drain=False)
    reset()


def _submit(service, spec):
    job, _ = service.jobs.submit(spec, result_key(spec))
    return job


def _counter(service, name):
    return service.metrics()["metrics"][name]["value"]


def _child_pid(service):
    process = service.local_workers[0].process
    return None if process is None else process.pid


class TestExecution:
    def test_success_delivers_payload_and_progress(self, make_service):
        service = make_service()
        spec = _spec()
        job = _submit(service, spec)
        _wait_for(lambda: job.state == jobstates.DONE)
        assert job.payload == execute_spec(spec)
        assert job.progress == (1, 1)
        assert job.attempts == 1
        assert job.stored is True
        assert service.store.contains(job.result_key)
        # The task was forgotten once its job returned.
        assert service.cluster._tasks == {}

    def test_on_done_hook_records_admission(self, make_service):
        # A job's ``stored`` is the result store's admission verdict on
        # its payload; a rejected payload still reaches the job.
        service = make_service(store_capacity=1)
        first = _submit(service, _spec())
        _wait_for(lambda: first.state == jobstates.DONE)
        second = _submit(service, _spec(size_kb=2))
        _wait_for(lambda: second.state == jobstates.DONE)
        assert first.stored is True
        assert second.stored is False
        assert second.payload == execute_spec(_spec(size_kb=2))
        assert not service.store.contains(second.result_key)

    def test_exception_fails_without_retry(self, make_service):
        service = make_service("worker.child:raise@1")
        job = _submit(service, _spec())
        _wait_for(lambda: job.state == jobstates.FAILED)
        assert job.error.startswith("FaultInjected: injected fault")
        assert job.attempts == 1
        assert _counter(service, "cluster_leases_reissued_total") == 0
        assert service.jobs.stats()["retries"] == 0
        # A failed task is forgotten: the same spec runs again.
        again = _submit(service, _spec())
        _wait_for(lambda: again.state == jobstates.DONE)


class TestCrashes:
    def test_crash_retries_then_succeeds(self, make_service):
        service = make_service("worker.child:crash@1-2")
        job = _submit(service, _spec())
        _wait_for(lambda: job.state == jobstates.DONE)
        assert job.payload == execute_spec(_spec())
        assert job.attempts == 3
        assert _counter(service, "cluster_leases_reissued_total") == 2
        assert service.jobs.stats()["retries"] == 2

    def test_crash_budget_exhausted_fails(self, make_service):
        service = make_service("worker.child:crash@every=1", max_retries=1)
        job = _submit(service, _spec())
        _wait_for(lambda: job.state == jobstates.FAILED)
        assert "exit code 70" in job.error
        assert "gave up after 2 attempts" in job.error
        assert job.attempts == 2


class TestInjectedFaults:
    def test_injected_child_crash_is_retried_transparently(
        self, make_service
    ):
        service = make_service("worker.child:crash@1")
        _wait_for(lambda: service.local_workers[0].worker_id is not None)
        crashed_pid = _child_pid(service)
        job = _submit(service, _spec())
        _wait_for(lambda: job.state == jobstates.DONE)
        assert job.payload == execute_spec(_spec())
        assert job.attempts == 2
        # The child died, was declared lost at once (its pipe closed)
        # and a fresh child took the re-issued lease.
        assert _child_pid(service) != crashed_pid
        assert _counter(service, "cluster_workers_lost_total") == 1
        assert _counter(service, "cluster_leases_reissued_total") == 1
        assert service.jobs.stats()["retries"] == 1


def _descriptor_links(pid):
    links = set()
    for name in os.listdir(f"/proc/{pid}/fd"):
        try:
            links.add(os.readlink(f"/proc/{pid}/fd/{name}"))
        except OSError:
            pass  # closed while listing
    return links


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="reads /proc/<pid>/fd"
)
class TestInheritedDescriptors:
    def test_respawned_child_drops_the_servers_descriptors(
        self, make_service
    ):
        # A respawn forks from the running, multi-threaded server, after
        # it opened a socket the child must not keep alive.
        service = make_service("worker.child:crash@1")
        _wait_for(lambda: service.local_workers[0].worker_id is not None)
        crashed_pid = _child_pid(service)
        with socket.socket() as listener:
            listener.bind(("127.0.0.1", 0))
            listener.listen()
            inode = os.fstat(listener.fileno()).st_ino
            job = _submit(service, _spec())
            _wait_for(lambda: job.state == jobstates.DONE)
            assert job.attempts == 2
            respawned_pid = _child_pid(service)
            assert respawned_pid != crashed_pid
            links = _descriptor_links(respawned_pid)
        assert f"socket:[{inode}]" not in links
        # The child's own pipe end is still a socket it holds.
        assert any(link.startswith("socket:[") for link in links)


class TestTimeoutsAndCancellation:
    def test_timeout_kills_and_fails(self, make_service):
        # One attempt allowed: the hung child is killed at the deadline
        # and the task fails with the timeout as its last cause.
        service = make_service(
            "worker.child:hang@every=1", job_timeout=0.5, max_retries=0
        )
        job = _submit(service, _spec())
        _wait_for(lambda: job.state == jobstates.FAILED)
        assert job.error == "timed out after 0.5s (gave up after 1 attempts)"

    def test_hang_is_killed_at_the_deadline_and_reissued(self, make_service):
        service = make_service("worker.child:hang@1", job_timeout=1.0)
        _wait_for(lambda: service.local_workers[0].worker_id is not None)
        hung_pid = _child_pid(service)
        job = _submit(service, _spec())
        _wait_for(lambda: job.state == jobstates.DONE)
        assert job.attempts == 2
        assert _child_pid(service) != hung_pid
        assert _counter(service, "cluster_leases_expired_total") == 1

    def test_cancel_running_job(self, make_service):
        service = make_service("worker.child:hang@1")
        job = _submit(service, _spec())
        _wait_for(lambda: service.cluster.workers_view()["leased_cells"] == 1)
        hung_pid = _child_pid(service)
        service.jobs.cancel(job.id)
        _wait_for(lambda: job.state == jobstates.CANCELLED)
        assert service.jobs.stats()["cancelled"] == 1
        # The withdrawn task's child was killed, so the worker is free
        # for the next job at once.
        _wait_for(lambda: _child_pid(service) != hung_pid)
        following = _submit(service, _spec(size_kb=2))
        _wait_for(lambda: following.state == jobstates.DONE)
        assert following.attempts == 1


class TestDrain:
    def test_drain_finishes_queued_work(self, make_service):
        service = make_service()
        submitted = [_submit(service, _spec(size_kb=k)) for k in (1, 2, 4)]
        service.stop(drain=True)
        for job in submitted:
            assert job.state == jobstates.DONE

    def test_stop_without_drain_cancels_queue(self, make_service):
        service = make_service("worker.child:hang@1")
        submitted = [_submit(service, _spec(size_kb=k)) for k in (1, 2, 4)]
        _wait_for(lambda: service.jobs.running_count() == 1)
        service.stop(drain=False)
        for job in submitted:
            assert job.state == jobstates.CANCELLED

    def test_rejects_zero_workers(self, tmp_path):
        with pytest.raises(ValueError):
            ReproService(
                ServiceConfig(port=0, workers=0, store_dir=tmp_path)
            )
