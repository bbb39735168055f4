"""Coordinator scheduler unit tests: leases, liveness, stealing, the
attempt budget and task withdrawal.

Most of this drives :class:`ClusterScheduler` on an injected clock —
no sleeping, no HTTP, and (for the protocol tests) no simulation:
payloads are minimal valid ``repro.cell/1`` dicts.  The run tests
play the worker protocol from a thread.
"""

import dataclasses
import sys
import threading
import time

import pytest

from repro.cluster.coordinator import ClusterScheduler, TaskFailed
from repro.engine.cells import SimCell, run_cell
from repro.engine.runner import RunCancelled
from repro.service.api import (
    CELL_SCHEMA,
    cell_payload,
    cell_spec,
    cell_task_key,
    execute_spec,
    normalise_spec,
    payload_bytes,
    result_key,
)


def make_cells(count):
    """Distinct tiny cells (distinct geometry => distinct task keys)."""
    return [
        SimCell(
            workload="go",
            input_name="test",
            kind="baseline",
            size_bytes=(index + 1) * 1024,
        )
        for index in range(count)
    ]


def payload_for(cell):
    """A wire-valid payload without running any simulation."""
    return {
        "schema": CELL_SCHEMA,
        "cell": dataclasses.asdict(cell),
        "stats": {"accesses": 1},
        "extras": {},
    }


def enqueue(sched, cell):
    """Owe one cell as a task (one waiter), as a run would."""
    return sched._acquire([(cell_task_key(cell), cell_spec(cell))])[0]


class ThreadWorker:
    """A thread playing the worker protocol: lease, run, push."""

    def __init__(self, sched, store):
        self.sched = sched
        self.store = store
        self.worker = sched.register(name="thread")["worker_id"]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.is_set():
            grant = self.sched.lease(self.worker, wait=0.05)
            for lease in grant["leases"]:
                payload = execute_spec(lease["spec"], store=self.store)
                self.sched.complete(lease["lease_id"], self.worker, payload)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=30)
        assert not self._thread.is_alive()


class DictStore:
    """The result-store calls the scheduler makes, in memory."""

    def __init__(self):
        self.blobs = {}

    def peek(self, key, decode=None):
        blob = self.blobs.get(key)
        return blob if blob is None or decode is None else decode(blob)

    def put(self, key, payload):
        self.blobs[key] = payload
        return True


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


@pytest.fixture()
def clock():
    return Clock()


@pytest.fixture()
def sched(clock):
    return ClusterScheduler(
        lease_timeout=30.0, worker_ttl=10.0, max_attempts=3, clock=clock
    )


class TestRegistry:
    def test_register_grants_id_and_timing(self, sched):
        grant = sched.register(name="alpha", pid=42, host="h")
        assert grant["schema"] == "worker/v1"
        assert grant["worker_id"] == "w-0001"
        assert grant["lease_seconds"] == 30.0
        assert 0 < grant["heartbeat_seconds"] < 10.0

    def test_heartbeat_refreshes_and_unknown_is_flagged(self, sched, clock):
        worker = sched.register()["worker_id"]
        clock.now = 9.0
        assert sched.heartbeat(worker)["known"] is True
        assert sched.live_worker_count() == 1
        assert sched.heartbeat("w-9999")["known"] is False

    def test_silent_worker_expires_after_ttl(self, sched, clock):
        sched.register()
        clock.now = 10.1
        sched.reap()
        assert sched.live_worker_count() == 0
        assert sched.counters["cluster_workers_lost_total"] == 1

    def test_deregister_requeues_held_leases(self, sched):
        worker = sched.register()["worker_id"]
        cells = make_cells(1)
        enqueue(sched, cells[0])
        assert sched.lease(worker)["leases"]
        assert sched.deregister(worker) is True
        assert sched.deregister(worker) is False
        # The cell went back to the queue for the next worker, and the
        # attempt it never ran was handed back.
        other = sched.register()["worker_id"]
        assert sched.lease(other)["leases"][0]["attempt"] == 1


class TestLeasing:
    def test_lease_batches_and_drains(self, sched):
        worker = sched.register()["worker_id"]
        for cell in make_cells(3):
            enqueue(sched, cell)
        grant = sched.lease(worker, max_leases=2)
        assert len(grant["leases"]) == 2
        assert [entry["attempt"] for entry in grant["leases"]] == [1, 1]
        assert len(sched.lease(worker, max_leases=2)["leases"]) == 1
        assert sched.lease(worker)["leases"] == []

    def test_unknown_worker_is_told_to_reregister(self, sched):
        assert sched.lease("w-0404") == {
            "schema": "lease/v2", "known": False, "leases": [],
        }

    def test_leased_cell_travels_as_its_field_dict(self, sched):
        # ... inside its normalised ``type: cell`` job spec.
        worker = sched.register()["worker_id"]
        cell = make_cells(1)[0]
        enqueue(sched, cell)
        wire = sched.lease(worker)["leases"][0]["spec"]
        assert wire == cell_spec(cell) == normalise_spec(wire)
        assert {k: v for k, v in wire.items() if k != "type"} == (
            dataclasses.asdict(cell)
        )

    def test_empty_lease_waits_for_work(self, sched):
        worker = sched.register()["worker_id"]
        grants = []
        waiter = threading.Thread(
            target=lambda: grants.append(sched.lease(worker, wait=5.0))
        )
        waiter.start()
        time.sleep(0.1)
        assert waiter.is_alive()  # blocked: nothing to grant yet
        enqueue(sched, make_cells(1)[0])
        waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        assert len(grants[0]["leases"]) == 1

    def test_empty_lease_returns_after_its_wait(self, sched):
        worker = sched.register()["worker_id"]
        started = time.monotonic()
        assert sched.lease(worker, wait=0.1)["leases"] == []
        assert 0.1 <= time.monotonic() - started < 2.0

    def test_expired_lease_is_reissued_with_higher_attempt(
        self, sched, clock
    ):
        worker = sched.register()["worker_id"]
        cell = make_cells(1)[0]
        enqueue(sched, cell)
        first = sched.lease(worker)["leases"][0]
        clock.now = 31.0  # past lease_timeout, inside a fresh ttl below
        sched.heartbeat(worker)
        second = sched.lease(worker)["leases"][0]
        assert second["attempt"] == 2
        assert second["lease_id"] != first["lease_id"]
        events = [e["event"] for e in sched.log_events()]
        assert "lease_expired" in events and "reissue" in events
        assert sched.counters["cluster_leases_expired_total"] == 1
        assert sched.counters["cluster_leases_reissued_total"] == 1

    def test_worker_loss_requeues_to_survivor(self, sched, clock):
        lost = sched.register(name="doomed")["worker_id"]
        cell = make_cells(1)[0]
        enqueue(sched, cell)
        assert sched.lease(lost)["leases"]
        clock.now = 10.5  # doomed never heartbeats again
        survivor = sched.register(name="survivor")["worker_id"]
        grant = sched.lease(survivor)
        assert len(grant["leases"]) == 1
        assert grant["leases"][0]["attempt"] == 2
        events = [e["event"] for e in sched.log_events()]
        assert "worker_lost" in events
        takeovers = sched.log_events("reissue")
        assert takeovers and takeovers[0]["worker"] == lost

    def test_idle_worker_steals_from_loaded_one(self, sched):
        loaded = sched.register(name="loaded")["worker_id"]
        for cell in make_cells(3):
            enqueue(sched, cell)
        assert len(sched.lease(loaded, max_leases=3)["leases"]) == 3
        thief = sched.register(name="thief")["worker_id"]
        stolen = sched.lease(thief)
        assert len(stolen["leases"]) == 1
        assert sched.counters["cluster_cells_stolen_total"] == 1
        # Stealing never takes the victim's last lease.
        assert len(sched.lease(thief)["leases"]) == 1
        assert sched.lease(thief)["leases"] == []

    def test_an_exhausted_budget_fails_the_task(self, sched, clock):
        worker = sched.register()["worker_id"]
        cell = make_cells(1)[0]
        task = enqueue(sched, cell)
        for round_index in range(3):  # max_attempts grants
            assert sched.lease(worker)["leases"], round_index
            clock.now += 31.0
            sched.heartbeat(worker)
            sched.reap()
        # The third attempt's expiry spent the budget: the task failed
        # with the last cause, and workers never see it again.
        assert task.state == "failed" and task.event.is_set()
        assert task.error == "timed out after 30.0s (gave up after 3 attempts)"
        assert sched.lease(worker)["leases"] == []
        assert sched.counters["cluster_leases_reissued_total"] == 2


class TestResults:
    def test_complete_resolves_the_lease(self, sched):
        worker = sched.register()["worker_id"]
        cell = make_cells(1)[0]
        task = enqueue(sched, cell)
        lease = sched.lease(worker)["leases"][0]
        verdict = sched.complete(
            lease["lease_id"], worker, payload_for(cell)
        )
        assert verdict == {"accepted": True, "stale": False}
        assert task.state == "done"
        assert task.event.is_set()
        assert sched.counters["cluster_leases_completed_total"] == 1

    def test_stale_push_is_acknowledged_and_dropped(self, sched, clock):
        worker = sched.register()["worker_id"]
        cell = make_cells(1)[0]
        enqueue(sched, cell)
        old = sched.lease(worker)["leases"][0]
        clock.now = 31.0
        sched.heartbeat(worker)
        fresh = sched.lease(worker)["leases"][0]
        stale = sched.complete(old["lease_id"], worker, payload_for(cell))
        assert stale == {"accepted": False, "stale": True}
        good = sched.complete(fresh["lease_id"], worker, payload_for(cell))
        assert good["accepted"] is True
        assert sched.counters["cluster_results_stale_total"] == 1

    def test_mismatched_worker_is_stale(self, sched):
        worker = sched.register()["worker_id"]
        other = sched.register()["worker_id"]
        cell = make_cells(1)[0]
        enqueue(sched, cell)
        lease = sched.lease(worker)["leases"][0]
        verdict = sched.complete(lease["lease_id"], other, payload_for(cell))
        assert verdict["stale"] is True

    def test_pushed_error_fails_the_task_without_a_retry(self, sched):
        worker = sched.register()["worker_id"]
        task = enqueue(sched, make_cells(1)[0])
        lease = sched.lease(worker)["leases"][0]
        verdict = sched.complete(
            lease["lease_id"], worker, error="ValueError: deterministic"
        )
        assert verdict == {"accepted": True, "stale": False}
        assert task.state == "failed" and task.event.is_set()
        assert task.error == "ValueError: deterministic"
        assert sched.lease(worker)["leases"] == []
        assert sched.counters["cluster_leases_reissued_total"] == 0

    def test_malformed_payload_requeues_the_cell(self, sched):
        worker = sched.register()["worker_id"]
        cell = make_cells(1)[0]
        task = enqueue(sched, cell)
        lease = sched.lease(worker)["leases"][0]
        bad = payload_for(make_cells(2)[1])  # wrong cell fields
        verdict = sched.complete(lease["lease_id"], worker, bad)
        assert verdict == {"accepted": False, "stale": False}
        assert task.state == "pending"
        assert sched.lease(worker)["leases"]  # re-grantable


class TestTaskKeys:
    def test_task_key_is_the_cell_job_result_key(self):
        cell = SimCell(workload="gcc", input_name="test", kind="fvc")
        spec = {"type": "cell"}
        spec.update(dataclasses.asdict(cell))
        assert cell_task_key(cell) == result_key(spec)

    def test_result_store_is_a_cluster_wide_memo(self, clock, store):
        """A cell whose payload is already stored is born done — no
        lease, no simulation."""
        memo = DictStore()
        cell = SimCell(
            workload="go", input_name="test", kind="baseline",
            size_bytes=4 * 1024,
        )
        first = ClusterScheduler(store=memo)
        with ThreadWorker(first, store):
            results = first.run_cells([cell])
        assert memo.blobs[cell_task_key(cell)] == payload_bytes(
            cell_payload(results[0])
        )
        second = ClusterScheduler(store=memo, clock=clock)
        again = second.run_cells([cell])
        assert again[0].stats == results[0].stats
        # Second scheduler resolved purely from the store.
        assert second.counters["cluster_leases_issued_total"] == 0
        assert [e["event"] for e in second.log_events()] == ["complete"]


    def test_memo_probe_refuses_another_cells_payload(self, tmp_path):
        from repro.service.result_store import ResultStore

        first, second = make_cells(2)
        store = ResultStore(tmp_path)
        store.put(cell_task_key(first), payload_bytes(payload_for(second)))
        task = enqueue(ClusterScheduler(store=store), first)
        assert task.state == "pending"
        assert store.corrupt_quarantined == 1


class TestRunCells:
    def test_a_task_waits_until_a_worker_leases_it(self, store):
        cells = make_cells(2)
        sched = ClusterScheduler()
        results = []
        run = threading.Thread(
            target=lambda: results.extend(sched.run_cells(cells))
        )
        run.start()
        time.sleep(0.2)
        # The coordinator never simulates: with no worker, the tasks
        # just wait in the queue.
        assert run.is_alive()
        assert sched.workers_view()["pending_cells"] == 2
        with ThreadWorker(sched, store):
            run.join(timeout=60)
        assert not run.is_alive()
        for cell, result in zip(cells, results):
            direct = run_cell(cell, store)
            assert result.stats == direct.stats
            assert result.extras == direct.extras

    def test_worker_computed_cells_merge_bit_identically(self, store):
        """A thread playing the worker protocol produces results equal
        to direct run_cell — the determinism contract end to end."""
        cells = make_cells(2)
        sched = ClusterScheduler(lease_timeout=60.0, worker_ttl=60.0)
        with ThreadWorker(sched, store):
            results = sched.run_cells(cells)
        for cell, result in zip(cells, results):
            direct = run_cell(cell, store)
            assert result.stats == direct.stats
            assert result.extras == direct.extras
        assert sched.counters["cluster_leases_completed_total"] == 2

    def test_the_task_table_is_empty_after_run_cells_returns(self, store):
        sched = ClusterScheduler()
        with ThreadWorker(sched, store):
            sched.run_cells(make_cells(2))
            assert sched._tasks == {}
            # Nothing is remembered in memory: without a result store
            # the same cells are leased and computed again.
            sched.run_cells(make_cells(2))
        assert sched._tasks == {}
        assert sched.counters["cluster_leases_issued_total"] == 4

    def test_a_failed_spec_runs_again_when_resubmitted(self, store):
        sched = ClusterScheduler()
        spec = cell_spec(make_cells(1)[0])
        key = result_key(spec)
        worker = sched.register()["worker_id"]

        def fail_first_lease():
            grant = sched.lease(worker, wait=10.0)
            lease = grant["leases"][0]
            sched.complete(lease["lease_id"], worker, error="boom")

        failer = threading.Thread(target=fail_first_lease)
        failer.start()
        with pytest.raises(TaskFailed, match="boom"):
            sched.run_spec(spec, key)
        failer.join(timeout=10)
        assert not failer.is_alive()
        assert sched._tasks == {}
        with ThreadWorker(sched, store):
            payload, stored = sched.run_spec(spec, key)
        assert payload == execute_spec(spec, store=store)
        assert stored is None  # no result store attached

    def test_cancel_withdraws_the_leased_task(self, sched):
        worker = sched.register()["worker_id"]
        cancel = threading.Event()
        run = threading.Thread(
            target=lambda: pytest.raises(
                RunCancelled, sched.run_cells, make_cells(1),
                should_cancel=cancel.is_set,
            )
        )
        run.start()
        lease = sched.lease(worker, wait=10.0)["leases"][0]
        assert sched.lease_live(lease["lease_id"])
        cancel.set()
        run.join(timeout=10)
        assert not run.is_alive()
        # The only run stopped waiting: the lease was revoked, the task
        # forgotten, and the holder's late push is acknowledged stale.
        assert not sched.lease_live(lease["lease_id"])
        assert sched._tasks == {}
        verdict = sched.complete(
            lease["lease_id"], worker, payload_for(make_cells(1)[0])
        )
        assert verdict["stale"] is True

    def test_concurrent_runs_share_and_then_forget_tasks(self):
        """Eight runs over overlapping cells against four workers, with
        thread switches forced often: every run gets its own cells'
        results, and once all return no task, lease or queue entry is
        left — a lost waiter count or lease update would leave one."""
        sched = ClusterScheduler()
        cells = make_cells(6)
        runs = [cells[i:i + 3] for i in range(4)] * 2  # shared tasks
        results = [None] * len(runs)
        stop = threading.Event()

        def worker():
            me = sched.register()["worker_id"]
            while not stop.is_set():
                for lease in sched.lease(me, max_leases=2, wait=0.01)["leases"]:
                    spec = dict(lease["spec"])
                    spec.pop("type")
                    sched.complete(
                        lease["lease_id"], me, payload_for(SimCell(**spec))
                    )

        def run(index):
            results[index] = sched.run_cells(runs[index])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=worker) for _ in range(4)]
            callers = [
                threading.Thread(target=run, args=(i,))
                for i in range(len(runs))
            ]
            for thread in workers + callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            stop.set()
            sys.setswitchinterval(interval)
        for thread in workers:
            thread.join(timeout=10)
            assert not thread.is_alive()
        for run_cells, got in zip(runs, results):
            assert [result.cell for result in got] == run_cells
        assert sched._tasks == {}
        view = sched.workers_view()
        assert view["pending_cells"] == view["leased_cells"] == 0

    def test_progress_reports_monotonically(self, store):
        cells = make_cells(2)
        sched = ClusterScheduler()
        seen = []
        with ThreadWorker(sched, store):
            sched.run_cells(
                cells, progress=lambda done, total: seen.append((done, total)),
            )
        assert seen[0] == (0, 2)
        assert seen[-1] == (2, 2)
        assert [s for s, _ in seen] == sorted(s for s, _ in seen)


class TestMetricSamples:
    def test_samples_are_catalogued_and_typed(self, sched):
        from repro.obs.names import METRIC_NAMES

        samples = sched.metric_samples()
        assert set(samples) <= METRIC_NAMES
        assert samples["cluster_workers"]["type"] == "gauge"
        assert samples["cluster_leases_issued_total"]["type"] == "counter"


class TestFaultSites:
    """The coordinator's three injection sites actually fire.

    Each site sits at the entry of its RPC — before any state is
    touched — so an injected fault must surface as the typed error and
    leave the fabric consistent for the retry.
    """

    @pytest.fixture(autouse=True)
    def _clean_plan(self):
        from repro.faults import reset

        reset()
        yield
        reset()

    def test_heartbeat_site_fires_before_liveness_refresh(self, sched, clock):
        from repro.common.errors import FaultInjected
        from repro.faults import install
        from repro.faults.plan import FaultPlan

        worker = sched.register()["worker_id"]
        install(FaultPlan.parse("cluster.heartbeat:raise@1"))
        clock.now = 9.0
        with pytest.raises(FaultInjected):
            sched.heartbeat(worker)
        # The clause is spent; the retry lands and refreshes liveness.
        assert sched.heartbeat(worker)["known"] is True
        assert sched.counters["cluster_heartbeats_total"] == 1

    def test_lease_site_fires_before_any_grant(self, sched):
        from repro.common.errors import FaultInjected
        from repro.faults import install
        from repro.faults.plan import FaultPlan

        worker = sched.register()["worker_id"]
        enqueue(sched, make_cells(1)[0])
        install(FaultPlan.parse("cluster.lease:raise@1"))
        with pytest.raises(FaultInjected):
            sched.lease(worker)
        # Nothing was dequeued: the retry still gets the cell.
        grant = sched.lease(worker)
        assert len(grant["leases"]) == 1
        assert grant["leases"][0]["attempt"] == 1

    def test_result_site_fires_before_lease_resolution(self, sched):
        from repro.common.errors import FaultInjected
        from repro.faults import install
        from repro.faults.plan import FaultPlan

        worker = sched.register()["worker_id"]
        cell = make_cells(1)[0]
        enqueue(sched, cell)
        lease = sched.lease(worker)["leases"][0]
        install(FaultPlan.parse("cluster.result:raise@1"))
        with pytest.raises(FaultInjected):
            sched.complete(lease["lease_id"], worker, payload_for(cell))
        # The lease is still live: the retried push is accepted, not
        # treated as stale.
        verdict = sched.complete(lease["lease_id"], worker, payload_for(cell))
        assert verdict["accepted"] is True


class TestEpochRecovery:
    """The scheduler's clock epoch after a crash-restart: lease and TTL
    math must keep working when the restarted coordinator re-bases onto
    the journal's recorded epoch."""

    def test_restore_rebases_clock_onto_epoch(self, sched, clock):
        clock.now = 2.0
        sched.restore(epoch=100.0)
        assert sched.now() == pytest.approx(100.0)
        clock.now = 5.5
        assert sched.now() == pytest.approx(103.5)

    def test_restore_never_rewinds_the_epoch(self, sched, clock):
        clock.now = 7.0  # this incarnation already ran for 7 s
        sched.restore(epoch=3.0)  # a stale, older journal epoch
        assert sched.now() >= 7.0

    def test_lease_ttl_math_survives_the_rebase(self, clock):
        # Pre-crash coordinator ran to t=1000; the restarted one starts
        # from a fresh process clock (injected: 0.0) but must expire a
        # re-issued lease after lease_timeout seconds of *real* time,
        # not at raw-clock 30 (which is epoch time 1030).
        sched = ClusterScheduler(
            lease_timeout=30.0, worker_ttl=120.0, max_attempts=3,
            clock=clock,
        )
        sched.restore(epoch=1000.0)
        worker = sched.register()["worker_id"]
        enqueue(sched, make_cells(1)[0])
        assert sched.lease(worker)["leases"]
        clock.now = 29.0  # epoch time 1029: inside the lease window
        sched.heartbeat(worker)
        sched.reap()
        assert sched.counters["cluster_leases_expired_total"] == 0
        clock.now = 31.0  # epoch time 1031: past it
        sched.heartbeat(worker)
        sched.reap()
        assert sched.counters["cluster_leases_expired_total"] == 1

    def test_restored_serials_never_collide(self, sched):
        sched.restore(worker_serial=7, lease_serial=41)
        assert sched.register()["worker_id"] == "w-0008"
        enqueue(sched, make_cells(1)[0])
        lease = sched.lease("w-0008")["leases"][0]
        assert lease["lease_id"] == "lease-000042"

    def test_pre_crash_lease_push_is_acked_stale(self, sched):
        # A worker holding a lease issued by the dead incarnation pushes
        # after the restart: the id is unknown, the ack says stale, and
        # the worker's loop drops the batch instead of crashing.
        sched.restore(worker_serial=3, lease_serial=9)
        worker = sched.register()["worker_id"]
        cell = make_cells(1)[0]
        verdict = sched.complete("lease-000005", worker, payload_for(cell))
        assert verdict == {"accepted": False, "stale": True}

    def test_snapshot_state_roundtrips_through_restore(self, sched, clock):
        sched.register()
        clock.now = 12.0
        state = sched.snapshot_state()
        assert state["worker_serial"] == 1
        assert state["epoch"] == pytest.approx(12.0)

        successor = ClusterScheduler(clock=Clock())
        successor.restore(
            worker_serial=state["worker_serial"],
            lease_serial=state["lease_serial"],
            epoch=state["epoch"],
            counters=state["counters"],
        )
        assert successor.now() == pytest.approx(12.0)
        assert successor.register()["worker_id"] == "w-0002"

    def test_journaled_events_reach_the_journal(self, clock, tmp_path):
        from repro.service.journal import Journal

        journal = Journal(tmp_path / "state", fsync=False)
        sched = ClusterScheduler(
            lease_timeout=30.0, worker_ttl=10.0, clock=clock,
            journal=journal,
        )
        worker = sched.register()["worker_id"]
        enqueue(sched, make_cells(1)[0])
        sched.lease(worker)
        clock.now = 31.0  # past lease_timeout, worker kept alive
        sched.heartbeat(worker)
        sched.reap()  # lease expired
        clock.now = 42.0  # now the worker goes silent past its ttl
        sched.reap()  # worker lost
        journal.close()

        _, tail, _ = Journal(tmp_path / "state", fsync=False).replay()
        events = [record["ev"] for record in tail if record["k"] == "sched"]
        assert "register" in events
        assert "issue" in events
        assert "worker_lost" in events
        assert "lease_expired" in events
        # Heartbeats are deliberately not journaled (rate, no recovery
        # value) — liveness is re-proven by post-restart heartbeats.
        assert "heartbeat" not in events
