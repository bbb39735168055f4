"""Chaos suite: experiments under injected faults either finish
byte-identical to a fault-free run or fail with a typed error — never
silently corrupt.

Covers the robustness acceptance paths end to end: a fig13 run with a
corrupted trace-cache entry self-heals; a run killed mid-flight by an
injected crash resumes from its checkpoint bit-identically; a served
job survives a worker crash and a result-store bit-flip; and a fault
plan replays its injections at identical points."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.common.errors import FaultInjected
from repro.engine.trace_cache import TraceCache
from repro.experiments.registry import run_experiment
from repro.experiments.render import dumps_canonical
from repro.faults import install, reset
from repro.faults.plan import FaultPlan
from repro.service.result_store import checkpoint_store
from repro.workloads.store import TraceStore

_EXPERIMENT = "fig13"


def _fingerprint(result) -> str:
    """Canonical byte-for-byte encoding of an experiment result."""
    return dumps_canonical(dataclasses.asdict(result))


@pytest.fixture(autouse=True)
def _clean_plan():
    reset()
    yield
    reset()


@pytest.fixture(scope="module")
def baseline(store):
    """The fault-free fig13 fingerprint every chaos run must match."""
    reset()
    return _fingerprint(run_experiment(_EXPERIMENT, store, fast=True))


class TestTraceCacheChaos:
    def test_fig13_self_heals_a_corrupted_cache_entry(
        self, baseline, tmp_path
    ):
        cache_dir = tmp_path / "cache"
        install(FaultPlan.parse("trace_cache.write:bitflip@1;seed=5"))

        # Run 1 persists its trace through a faulted write: the entry
        # lands on disk corrupted, but the in-memory trace (and so the
        # result) is untouched.
        first = run_experiment(
            _EXPERIMENT, TraceStore(disk_cache=TraceCache(cache_dir)),
            fast=True,
        )
        assert _fingerprint(first) == baseline

        # Run 2 reads the poisoned entry, detects it, quarantines it,
        # regenerates — and still produces identical bytes.
        healing_cache = TraceCache(cache_dir)
        second = run_experiment(
            _EXPERIMENT, TraceStore(disk_cache=healing_cache), fast=True
        )
        assert _fingerprint(second) == baseline
        assert healing_cache.corrupt_quarantined >= 1
        assert list(cache_dir.glob("*.corrupt"))

    def test_injected_engine_fault_is_a_typed_failure(self, store):
        install(FaultPlan.parse("engine.cell:raise@1"))
        with pytest.raises(FaultInjected):
            run_experiment(_EXPERIMENT, store, fast=True)


class TestCheckpointChaos:
    def test_run_killed_mid_flight_resumes_bit_identically(
        self, baseline, store, tmp_path
    ):
        ckpt_dir = tmp_path / "ckpt"
        src_dir = Path(repro.__file__).resolve().parents[1]
        script = (
            "import sys\n"
            "from repro.api import run_experiment\n"
            f"run_experiment({_EXPERIMENT!r}, fast=True, "
            "checkpoint=sys.argv[1])\n"
        )
        env = dict(
            os.environ,
            PYTHONPATH=str(src_dir),
            REPRO_FAULTS="engine.cell:crash@3",
        )
        # The injected crash hard-exits the run on its third cell: two
        # store entries are durable, the rest of the run is gone.
        process = subprocess.run(
            [sys.executable, "-c", script, str(ckpt_dir)],
            env=env,
            timeout=300,
        )
        assert process.returncode == 70  # the crash action's exit code
        assert len(list(ckpt_dir.glob("*.json"))) == 2

        resumed = checkpoint_store(ckpt_dir)
        result = run_experiment(
            _EXPERIMENT, store, fast=True, checkpoint=resumed
        )
        assert _fingerprint(result) == baseline
        assert resumed.hits == 2
        assert resumed.stores > 0


class TestReplayDeterminism:
    def test_same_plan_injects_at_identical_points(self, tmp_path):
        spec = "trace_cache.read:io_error@p=0.4;seed=9"

        def run(name):
            reset()
            plan = FaultPlan.parse(spec)
            install(plan)
            cache = TraceCache(tmp_path / name)
            cache.load_or_generate("go", "test")  # synthesise + persist, no reads
            pattern = [
                cache.load("go", "test") is not None for _ in range(10)
            ]
            log = [
                (i.site, i.ordinal, i.action) for i in plan.injections
            ]
            return pattern, log

        first_pattern, first_log = run("a")
        second_pattern, second_log = run("b")
        assert first_pattern == second_pattern
        assert first_log == second_log
        # The plan actually bites: some loads failed, some succeeded.
        assert any(first_pattern) and not all(first_pattern)


class TestServiceChaos:
    """A served fig13 job under a worker crash and a result-store
    bit-flip: the payload survives byte-identical, the poisoned store
    entry is quarantined and never served.

    fig13's eight cells reach the store as tasks first (writes 1-8), so
    the bit-flip targets write 9: the job payload's own."""

    @pytest.fixture()
    def service(self, tmp_path):
        from repro.service.server import ReproService, ServiceConfig

        install(
            FaultPlan.parse(
                "worker.child:crash@1;result_store.write:bitflip@9;seed=2"
            )
        )
        config = ServiceConfig(
            port=0,
            workers=1,
            job_timeout=300.0,
            store_dir=tmp_path / "results",
        )
        service = ReproService(config).start()
        yield service
        service.stop(drain=False)
        reset()

    def test_crash_retry_and_poisoned_store_entry(self, service):
        from repro.service.api import execute_spec, normalise_spec
        from repro.service.client import ServiceClient, ServiceError

        client = ServiceClient(service.url)
        job = client.submit_experiment(_EXPERIMENT, fast=True)
        done = client.wait(job["id"], timeout=300.0)

        # The first lease was crashed by the plan; its re-issue ran
        # clean and the job delivered a payload byte-identical to a
        # local, fault-free execution of the same normalised spec.
        assert done["attempts"] == 2
        spec = normalise_spec(
            {"type": "experiment", "experiment_id": _EXPERIMENT, "fast": True}
        )
        assert done["result"] == execute_spec(spec)

        # The persisted copy was bit-flipped in flight: the store
        # detects it on read, quarantines, and answers a miss — the
        # corrupt bytes are never served.
        with pytest.raises(ServiceError) as excinfo:
            client.result_bytes(done["result_key"])
        assert excinfo.value.status == 404
        assert service.store.stats()["corrupt_quarantined"] == 1
