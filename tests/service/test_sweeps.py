"""End-to-end ``/v1/sweeps``: fan-out, assembly, byte identity.

The acceptance property: a sweep served through ``POST /v1/sweeps``
assembles the exact bytes a local :func:`repro.sweeps.runner.run_sweep`
produces for the same spec, and the assembled payload is memoised in
the result store under the sweep's result key.
"""

from __future__ import annotations

import pytest

from repro.common.integrity import CORRUPT_SUFFIX, write_enveloped
from repro.experiments.render import dumps_canonical
from repro.service.api import cell_spec, cell_task_key
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import ReproService, ServiceConfig
from repro.sweeps.catalog import get_sweep
from repro.sweeps.expand import expand, unique_cells
from repro.sweeps.runner import run_sweep
from repro.sweeps.spec import sweep_result_key


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    config = ServiceConfig(
        port=0,
        workers=2,
        job_timeout=120.0,
        store_dir=tmp_path_factory.mktemp("sweep-store"),
    )
    service = ReproService(config).start()
    yield service
    service.stop(drain=False)


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.url)


class TestSweepEndpoints:
    def test_malformed_spec_400_names_contract(self, client):
        # "experiment" is no arm kind: a fig/table study without a cell
        # grid is posted to /v1/jobs, not /v1/sweeps.
        experiment_arm = dict(
            get_sweep("l1_size_study", fast=True),
            arms=[{"name": "experiment", "kind": "experiment"}],
        )
        for spec in ({"schema": "sweep/v2"}, experiment_arm):
            with pytest.raises(ServiceError) as err:
                client.submit_sweep(spec)
            assert err.value.status == 400
            assert "sweep/v1" in str(err.value)

    def test_unknown_sweep_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.sweep("0" * 24)
        assert err.value.status == 404

    def test_served_bytes_identical_to_local_run(self, service, client):
        spec = get_sweep("l1_size_study", fast=True)
        local = dumps_canonical(run_sweep(spec))

        view = client.submit_sweep(spec)
        assert view["schema"] == "sweep.view/1"
        assert view["state"] in ("running", "done")
        assert view["points"] == 12
        assert view["distinct_cells"] == 12

        done = client.wait_sweep(view["sweep_id"], timeout=180)
        assert done["state"] == "done"
        served = dumps_canonical(done["result"])
        assert served == local

        # The assembled payload is memoised under the sweep result key.
        assert client.result_bytes(done["result_key"]).decode() == local

        # Idempotent re-post: answered 200 from the tracked record, no
        # new submission counted.
        before = client.metrics()["metrics"]["sweeps_submitted_total"]["value"]
        again = client.submit_sweep(spec)
        assert again["sweep_id"] == view["sweep_id"]
        after = client.metrics()["metrics"]["sweeps_submitted_total"]["value"]
        assert after == before

    def test_sweep_cells_reuse_the_result_store(self, client):
        # Same cells as l1_size_study fast under a different sweep name:
        # every cell is answered from the store or deduplicated, so the
        # reuse counter moves and the sweep finishes immediately.
        spec = dict(get_sweep("l1_size_study", fast=True))
        spec = {key: value for key, value in spec.items()}
        spec["name"] = "l1-size-study-copy"
        before = client.metrics()["metrics"]
        view = client.submit_sweep(spec)
        done = client.wait_sweep(view["sweep_id"], timeout=60)
        after = client.metrics()["metrics"]
        reused = after.get("sweep_cells_reused_total", {"value": 0})["value"]
        reused_before = before.get(
            "sweep_cells_reused_total", {"value": 0}
        )["value"]
        assert reused - reused_before == 12
        # Same cell results, different sweep identity.
        assert done["result"]["sweep"]["name"] == "l1-size-study-copy"

    def test_listing_and_metrics(self, client):
        listing = client.sweeps()
        assert isinstance(listing["sweeps"], list)
        assert len(listing["sweeps"]) >= 2
        assert all("result" not in view for view in listing["sweeps"])
        metrics = client.metrics()["metrics"]
        for name in (
            "sweeps_submitted_total",
            "sweeps_completed_total",
            "sweep_cells_expanded_total",
            "sweeps_tracked",
        ):
            assert name in metrics
        assert metrics["sweeps_tracked"]["value"] == len(listing["sweeps"])

    def test_repost_after_restart_recovers_from_store(
        self, service, client, tmp_path_factory
    ):
        # A fresh board (new service sharing the store directory) has
        # no tracked record, but the assembled payload is resident:
        # the re-POST answers 200 done without queueing any job.
        spec = get_sweep("l1_size_study", fast=True)
        local = dumps_canonical(run_sweep(spec))
        config = ServiceConfig(
            port=0,
            workers=1,
            store_dir=service.config.store_dir,
        )
        fresh = ReproService(config).start()
        try:
            fresh_client = ServiceClient(fresh.url)
            view = fresh_client.submit_sweep(spec)
            assert view["state"] == "done"
            assert view["jobs"] == {}
            # The counts come from the stored payload, not from the
            # (empty) set of jobs this board submitted.
            assert view["points"] == 12
            assert view["distinct_cells"] == 12
            listed = fresh_client.sweeps()["sweeps"]
            assert [(v["points"], v["distinct_cells"]) for v in listed] == [
                (12, 12)
            ]
            done = fresh_client.sweep(view["sweep_id"])
            assert dumps_canonical(done["result"]) == local
        finally:
            fresh.stop(drain=False)

    def test_wait_sweep_timeout_is_a_service_error(self, client):
        with pytest.raises(ServiceError):
            # Unknown id: the first poll raises 404 as ServiceError.
            client.wait_sweep("f" * 24, timeout=0.5, poll=0.1)


class TestStoredEntriesDecode:
    """The board's two store reads decode like every other result-store
    read: an entry that is not the answer is quarantined, never raised."""

    def test_undecodable_sweep_payload_is_quarantined_and_recomputed(
        self, tmp_path
    ):
        spec = get_sweep("fig13", fast=True)
        entry = tmp_path / f"{sweep_result_key(spec)}.json"
        write_enveloped(entry, b"not json")
        service = ReproService(
            ServiceConfig(port=0, workers=1, store_dir=tmp_path)
        )
        body, status = service.sweeps.submit(spec)
        assert status == 202
        assert body["state"] == "running"
        assert not entry.exists()
        assert entry.with_name(entry.name + CORRUPT_SUFFIX).exists()
        # The fanned-out sweep is tracked now: a re-post answers 200.
        assert service.sweeps.submit(spec)[1] == 200

    def test_refused_cell_payload_is_quarantined(self, tmp_path):
        spec = get_sweep("fig13", fast=True)
        cell = unique_cells(expand(spec))[0]
        entry = tmp_path / f"{cell_task_key(cell)}.json"
        write_enveloped(entry, b'{"schema": "another/1"}')
        service = ReproService(
            ServiceConfig(port=0, workers=1, store_dir=tmp_path)
        )
        payload = service.sweeps._job_payload(
            "unknown-job", cell_task_key(cell), cell_spec(cell)
        )
        assert payload is None
        assert entry.with_name(entry.name + CORRUPT_SUFFIX).exists()
