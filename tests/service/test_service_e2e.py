"""End-to-end tests: HTTP server + client + workers + result store.

One in-process service (ephemeral port, real worker child processes,
temporary result store) serves the whole module.  Covers the
acceptance path: a served job's payload is byte-identical to ``repro-fvc
run --json``, and an identical resubmission is answered from the result
store without re-simulation, observable in ``/v1/metrics``.
"""

import pytest

from repro.cli import main
from repro.service.client import JobFailed, ServiceClient, ServiceError
from repro.service.server import ReproService, ServiceConfig

_EXPERIMENT = "fig9"


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    config = ServiceConfig(
        port=0,  # ephemeral
        workers=2,
        job_timeout=120.0,
        store_dir=tmp_path_factory.mktemp("result-store"),
    )
    service = ReproService(config).start()
    yield service
    service.stop(drain=False)


@pytest.fixture(scope="module")
def client(service):
    return ServiceClient(service.url)


class TestEndpoints:
    def test_healthz(self, client):
        body = client.healthz()
        assert body["status"] == "ok"
        assert body["queue_depth"] == 0
        assert "max_queue_depth" in body

    def test_metrics_shape(self, client):
        metrics = client.metrics()
        assert metrics["schema"] == "metrics/v1"
        structured = metrics["metrics"]
        for name in (
            "jobs_submitted_total",
            "jobs_completed_total",
            "jobs_failed_total",
            "jobs_cancelled_total",
            "result_store_hits_total",
            "result_store_admission_rejects_total",
            "queue_depth",
            "uptime_seconds",
        ):
            assert name in structured

    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/v1/nope")
        assert err.value.status == 404

    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.status("job-does-not-exist")
        assert err.value.status == 404

    def test_unknown_result_404(self, client):
        with pytest.raises(ServiceError) as err:
            client.result_bytes("0" * 24)
        assert err.value.status == 404

    def test_malformed_spec_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit({"type": "mystery"})
        assert err.value.status == 400

    def test_unknown_experiment_400(self, client):
        with pytest.raises(ServiceError) as err:
            client.submit_experiment("fig99")
        assert err.value.status == 400

    def test_invalid_json_body_400(self, client):
        import urllib.request

        request = urllib.request.Request(
            client.base_url + "/v1/jobs",
            data=b"not json{",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 400


class TestAcceptance:
    """The ISSUE's acceptance criteria, verbatim."""

    def test_served_result_matches_run_json_and_resubmit_hits_store(
        self, service, client, capsys
    ):
        # 1. The same experiment via the CLI's machine-readable path.
        assert main(["run", _EXPERIMENT, "--fast", "--json"]) == 0
        local = capsys.readouterr().out.encode()

        # 2. Served: submit, poll to completion, fetch.
        before = client.metrics()
        job = client.submit_experiment(_EXPERIMENT, fast=True)
        assert job["state"] in ("queued", "running", "done")
        done = client.wait(job["id"], timeout=120)
        assert done["attempts"] == 1
        assert done["stored"] is True
        key = done["result_key"]

        # Byte-identical payloads, twice (second fetch is also a hit).
        first = client.result_bytes(key)
        second = client.result_bytes(key)
        assert first == local
        assert second == local

        # 3. Identical resubmission: answered from the result store,
        #    no new simulation.
        again = client.submit(
            {"type": "experiment", "experiment_id": _EXPERIMENT, "fast": True}
        )
        assert again["state"] == "done"
        assert again["cached"] is True
        assert again["result"] is not None
        assert again["result_key"] == key

        def sample(snapshot, name):
            return snapshot["metrics"][name]["value"]

        after = client.metrics()
        assert sample(after, "jobs_completed_total") == (
            sample(before, "jobs_completed_total") + 1
        )
        # Hits: two fetches + the resubmission lookup.
        assert sample(after, "result_store_hits_total") >= (
            sample(before, "result_store_hits_total") + 3
        )
        assert "result_store_admission_rejects_total" in after["metrics"]


class TestJobLifecycle:
    def test_cell_job_round_trip(self, client):
        job = client.submit_cell(
            "go", input_name="test", kind="fvc", size_bytes=8 * 1024,
            fvc_entries=128, top_values=3,
        )
        done = client.wait(job["id"], timeout=120)
        payload = client.result(done["result_key"])
        assert payload["schema"] == "repro.cell/1"
        assert payload["extras"]["fvc_hits"] > 0

    def test_inflight_deduplication(self, client):
        spec = {
            "type": "cell",
            "workload": "li",
            "input_name": "test",
            "size_bytes": 4 * 1024,
        }
        first = client.submit(spec)
        second = client.submit(spec)
        # Either answered from the store (first finished already) or
        # deduplicated against the in-flight job — never two jobs.
        assert second["cached"] or second["id"] == first["id"]
        client.wait(first["id"], timeout=120)

    def test_cancel_queued_job_resolves(self, service, client):
        # A burst bigger than the pool guarantees some jobs queue; the
        # last is cancelled before a worker reaches it (workers are
        # busy), so it must end cancelled without simulating.
        specs = [
            {
                "type": "cell",
                "workload": "perl",
                "input_name": "test",
                "size_bytes": 1024 << index,
            }
            for index in range(6)
        ]
        submitted = [client.submit(spec) for spec in specs]
        victim = submitted[-1]
        if victim["state"] == "queued":
            client.cancel(victim["id"])
            try:
                final = client.wait(victim["id"], timeout=120)
            except JobFailed as err:
                final = err.job
            assert final["state"] in ("cancelled", "done")
        for job in submitted[:-1]:
            if job["state"] != "done":
                try:
                    client.wait(job["id"], timeout=120)
                except JobFailed:  # pragma: no cover - diagnostics
                    raise

    def test_jobs_listing(self, client):
        listing = client.jobs()
        assert isinstance(listing["jobs"], list)
        assert len(listing["jobs"]) >= 1
        assert all("result" not in job for job in listing["jobs"])
