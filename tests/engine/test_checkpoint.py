"""Checkpoint/resume on the result store: cell addressing, durability,
bit-identical resumed runs across jobs counts, and one namespace with
served cells."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.common.integrity import write_enveloped
from repro.engine.cells import SimCell, run_cell
from repro.engine.runner import run_cells
from repro.experiments.registry import get_experiment, run_experiment
from repro.faults import reset
from repro.service.api import (
    cell_payload,
    cell_spec,
    cell_task_key,
    payload_bytes,
)
from repro.service.result_store import DEFAULT_CAPACITY, checkpoint_store
from repro.workloads.registry import get_workload

_CELLS = [
    SimCell(workload="go", input_name="test", size_bytes=4096),
    SimCell(
        workload="go",
        input_name="test",
        kind="fvc",
        size_bytes=4096,
        fvc_entries=128,
        top_values=3,
    ),
    SimCell(workload="compress", input_name="test", size_bytes=4096),
]


@pytest.fixture(autouse=True)
def _clean_plan():
    reset()
    yield
    reset()


def _entry(directory, cell):
    """Where a checkpoint store keeps one cell's result."""
    return directory / f"{cell_task_key(cell)}.json"


class TestAddressing:
    def test_key_is_stable(self):
        again = SimCell(workload="go", input_name="test", size_bytes=4096)
        assert cell_task_key(_CELLS[0]) == cell_task_key(again)

    def test_key_separates_cells(self):
        assert len({cell_task_key(cell) for cell in _CELLS}) == len(_CELLS)

    def test_version_is_part_of_the_address(self, monkeypatch):
        before = cell_task_key(_CELLS[0])
        monkeypatch.setattr(repro, "__version__", "0.0.0+other")
        assert cell_task_key(_CELLS[0]) != before

    @pytest.mark.parametrize("change", ("version", "traces", "seed"))
    def test_entry_from_another_build_is_not_restored(
        self, tmp_path, store, monkeypatch, change
    ):
        # Written under another package version, trace-cache version or
        # input data seed, a result may not hold today's numbers.
        store.get("go", "test")  # resident before anything is patched
        checkpoint = checkpoint_store(tmp_path)
        with monkeypatch.context() as patch:
            if change == "version":
                patch.setattr(repro, "__version__", "0.0.0+other")
            elif change == "traces":
                patch.setattr("repro.service.api.TRACE_CACHE_VERSION", -1)
            else:
                workload = get_workload("go")
                table = workload.inputs()
                moved = dataclasses.replace(
                    table["test"], data_seed=table["test"].data_seed + 1
                )
                patch.setattr(
                    type(workload), "inputs",
                    lambda self: {**table, "test": moved},
                )
            run_cells(_CELLS[:1], store=store, checkpoint=checkpoint)
        run_cells(_CELLS[:1], store=store, checkpoint=checkpoint)
        assert (checkpoint.hits, checkpoint.stores) == (0, 2)


class TestRecords:
    def test_save_load_round_trip(self, tmp_path, store):
        result = run_cell(_CELLS[1], store)
        assert run_cells(
            _CELLS[1:2], store=store, checkpoint=checkpoint_store(tmp_path)
        ) == [result]
        assert _entry(tmp_path, _CELLS[1]).read_bytes()

        fresh = checkpoint_store(tmp_path)
        assert run_cells(
            _CELLS[1:2], store=store, checkpoint=fresh
        ) == [result]
        assert (fresh.hits, fresh.stores) == (1, 0)

    def test_load_missing_record(self, tmp_path, store):
        checkpoint = checkpoint_store(tmp_path)
        run_cells(_CELLS[:1], store=store, checkpoint=checkpoint)
        assert (checkpoint.hits, checkpoint.misses) == (0, 1)

    def test_corrupt_record_is_quarantined(self, tmp_path, store):
        baseline = run_cells(
            _CELLS[:1], store=store, checkpoint=checkpoint_store(tmp_path)
        )
        path = _entry(tmp_path, _CELLS[0])
        path.write_bytes(b"garbage, not an envelope")
        fresh = checkpoint_store(tmp_path)
        assert run_cells(_CELLS[:1], store=store, checkpoint=fresh) == baseline
        assert fresh.corrupt_quarantined == 1
        assert path.with_name(path.name + ".corrupt").exists()
        assert (fresh.hits, fresh.stores) == (0, 1)  # recomputed

    def _assert_refused(self, directory, store, body):
        # A valid envelope under the cell's key whose payload is no
        # result of the cell: quarantined, and the cell recomputed.
        directory.mkdir(exist_ok=True)
        write_enveloped(_entry(directory, _CELLS[0]), body)
        checkpoint = checkpoint_store(directory)
        assert run_cells(_CELLS[:1], store=store, checkpoint=checkpoint) == [
            run_cell(_CELLS[0], store)
        ]
        assert checkpoint.corrupt_quarantined == 1
        assert (checkpoint.hits, checkpoint.stores) == (0, 1)

    def test_foreign_schema_is_quarantined(self, tmp_path, store):
        self._assert_refused(tmp_path, store, b'{"schema": "something/else"}')

    def test_another_cells_result_is_quarantined(self, tmp_path, store):
        other = run_cell(_CELLS[2], store)
        self._assert_refused(
            tmp_path, store, payload_bytes(cell_payload(other))
        )


class TestResume:
    def test_checkpointed_run_matches_plain_run(self, tmp_path, store):
        baseline = run_cells(_CELLS, store=store)
        first = checkpoint_store(tmp_path)
        assert run_cells(_CELLS, store=store, checkpoint=first) == baseline
        assert first.stores == len(_CELLS)

        resumed = checkpoint_store(tmp_path)
        assert run_cells(_CELLS, store=store, checkpoint=resumed) == baseline
        assert (resumed.hits, resumed.stores) == (len(_CELLS), 0)

    def test_partial_checkpoint_reruns_only_missing_cells(
        self, tmp_path, store
    ):
        baseline = run_cells(
            _CELLS, store=store, checkpoint=checkpoint_store(tmp_path)
        )
        _entry(tmp_path, _CELLS[1]).unlink()

        resumed = checkpoint_store(tmp_path)
        assert run_cells(_CELLS, store=store, checkpoint=resumed) == baseline
        assert (resumed.hits, resumed.stores) == (len(_CELLS) - 1, 1)

    def test_resume_works_across_jobs_counts(self, tmp_path, store):
        baseline = run_cells(
            _CELLS, store=store, checkpoint=checkpoint_store(tmp_path)
        )
        _entry(tmp_path, _CELLS[0]).unlink()
        _entry(tmp_path, _CELLS[2]).unlink()

        resumed = checkpoint_store(tmp_path)
        parallel = run_cells(_CELLS, jobs=2, store=store, checkpoint=resumed)
        assert parallel == baseline
        assert (resumed.hits, resumed.stores) == (1, 2)

    def test_progress_counts_restored_cells(self, tmp_path, store):
        run_cells(_CELLS, store=store, checkpoint=checkpoint_store(tmp_path))
        seen = []
        run_cells(
            _CELLS,
            store=store,
            checkpoint=checkpoint_store(tmp_path),
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(len(_CELLS), len(_CELLS))]

    def test_admission_never_rejects_a_cell(self, tmp_path, store):
        # Stale entries up to a served store's capacity must not turn a
        # single finished cell away.
        tmp_path.mkdir(exist_ok=True)
        for index in range(DEFAULT_CAPACITY):
            write_enveloped(
                tmp_path / f"{index:024x}.json", b"{}", fsync=False
            )
        checkpoint = checkpoint_store(tmp_path)
        run_cells(_CELLS, store=store, checkpoint=checkpoint)
        assert checkpoint.admission_rejects == 0
        assert checkpoint.stores == len(_CELLS)
        assert all(_entry(tmp_path, cell).exists() for cell in _CELLS)


class TestOneNamespace:
    def test_experiments_share_cells(self, tmp_path, store):
        # fig14 plans 12 of the cells fig10 has already computed.
        checkpoint = checkpoint_store(tmp_path)
        run_experiment("fig10", store, fast=True, checkpoint=checkpoint)
        hits = checkpoint.hits
        run_experiment("fig14", store, fast=True, checkpoint=checkpoint)
        assert checkpoint.hits - hits == 12

    def test_served_cell_is_answered_from_a_checkpoint(
        self, tmp_path, store
    ):
        from repro.service.server import ReproService, ServiceConfig

        run_experiment(
            "fig13", store, fast=True, checkpoint=checkpoint_store(tmp_path)
        )
        cell = get_experiment("fig13").plan_cells(True)[0]
        service = ReproService(
            ServiceConfig(port=0, workers=1, store_dir=tmp_path)
        )
        body, status = service.submit(cell_spec(cell))
        assert (status, body["cached"], body["state"]) == (200, True, "done")
        assert service.cluster.counters["cluster_leases_issued_total"] == 0


class TestCli:
    def test_a_plain_run_imports_no_service_module(self):
        # The store comes in with --checkpoint only: a plain run keeps
        # its start-up free of the service and cluster packages.
        script = (
            "import sys\n"
            "from repro.cli import main\n"
            "assert main(['run', 'fig13', '--fast', '--json']) == 0\n"
            "print([m for m in sys.modules\n"
            "       if m.startswith(('repro.service', 'repro.cluster'))],\n"
            "      file=sys.stderr)\n"
        )
        src = Path(repro.__file__).resolve().parents[1]
        process = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert process.returncode == 0, process.stderr
        assert process.stderr.strip() == "[]"

    def test_rerun_reports_and_traces_restored_cells(
        self, tmp_path, capsys
    ):
        ckpt = tmp_path / "ckpt"
        spans = tmp_path / "spans.jsonl"
        command = ["run", "fig13", "--fast", "--json"]
        assert main(command) == 0
        plain = capsys.readouterr().out
        assert main(command + ["--checkpoint", str(ckpt)]) == 0
        assert capsys.readouterr().out == plain
        kept = sorted(ckpt.glob("*.json"))[:2]
        for entry in sorted(ckpt.glob("*.json"))[2:]:
            entry.unlink()

        assert main(
            command + ["--checkpoint", str(ckpt), "--trace-out", str(spans)]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out == plain
        assert "[checkpoint] fig13: restored 2, saved 6" in captured.err
        loads = [
            record
            for record in map(json.loads, spans.read_text().splitlines())
            if record["name"] == "checkpoint.load"
        ]
        restored = [
            record["key"]
            for record in loads
            if record["attrs"]["outcome"] == "restored"
        ]
        assert len(loads) == 8
        assert sorted(restored) == [entry.stem for entry in kept]
