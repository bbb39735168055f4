"""Determinism of the parallel runner.

The contract under test: any ``jobs`` value produces results
bit-identical to a sequential run, because ``executor.map`` preserves
submission order and every worker executes the same
:func:`repro.engine.cells.run_cell` path over the same
content-addressed trace.
"""

import pytest

from repro.engine.cells import SimCell, run_cell
from repro.engine.runner import default_jobs, run_cells, run_experiments
from repro.experiments.registry import get_experiment, run_experiment

pytestmark = pytest.mark.slow  # spawns worker processes


def _mixed_cells():
    cells = []
    for name in ("go", "compress"):
        cells.append(SimCell(workload=name, input_name="test"))
        cells.append(
            SimCell(
                workload=name, input_name="test", kind="fvc", fvc_entries=128
            )
        )
    cells.append(SimCell(workload="go", input_name="test", kind="classify"))
    return cells


class TestRunCells:
    def test_parallel_bit_identical_to_sequential(self, store):
        cells = _mixed_cells()
        sequential = run_cells(cells, jobs=1, store=store)
        parallel = run_cells(cells, jobs=2, store=store)
        assert parallel == sequential

    def test_results_come_back_in_cell_order(self, store):
        cells = _mixed_cells()
        results = run_cells(cells, jobs=2, store=store)
        assert [result.cell for result in results] == cells

    def test_default_jobs_positive(self):
        assert default_jobs() >= 1

    def test_executor_progress_never_moves_backwards(self, store):
        cells = _mixed_cells()[:3]
        seen = []

        def executor(pending, progress, should_cancel, store):
            for done in range(1, len(pending) + 1):
                progress(done, len(pending))
            return [run_cell(cell, store) for cell in pending]

        run_cells(
            cells, store=store, executor=executor,
            progress=lambda done, total: seen.append((done, total)),
        )
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestExperimentEngine:
    def test_fig10_parallel_matches_sequential(self, store):
        experiment = get_experiment("fig10")
        sequential = experiment.run(store, fast=True)
        parallel = experiment.run_with_engine(store, fast=True, jobs=2)
        assert parallel.headers == sequential.headers
        assert parallel.rows == sequential.rows

    def test_registry_dispatch_honours_jobs(self, store):
        sequential = run_experiment("fig13", store, fast=True, jobs=1)
        parallel = run_experiment("fig13", store, fast=True, jobs=2)
        assert parallel.rows == sequential.rows

    def test_undecomposed_experiment_falls_back_to_run(self, store):
        # table1 plans no cells; run_with_engine must still produce the
        # sequential result rather than fail.
        experiment = get_experiment("table1")
        assert experiment.plan_cells(fast=True) is None
        result = experiment.run_with_engine(store, fast=True, jobs=2)
        assert result.rows == experiment.run(store, fast=True).rows

    def test_whole_experiment_fanout(self, store):
        ids = ["fig10", "fig13"]
        sequential = [get_experiment(i).run(store, fast=True) for i in ids]
        parallel = run_experiments(ids, jobs=2, fast=True, store=store)
        assert [result.experiment_id for result in parallel] == ids
        for par, seq in zip(parallel, sequential):
            assert par.rows == seq.rows
