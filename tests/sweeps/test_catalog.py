"""The built-in sweep catalog against the experiment registry.

The catalog holds only cell grids.  The catalogued names that are
experiment ids are exactly the experiments that plan cells, each grid
plans exactly what its experiment plans, and every other experiment is
pointed at ``repro-fvc run``.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.registry import EXPERIMENTS, get_experiment
from repro.sweeps.catalog import get_sweep, sweep_names
from repro.sweeps.expand import expand_cells
from repro.sweeps.spec import SweepSpecError

#: Experiments with a cell grid, derived from the registry.
GRID_EXPERIMENTS = sorted(
    experiment_id
    for experiment_id, experiment in EXPERIMENTS.items()
    if experiment.plan_cells(fast=True) is not None
)


class TestCoverage:
    def test_report_fields_always_non_empty(self):
        for name in sweep_names():
            fields = get_sweep(name, fast=True)["report"]["fields"]
            assert fields, f"sweep {name!r} declares no fields"

    def test_unknown_name_rejected_with_catalog(self):
        with pytest.raises(SweepSpecError, match="l1_size_study"):
            get_sweep("fig99")
        # An experiment without a grid is pointed at `repro-fvc run`.
        for experiment_id in sorted(set(EXPERIMENTS) - set(GRID_EXPERIMENTS)):
            with pytest.raises(SweepSpecError) as err:
                get_sweep(experiment_id)
            assert f"repro-fvc run {experiment_id}" in str(err.value)

    def test_specs_are_normalised_and_json_clean(self):
        for name in sweep_names():
            for fast in (False, True):
                spec = get_sweep(name, fast=fast)
                assert spec["schema"] == "sweep/v1"
                assert spec["name"] == name
                # Canonical specs survive a JSON round trip unchanged.
                assert json.loads(json.dumps(spec)) == spec


class TestCellSweepsMatchExperiments:
    @pytest.mark.parametrize("fast", (True, False))
    def test_catalogued_experiments_are_the_grid_experiments(self, fast):
        planned = sorted(
            experiment_id
            for experiment_id, experiment in EXPERIMENTS.items()
            if experiment.plan_cells(fast=fast) is not None
        )
        catalogued = sorted(set(sweep_names()) & set(EXPERIMENTS))
        assert catalogued == planned == GRID_EXPERIMENTS

    @pytest.mark.parametrize("experiment_id", GRID_EXPERIMENTS)
    @pytest.mark.parametrize("fast", (True, False))
    def test_expansion_equals_experiment_plan(self, experiment_id, fast):
        spec = get_sweep(experiment_id, fast=fast)
        planned = get_experiment(experiment_id).plan_cells(fast=fast)
        assert expand_cells(spec) == planned

    def test_experiment_sweep_backing_accessor(self):
        experiment = get_experiment("fig10")
        assert experiment.sweep_backing(fast=True) == get_sweep(
            "fig10", fast=True
        )
