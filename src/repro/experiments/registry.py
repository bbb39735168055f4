"""Experiment registry: id → runner instance."""

from __future__ import annotations

from typing import Dict, List

from repro.common.errors import ConfigurationError
from repro.experiments.base import Experiment
from repro.experiments.fig01_fvl import Fig01FrequentValues
from repro.experiments.fig02_fvl_fp import Fig02FrequentValuesFp
from repro.experiments.fig03_timeline import Fig03Timeline
from repro.experiments.fig04_miss_attribution import Fig04MissAttribution
from repro.experiments.fig05_spatial import Fig05Spatial
from repro.experiments.table1_top_values import Table1TopValues
from repro.experiments.table2_sensitivity import Table2InputSensitivity
from repro.experiments.table3_stability import Table3Stability
from repro.experiments.table4_constancy import Table4Constancy
from repro.experiments.fig09_access_time import Fig09AccessTime
from repro.experiments.fig10_fvc_size import Fig10FvcSize
from repro.experiments.fig11_compression import Fig11Compression
from repro.experiments.fig12_value_count import Fig12ValueCount
from repro.experiments.fig13_dmc_vs_fvc import Fig13DmcVsFvc
from repro.experiments.fig14_associativity import Fig14Associativity
from repro.experiments.fig15_victim import Fig15Victim
from repro.experiments.ablations import (
    AblationDynamic,
    AblationInclusive,
    AblationInsertEmpty,
    AblationWriteAllocate,
)
from repro.experiments.extensions import (
    ExtCompressionCache,
    ExtCrossInput,
    ExtHierarchy,
    ExtPerformance,
    ExtEnergy,
    ExtFvcAssociativity,
    ExtHybrid,
    ExtWriteThroughTraffic,
)

#: Every experiment, paper order first, then the ablations.
EXPERIMENTS: Dict[str, Experiment] = {
    exp.experiment_id: exp
    for exp in (
        Fig01FrequentValues(),
        Fig02FrequentValuesFp(),
        Fig03Timeline(),
        Fig04MissAttribution(),
        Fig05Spatial(),
        Table1TopValues(),
        Table2InputSensitivity(),
        Table3Stability(),
        Table4Constancy(),
        Fig09AccessTime(),
        Fig10FvcSize(),
        Fig11Compression(),
        Fig12ValueCount(),
        Fig13DmcVsFvc(),
        Fig14Associativity(),
        Fig15Victim(),
        AblationWriteAllocate(),
        AblationInclusive(),
        AblationInsertEmpty(),
        AblationDynamic(),
        ExtWriteThroughTraffic(),
        ExtEnergy(),
        ExtCrossInput(),
        ExtFvcAssociativity(),
        ExtHybrid(),
        ExtCompressionCache(),
        ExtHierarchy(),
        ExtPerformance(),
    )
}


def get_experiment(experiment_id: str) -> Experiment:
    """Look up a runner by id."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(EXPERIMENTS)
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r} (have: {known})"
        ) from None


def experiment_ids() -> List[str]:
    """All registered experiment ids, registry order."""
    return list(EXPERIMENTS)


def run_experiment(
    experiment_id: str,
    store=None,
    fast: bool = False,
    jobs: int = 1,
    checkpoint=None,
):
    """Run one experiment, fanning its simulation cells across ``jobs``
    worker processes when it decomposes (see
    :meth:`repro.experiments.base.Experiment.run_with_engine`).
    Deterministic: any ``jobs`` value produces identical results, with
    or without a ``checkpoint`` result store
    (:func:`repro.service.result_store.checkpoint_store`)."""
    return get_experiment(experiment_id).run_with_engine(
        store, fast=fast, jobs=jobs, checkpoint=checkpoint
    )
