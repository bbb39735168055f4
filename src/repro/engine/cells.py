"""Simulation cells: picklable ``workload x cache-config`` work units.

A :class:`SimCell` describes one simulation the experiment suite needs —
a baseline cache, a DMC+FVC system, or a 3C classification, over one
workload trace — compactly enough to ship to a worker process.  The
worker regenerates nothing it can share: traces come through the
content-addressed trace cache, and the encoder is rebuilt from the
trace's (memoised) access profile, so two cells over the same workload
pay for the trace exactly once per process and once per machine.

:func:`run_cell` is the single execution path used both sequentially
(by the experiments' ``run``) and in parallel (by
:func:`repro.engine.runner.run_cells`), which is what makes the
parallel results bit-identical to the sequential ones.  Baseline,
FVC and classify cells replay through
:func:`repro.experiments.common.baseline_stats`,
:func:`repro.experiments.common.fvc_replay` and
:func:`repro.experiments.common.classify_replay`, the one
kernel-or-oracle path per kind.  The runtime sanitizer
(:mod:`repro.analysis.sanitize`, enabled by ``REPRO_SANITIZE=1``)
hooks in there, so sanitized parallel runs, sanitized sequential runs
and the studies that call those helpers directly all exercise the same
invariants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict

from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.common.errors import ConfigurationError


@dataclass(frozen=True)
class SimCell:
    """One simulation work unit.

    ``kind`` selects the simulator:

    * ``"baseline"`` — :class:`DirectMappedCache` /
      :class:`SetAssociativeCache` per ``ways``;
    * ``"fvc"`` — :class:`repro.fvc.system.FvcSystem` with
      ``fvc_entries`` entries exploiting the top ``top_values`` values;
    * ``"classify"`` — 3C miss classification
      (:func:`repro.cache.classify.classify_misses`, or its
      direct-mapped kernel).
    """

    workload: str
    input_name: str = "ref"
    kind: str = "baseline"
    size_bytes: int = 16 * 1024
    line_bytes: int = 32
    ways: int = 1
    fvc_entries: int = 512
    top_values: int = 7

    def geometry(self) -> CacheGeometry:
        """The cache geometry this cell simulates."""
        return CacheGeometry(self.size_bytes, self.line_bytes, ways=self.ways)


@dataclass
class CellResult:
    """Picklable outcome of one cell.

    ``stats`` is the :meth:`repro.cache.stats.CacheStats.as_dict`
    snapshot; ``extras`` carries simulator-specific counters (FVC hit
    breakdown, 3C class counts).
    """

    cell: SimCell
    stats: Dict[str, int]
    extras: Dict[str, int] = field(default_factory=dict)

    def cache_stats(self) -> CacheStats:
        """Rebuild a :class:`CacheStats` from the snapshot."""
        stats = CacheStats()
        for name in CacheStats.__slots__:
            setattr(stats, name, self.stats[name])
        return stats


def cell_span_key(cell: SimCell) -> str:
    """The content-derived span key for a cell: every field that selects
    the simulation, so the same cell has the same span id in every run
    and every process (see :mod:`repro.obs.tracing`)."""
    return (
        f"{cell.kind}/{cell.workload}/{cell.input_name}/"
        f"{cell.size_bytes}/{cell.line_bytes}/{cell.ways}/"
        f"{cell.fvc_entries}/{cell.top_values}"
    )


def _record_cell_metrics(references: int, elapsed: float) -> None:
    """Feed the opt-in hot-loop accounting (no-op unless REPRO_OBS=1)."""
    from repro import obs

    if not obs.enabled():
        return
    registry = obs.registry()
    registry.counter("engine_cells_total").inc()
    registry.counter("engine_cell_references_total").inc(references)
    registry.histogram("engine_cell_seconds").observe(elapsed)


def run_cell(cell: SimCell, store=None) -> CellResult:
    """Execute one cell against the given trace store (defaults to the
    process-wide :data:`repro.workloads.store.shared_store`)."""
    # Imported lazily: cells are constructed in contexts (CLI parsing,
    # planning) that should not pay for the experiment stack.
    from repro.faults.sites import fault_point
    from repro.obs import tracing
    from repro.workloads.store import shared_store

    fault_point("engine.cell")
    if store is None:
        store = shared_store
    with tracing.span(
        "engine.cell",
        key=cell_span_key(cell),
        attrs={
            "workload": cell.workload,
            "input": cell.input_name,
            "kind": cell.kind,
        },
    ):
        started = time.perf_counter()
        trace = store.get(cell.workload, cell.input_name)
        result = _simulate(cell, trace)
        _record_cell_metrics(len(trace), time.perf_counter() - started)
    return result


def _simulate(cell: SimCell, trace) -> CellResult:
    """Dispatch one cell to its simulator (the observable unit of
    :func:`run_cell`; callers go through ``run_cell``, never here)."""
    from repro.experiments.common import (
        baseline_stats,
        classify_replay,
        fvc_replay,
    )

    geometry = cell.geometry()

    if cell.kind == "baseline":
        stats = baseline_stats(trace, geometry)
        return CellResult(cell=cell, stats=stats.as_dict())

    if cell.kind == "fvc":
        stats, extras = fvc_replay(
            trace, geometry, cell.fvc_entries, cell.top_values
        )
        return CellResult(cell=cell, stats=stats.as_dict(), extras=extras)

    if cell.kind == "classify":
        result = classify_replay(trace, geometry)
        return CellResult(
            cell=cell,
            stats=CacheStats().as_dict(),
            extras={
                "accesses": result.accesses,
                "compulsory": result.compulsory,
                "capacity": result.capacity,
                "conflict": result.conflict,
            },
        )

    raise ConfigurationError(f"unknown cell kind {cell.kind!r}")
