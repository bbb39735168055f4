"""Local sweep execution and payload assembly.

:func:`run_sweep` executes a normalised ``sweep/v1`` spec through the
engine — distinct cells once each, fanned across ``--jobs`` processes
when asked — and assembles the ``sweep.result/1`` payload.  The
assembly itself (:func:`sweep_payload`) is a pure function of the spec
and the per-cell snapshots; the service's ``/v1/sweeps`` endpoint
builds its payload through the very same function over the stored cell
payloads, which is what makes a served sweep's bytes identical to a
local run's.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.sweeps.expand import SweepPoint, expand, unique_cells
from repro.sweeps.report import Snapshot, build_report
from repro.sweeps.spec import sweep_id, sweep_result_key

#: Schema tag on assembled sweep payloads; bump on shape change.
SWEEP_RESULT_SCHEMA = "sweep.result/1"


def sweep_payload(
    spec: Dict[str, object],
    points: Sequence[SweepPoint],
    snapshots: Sequence[Snapshot],
    distinct_cells: int,
) -> Dict[str, object]:
    """Assemble the canonical result payload of a sweep.

    Pure: every execution path — local sequential, ``--jobs N``, the
    service, the cluster — converges here with the same snapshots in
    the same (expansion) order, and therefore emits the same bytes.
    """
    headers, rows = build_report(spec, points, snapshots)
    return {
        "schema": SWEEP_RESULT_SCHEMA,
        "sweep": spec,
        "sweep_id": sweep_id(spec),
        "result_key": sweep_result_key(spec),
        "points": len(points),
        "distinct_cells": distinct_cells,
        "headers": headers,
        "rows": rows,
    }


def snapshots_for(
    points: Sequence[SweepPoint],
    by_cell: Dict[object, Snapshot],
) -> List[Snapshot]:
    """Fan distinct-cell snapshots back out to expansion order."""
    return [by_cell[point.cell] for point in points]


def run_sweep(
    spec: Dict[str, object],
    store=None,
    jobs: int = 1,
    progress=None,
    executor=None,
) -> Dict[str, object]:
    """Execute a normalised sweep spec and return its
    ``sweep.result/1`` payload.

    ``jobs`` / ``progress`` / ``executor`` carry the engine's existing
    cell-runner contract; results merge in plan order, so any ``jobs``
    value yields identical payload bytes.
    """
    from repro.engine.runner import run_cells

    points = expand(spec)
    distinct = unique_cells(points)
    results = run_cells(
        distinct,
        jobs=jobs,
        store=store,
        progress=progress,
        executor=executor,
    )
    by_cell: Dict[object, Snapshot] = {
        cell: (result.stats, result.extras)
        for cell, result in zip(distinct, results)
    }
    return sweep_payload(
        spec, points, snapshots_for(points, by_cell), len(distinct)
    )


def describe_sweep(spec: Dict[str, object]) -> Dict[str, object]:
    """A static description of a normalised spec: identity, expansion
    size and report shape, without running anything."""
    description: Dict[str, object] = {
        "schema": spec["schema"],
        "name": spec["name"],
        "sweep_id": sweep_id(spec),
        "result_key": sweep_result_key(spec),
        "axes": {
            axis: len(values) for axis, values in spec["axes"].items()
        },
        "arms": [arm["name"] for arm in spec["arms"]],
        "report": spec["report"],
    }
    if "title" in spec:
        description["title"] = spec["title"]
    points = expand(spec)
    description["points"] = len(points)
    description["distinct_cells"] = len(unique_cells(points))
    return description
