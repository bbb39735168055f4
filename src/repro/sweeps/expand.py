"""Deterministic expansion of a ``sweep/v1`` spec into simulation
cells.

The expander is a pure function of the canonical spec: the same spec
produces the same :class:`SweepPoint` list — same cells, same order —
in every process on every machine, which is what lets a sweep run
through ``--jobs N``, the service or the cluster and still produce
bytes identical to a sequential run (the engine merges cell results in
plan order; see :func:`repro.engine.runner.run_cells`).

Expansion order
---------------

* Axes iterate in a **canonical priority order** that is independent
  of their declaration order in the document: ``workload`` outermost,
  then ``input``, then every other axis alphabetically.  Reordering
  the ``axes`` object therefore never changes the expansion.
* The *outer* axes are those relevant to **every** arm; they form the
  outermost loops.  Within one outer combination the arms run in
  **declared order**, and each arm iterates its remaining (arm-local)
  axes innermost, again in canonical priority order.
* Values *within* one axis keep their declared list order — the order
  is part of the study's meaning (e.g. ``top_values: [7, 3, 1]``).

An axis is *relevant* to an arm when the arm references it explicitly
(``"$axis"`` / ``"$axis.component"`` in its ``cell`` mapping) or when
the axis name implies a SimCell field the arm's kind binds implicitly
(see :data:`repro.sweeps.spec.IMPLICIT_FIELDS`) and the arm does not
override that field explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.cells import SimCell
from repro.sweeps.spec import AXIS_FIELDS, IMPLICIT_FIELDS, SweepSpecError

#: Axis names iterated outermost, in this order; all other axes follow
#: alphabetically.
_PRIORITY_AXES = ("workload", "input")


@dataclass(frozen=True)
class SweepPoint:
    """One expanded simulation of a sweep.

    ``coords`` maps each axis relevant to the point's arm to the value
    it took (object-axis values stay dicts).  ``cell`` is the SimCell
    the point executes.
    """

    index: int
    arm: str
    kind: str
    coords: Dict[str, object]
    cell: SimCell


def axis_order(axes: Dict[str, List[object]]) -> List[str]:
    """All axis names in canonical iteration priority order."""
    ranked = sorted(set(axes) - set(_PRIORITY_AXES))
    return [name for name in _PRIORITY_AXES if name in axes] + ranked


def _referenced_axes(arm: Dict[str, object]) -> Dict[str, str]:
    """``field -> axis(.component)`` for the arm's explicit references."""
    refs = {}
    for field, value in arm.get("cell", {}).items():
        if isinstance(value, str) and value.startswith("$"):
            refs[field] = value[1:]
    return refs


def relevant_axes(
    spec: Dict[str, object], arm: Dict[str, object]
) -> List[str]:
    """The axes an arm binds, in canonical priority order."""
    axes: Dict[str, List[object]] = spec["axes"]
    explicit = set(arm.get("cell", {}))
    bound = {
        reference.partition(".")[0]
        for reference in _referenced_axes(arm).values()
    }
    implicit_fields = IMPLICIT_FIELDS[arm["kind"]]
    for axis in axes:
        field = AXIS_FIELDS.get(axis)
        if field is None or field in explicit:
            continue
        if field in implicit_fields:
            bound.add(axis)
    return [axis for axis in axis_order(axes) if axis in bound]


def _resolve(
    field: str, value: object, coords: Dict[str, object]
) -> object:
    """A cell-field value: literal, or looked up from the coordinates."""
    if isinstance(value, str) and value.startswith("$"):
        axis, _, component = value[1:].partition(".")
        resolved = coords[axis]
        if component:
            resolved = resolved[component]
        return resolved
    return value


def _build_cell(
    arm: Dict[str, object], coords: Dict[str, object]
) -> SimCell:
    fields: Dict[str, object] = {"kind": arm["kind"]}
    explicit: Dict[str, object] = arm.get("cell", {})
    implicit_fields = IMPLICIT_FIELDS[arm["kind"]]
    for axis, field in AXIS_FIELDS.items():
        if field in explicit:
            continue
        if axis in coords and field in implicit_fields:
            fields[field] = coords[axis]
    for field in sorted(explicit):
        fields[field] = _resolve(field, explicit[field], coords)
    for field in ("workload", "input_name"):
        value = fields.get(field)
        if not isinstance(value, str):
            raise SweepSpecError(
                f"arm {arm['name']!r} resolves no {field} "
                "(bind a workload/input axis or set it in the arm)"
            )
    for field, value in fields.items():
        if field in ("workload", "input_name", "kind"):
            continue
        if not isinstance(value, int) or isinstance(value, bool):
            raise SweepSpecError(
                f"arm {arm['name']!r} field {field!r} resolved to "
                f"non-integer {value!r}"
            )
    return SimCell(**fields)


def expand(spec: Dict[str, object]) -> List[SweepPoint]:
    """Expand a normalised sweep spec into its plan-order points."""
    axes: Dict[str, List[object]] = spec["axes"]
    arms: Sequence[Dict[str, object]] = spec["arms"]
    per_arm = {arm["name"]: relevant_axes(spec, arm) for arm in arms}
    unused = [
        axis
        for axis in axis_order(axes)
        if all(axis not in relevant for relevant in per_arm.values())
    ]
    if unused:
        raise SweepSpecError(
            f"axes {unused} bind no arm (name them after a SimCell field "
            "or reference them from an arm's cell mapping)"
        )
    outer = [
        axis
        for axis in axis_order(axes)
        if all(axis in relevant for relevant in per_arm.values())
    ]
    points: List[SweepPoint] = []
    for outer_values in product(*(axes[axis] for axis in outer)):
        outer_coords = dict(zip(outer, outer_values))
        for arm in arms:
            inner = [
                axis for axis in per_arm[arm["name"]] if axis not in outer
            ]
            for inner_values in product(*(axes[axis] for axis in inner)):
                coords = dict(outer_coords)
                coords.update(zip(inner, inner_values))
                points.append(
                    SweepPoint(
                        index=len(points),
                        arm=arm["name"],
                        kind=arm["kind"],
                        coords=coords,
                        cell=_build_cell(arm, coords),
                    )
                )
    return points


def expand_cells(spec: Dict[str, object]) -> List[SimCell]:
    """Just the cells, plan order — the experiment integration point
    (:meth:`repro.experiments.base.Experiment.plan_cells`)."""
    return [point.cell for point in expand(spec)]


def unique_cells(points: Sequence[SweepPoint]) -> List[SimCell]:
    """Distinct cells in first-occurrence order.

    Sweeps may expand the same cell under several arms or coordinate
    combinations; executing the distinct set once and fanning the
    results back out is what the service's result-store memo does
    cluster-wide, applied locally.
    """
    seen = set()
    ordered: List[SimCell] = []
    for point in points:
        if point.cell not in seen:
            seen.add(point.cell)
            ordered.append(point.cell)
    return ordered


def replicate_axis(spec: Dict[str, object]) -> Optional[str]:
    """The axis aggregation collapses: the one binding ``input_name``.

    By convention this is the axis named ``input`` (each workload input
    carries its own data seed, so inputs are the replicate dimension).
    Returns ``None`` when the spec binds no input axis or it has a
    single value (nothing to aggregate across).
    """
    axes: Dict[str, List[object]] = spec["axes"]
    if "input" in axes and len(axes["input"]) > 1:
        return "input"
    return None


def coord_columns(spec: Dict[str, object]) -> List[Tuple[str, Optional[str]]]:
    """Report coordinate columns, canonical order: ``(axis, component)``
    pairs, with ``component=None`` for scalar axes.  The replicate axis
    is excluded (it is aggregated away)."""
    from repro.sweeps.spec import axis_components

    axes: Dict[str, List[object]] = spec["axes"]
    collapsed = replicate_axis(spec)
    columns: List[Tuple[str, Optional[str]]] = []
    for axis in axis_order(axes):
        if axis == collapsed:
            continue
        components = axis_components(axes, axis)
        if components is None:
            columns.append((axis, None))
        else:
            columns.extend((axis, component) for component in components)
    return columns
