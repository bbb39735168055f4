"""Job specifications, result keys and the worker-side executor.

A *job spec* is the service's unit of work: a plain-JSON dict naming
either one whole experiment (``{"type": "experiment", "experiment_id":
"fig10", "fast": true}``) or one engine simulation cell (``{"type":
"cell", "workload": "gcc", ...}`` — the :class:`repro.engine.cells
.SimCell` fields).  Specs are normalised to a canonical form before
anything else happens, so two requests that mean the same work hash to
the same **result key** regardless of field order or omitted defaults.

The result key is content-addressed the same way the trace cache
addresses traces: a SHA-256 digest over the normalised spec, the
workload input's data seed (for cell jobs), the package version and the
trace-cache version.  Identical submissions therefore resolve to the
same stored payload across server restarts, and any change that could
alter results (new code version, regenerated traces) silently retires
old entries instead of serving stale ones.

A cell's wire form lives here too: its spec (:func:`cell_spec`), its
key (:func:`cell_task_key`), its payload (:func:`cell_payload`) and the
one decoder every stored answer passes before it is used
(:func:`decode_payload`).  Served jobs, cluster tasks and ``run
--checkpoint`` therefore share one result namespace: a cell computed
by any of them is an answer for all of them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Callable, Dict, Optional, get_type_hints

from repro.common.errors import ConfigurationError
from repro.engine.cells import CellResult, SimCell
from repro.engine.trace_cache import TRACE_CACHE_VERSION
from repro.experiments.render import (
    dumps_canonical,
    dumps_compact,
    experiment_payload,
)

#: Bump when the spec normalisation or payload shape changes
#: incompatibly; part of every result key.
SPEC_VERSION = 1

#: Schema tag stamped on cell JSON payloads.
CELL_SCHEMA = "repro.cell/1"

#: A cell spec's fields and their types: exactly the SimCell fields.
_CELL_TYPES = get_type_hints(SimCell)


class SpecError(ConfigurationError):
    """A submitted job spec is malformed (HTTP 400 at the API edge)."""


def _require_type(spec: Dict, field: str, kind: type, default=None):
    value = spec.get(field, default)
    if value is None:
        raise SpecError(f"spec field {field!r} is required")
    # bool is an int subclass; reject True where an int is expected.
    if kind is int and isinstance(value, bool):
        raise SpecError(f"spec field {field!r} must be an integer")
    if not isinstance(value, kind):
        raise SpecError(
            f"spec field {field!r} must be {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def normalise_spec(spec: object) -> Dict:
    """Validate a raw (JSON-decoded) spec and return its canonical form.

    The canonical form spells out every field, so equality of
    normalised specs is equality of the work they describe.  Raises
    :class:`SpecError` on anything malformed and
    :class:`~repro.common.errors.ConfigurationError` on unknown
    experiment/workload names.
    """
    if not isinstance(spec, dict):
        raise SpecError("job spec must be a JSON object")
    kind = spec.get("type")
    if kind == "experiment":
        from repro.experiments.registry import get_experiment

        experiment_id = _require_type(spec, "experiment_id", str)
        get_experiment(experiment_id)  # raises on unknown ids
        return {
            "type": "experiment",
            "experiment_id": experiment_id,
            "fast": bool(spec.get("fast", False)),
        }
    if kind == "cell":
        from repro.workloads.registry import get_workload

        unknown = set(spec) - set(_CELL_TYPES) - {"type"}
        if unknown:
            raise SpecError(f"unknown cell spec fields: {sorted(unknown)}")
        cell = SimCell(
            **{
                f.name: _require_type(
                    spec,
                    f.name,
                    _CELL_TYPES[f.name],
                    None if f.default is dataclasses.MISSING else f.default,
                )
                for f in dataclasses.fields(SimCell)
            }
        )
        if cell.kind not in ("baseline", "fvc", "classify"):
            raise SpecError(f"unknown cell kind {cell.kind!r}")
        # Raises on unknown workloads/inputs, and validates geometry.
        get_workload(cell.workload).input_named(cell.input_name)
        cell.geometry()
        return cell_spec(cell)
    raise SpecError(
        f"spec 'type' must be 'experiment' or 'cell', got {kind!r}"
    )


def result_key(spec: Dict) -> str:
    """The content hash addressing one normalised spec's result.

    Covers everything the payload is a function of: the spec itself,
    the package version, the trace-cache version, and — for cell jobs —
    the data seed of the referenced workload input.
    """
    from repro import __version__

    material: Dict[str, object] = {
        "v": SPEC_VERSION,
        "code": __version__,
        "traces": TRACE_CACHE_VERSION,
        "spec": spec,
    }
    if spec.get("type") == "cell":
        from repro.workloads.registry import get_workload

        inp = get_workload(spec["workload"]).input_named(spec["input_name"])
        material["seed"] = inp.data_seed
    digest = hashlib.sha256(dumps_compact(material).encode())
    return digest.hexdigest()[:24]


def cell_spec(cell: SimCell) -> Dict[str, object]:
    """A cell as its normalised ``type: cell`` job spec: ``{"type":
    "cell"}`` plus the SimCell fields.  Leases carry cells in this form,
    and sweeps submit them in it."""
    spec: Dict[str, object] = {"type": "cell"}
    spec.update(dataclasses.asdict(cell))
    return spec


def cell_task_key(cell: SimCell) -> str:
    """The result key of one cell: the key of its ``type: cell`` job
    spec, so a cell computed by a served job, a cluster task or a
    checkpointed run is stored under the one key all of them read."""
    return result_key(cell_spec(cell))


def cell_payload(result: CellResult) -> Dict:
    """A :class:`CellResult` as a plain-JSON-types dict (the cell-job
    analogue of :func:`repro.experiments.render.experiment_payload`)."""
    return {
        "schema": CELL_SCHEMA,
        "cell": dataclasses.asdict(result.cell),
        "stats": dict(result.stats),
        "extras": dict(result.extras),
    }


def cell_result(cell: SimCell, payload: Dict) -> CellResult:
    """The :class:`CellResult` a decoded cell payload holds.  JSON keeps
    int apart from float, so the dicts are the originals bit for bit."""
    return CellResult(
        cell=cell,
        stats=dict(payload["stats"]),
        extras=dict(payload["extras"]),
    )


def valid_payload(spec: Dict, payload: object) -> bool:
    """Whether ``payload`` is a plausible result of the normalised
    ``spec``: a cell payload of this schema for exactly the spec's
    cell, or an experiment payload of the spec's experiment."""
    if not isinstance(payload, dict):
        return False
    if spec.get("type") == "cell":
        cell = {name: value for name, value in spec.items() if name != "type"}
        return (
            payload.get("schema") == CELL_SCHEMA
            and payload.get("cell") == cell
            and isinstance(payload.get("stats"), dict)
            and isinstance(payload.get("extras"), dict)
        )
    return payload.get("experiment_id") == spec.get("experiment_id")


def decode_payload(spec: Dict, blob: bytes) -> Optional[Dict]:
    """The payload stored bytes hold for ``spec``, or ``None`` when they
    are not JSON or not a result of ``spec`` (another cell's, another
    schema's).  Every result-store read that answers a spec decodes
    through here; pass ``functools.partial(decode_payload, spec)`` as
    the store's ``decode``, so a refused entry is quarantined."""
    try:
        payload = json.loads(blob)
    except ValueError:
        return None
    return payload if valid_payload(spec, payload) else None


def payload_bytes(payload: Dict) -> bytes:
    """Canonical JSON encoding of a payload — the exact bytes the
    result store persists and ``/v1/results/<key>`` serves."""
    return dumps_canonical(payload).encode("utf-8")


def execute_spec(
    spec: Dict,
    progress: Optional[Callable[[int, int], None]] = None,
    store=None,
) -> Dict:
    """Run one normalised spec to its JSON payload.

    This is the function every worker runs on a leased spec, with its
    own trace ``store`` (default: the process's shared store).  It goes
    through the exact same engine path as the CLI
    (:func:`repro.engine.cells.run_cell` /
    :meth:`repro.experiments.base.Experiment.run_with_engine`), which is
    what makes a served result byte-identical to a local run.
    """
    if store is None:
        from repro.workloads.store import shared_store

        store = shared_store
    if spec["type"] == "experiment":
        from repro.experiments.registry import get_experiment

        experiment = get_experiment(spec["experiment_id"])
        result = experiment.run_with_engine(
            store, fast=spec["fast"], jobs=1, progress=progress
        )
        return experiment_payload(result)
    if spec["type"] == "cell":
        from repro.engine.cells import run_cell

        cell = SimCell(**{k: v for k, v in spec.items() if k != "type"})
        if progress is not None:
            progress(0, 1)
        result = run_cell(cell, store)
        if progress is not None:
            progress(1, 1)
        return cell_payload(result)
    raise SpecError(f"cannot execute spec type {spec.get('type')!r}")
