"""Wire vocabulary shared by the coordinator and its workers.

The cluster protocol is a thin extension of the service's ``/v1`` JSON
API (``docs/CLUSTER.md`` documents every endpoint).  This module holds
what both sides must agree on: schema tags, default timing constants,
and a cell's task form (its spec and key).

A leased task travels as its normalised job spec (a cell's spec is
``{"type": "cell"}`` plus the :class:`~repro.engine.cells.SimCell`
fields), and a task's key is exactly the service's
:func:`repro.service.api.result_key` over that spec.  Sharing the key
space is what makes the result store a cluster-wide memo: a cell
computed by any worker is stored under the same key a direct ``POST
/v1/jobs`` cell submission resolves to, so a cell computed anywhere is
served everywhere.
"""

from __future__ import annotations

from typing import Dict

from repro.engine.cells import SimCell
from repro.service.api import _CELL_FIELDS, result_key

#: Schema tag on registration responses and heartbeat acknowledgements.
WORKER_SCHEMA = "worker/v1"

#: Schema tag on the ``GET /v1/workers`` fabric view.
WORKERS_SCHEMA = "workers/v1"

#: Schema tag on lease grants (``POST /v1/cells/lease`` responses).
LEASE_SCHEMA = "lease/v2"

#: How long a silent worker stays registered.  Workers heartbeat at a
#: third of this, so one dropped beat never kills a healthy worker.
DEFAULT_WORKER_TTL_SECONDS = 10.0

#: How many leases a worker pulls per request by default.  Values > 1
#: amortise round trips; the coordinator's work stealing rebalances
#: any resulting skew.
DEFAULT_LEASE_BATCH = 2

#: Lease attempts per task before the task fails (``serve --retries 2``).
DEFAULT_MAX_ATTEMPTS = 3


def cell_fields(cell: SimCell) -> Dict[str, object]:
    """A cell as its plain JSON field dict (the wire form)."""
    return {name: getattr(cell, name) for name in _CELL_FIELDS}


def cell_spec(cell: SimCell) -> Dict[str, object]:
    """A cell as its normalised ``type: cell`` job spec."""
    spec: Dict[str, object] = {"type": "cell"}
    spec.update(cell_fields(cell))
    return spec


def cell_task_key(cell: SimCell) -> str:
    """The content-addressed key of one cell's result.

    Identical to the result key of the equivalent ``type: cell`` job
    spec, by construction — the cluster and the job API share one
    result namespace.
    """
    return result_key(cell_spec(cell))
