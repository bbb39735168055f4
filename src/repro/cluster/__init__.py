"""The one executor of served jobs: a scheduler plus its workers.

A ``repro-fvc serve`` process is the **coordinator**: it owns the job
queue, the result store and a :class:`~repro.cluster.coordinator
.ClusterScheduler` that runs every served job as tasks — a grid
experiment's content-addressed :class:`~repro.engine.cells.SimCell`
units, or the one spec.  ``serve --workers K`` forks K local worker
processes that pull tasks over a pipe (:mod:`repro.cluster.pipe`);
thin ``repro-fvc worker --coordinator URL`` processes register
themselves, heartbeat, and pull tasks over the extended ``/v1``
protocol (``/v1/workers``, ``/v1/cells/lease``,
``/v1/cells/<id>/result`` — see ``docs/CLUSTER.md``).  Both run the
same worker loop (:func:`repro.cluster.worker.work_loop`).

Determinism is inherited, not re-proved: every worker runs a leased
spec through the one shared :func:`repro.service.api.execute_spec`
path, cells are pure functions of their content-addressed inputs, and
the coordinator merges results in plan order — so a fig13 sweep
sharded across three hosts produces payload bytes identical to ``run
--jobs 1``.  Failure handling leans on the same property: leases expire
and re-issue on worker loss, idle workers steal queued tasks from
loaded ones, and duplicated computation (a stale worker finishing a
stolen task) is harmless because every copy computes the same result.
"""

from repro.cluster.coordinator import ClusterScheduler, TaskFailed
from repro.cluster.protocol import (
    DEFAULT_WORKER_TTL_SECONDS,
    LEASE_SCHEMA,
    WORKER_SCHEMA,
    WORKERS_SCHEMA,
)
from repro.cluster.worker import WorkerConfig, run_worker

__all__ = [
    "ClusterScheduler",
    "DEFAULT_WORKER_TTL_SECONDS",
    "LEASE_SCHEMA",
    "TaskFailed",
    "WORKER_SCHEMA",
    "WORKERS_SCHEMA",
    "WorkerConfig",
    "run_worker",
]
