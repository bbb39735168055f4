"""Wire vocabulary shared by the coordinator and its workers.

The cluster protocol is a thin extension of the service's ``/v1`` JSON
API (``docs/CLUSTER.md`` documents every endpoint).  This module holds
what both sides must agree on: schema tags and default timing
constants.

A leased task travels as its normalised job spec (a cell's is
:func:`repro.service.api.cell_spec`), and a task's key is exactly the
service's :func:`repro.service.api.result_key` over that spec.  Sharing
the key space is what makes the result store a cluster-wide memo: a
cell computed by any worker is stored under the same key a direct
``POST /v1/jobs`` cell submission resolves to, so a cell computed
anywhere is served everywhere.
"""

from __future__ import annotations

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

