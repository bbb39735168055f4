"""Simulation-as-a-service: job server, result store, client.

The serving layer over the :mod:`repro.engine` compute substrate.  Five
cooperating pieces (see ``docs/SERVICE.md`` for the full protocol):

* :mod:`repro.service.api` — job specs, content-addressed result keys,
  JSON payloads, and the worker-side executor;
* :mod:`repro.service.jobs` — job records, lifecycle, the queue;
* :mod:`repro.service.result_store` — the persistent result store with
  TinyLFU-style frequency admission;
* :mod:`repro.service.server` / :mod:`repro.service.client` — the
  stdlib HTTP JSON API and its thin client; the server's dispatchers
  run every job on the :mod:`repro.cluster` scheduler, whose local
  worker processes give timeouts, cancellation and bounded crash
  retries;
* :mod:`repro.service.resilience` — client-side degradation: seeded
  jittered retries and a circuit breaker (server-side shedding lives
  in the queue/server pair).

CLI: ``repro-fvc serve`` runs a server; ``repro-fvc submit`` /
``status`` / ``fetch`` talk to one.
"""

from repro.service.api import (
    SpecError,
    cell_payload,
    execute_spec,
    normalise_spec,
    payload_bytes,
    result_key,
)
from repro.service.client import (
    JobFailed,
    ServiceClient,
    ServiceError,
    default_service_url,
)
from repro.service.jobs import Job, JobQueue, QueueFullError
from repro.service.resilience import (
    CircuitBreaker,
    CircuitOpenError,
    RetryPolicy,
)
from repro.service.result_store import (
    FrequencySketch,
    ResultStore,
    default_store_dir,
)
from repro.service.server import ReproService, ServiceConfig, serve

__all__ = [
    "SpecError",
    "normalise_spec",
    "result_key",
    "cell_payload",
    "payload_bytes",
    "execute_spec",
    "Job",
    "JobQueue",
    "QueueFullError",
    "CircuitBreaker",
    "CircuitOpenError",
    "RetryPolicy",
    "FrequencySketch",
    "ResultStore",
    "default_store_dir",
    "ReproService",
    "ServiceConfig",
    "serve",
    "ServiceClient",
    "ServiceError",
    "JobFailed",
    "default_service_url",
]
