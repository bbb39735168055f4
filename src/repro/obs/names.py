"""The registered metric-name catalog.

Every metric the codebase records or exposes is named here, once.  The
catalog is what makes ``/v1/metrics`` a contract rather than a grab-bag:
names are stable snake_case identifiers, the OBS001 lint rule rejects
any registry call whose name is not listed below, and the docs table in
``docs/OBSERVABILITY.md`` is generated from the same set.

Naming conventions (enforced by :func:`is_metric_name` plus review):

* snake_case only — ``^[a-z][a-z0-9_]*$``;
* monotonically increasing counts end in ``_total``;
* sizes are bytes and end in ``_bytes`` (never KB, never entry counts
  pretending to be sizes);
* durations are seconds and end in ``_seconds``.

The service's legacy flat keys (``jobs_retries`` and friends) predated
the catalog, were aliased for exactly one release, and are now retired:
``/v1/metrics`` serves only the structured ``metrics/v1`` entries named
here (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import re
from typing import FrozenSet

_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")

#: Maximum metric-name length (prometheus-friendly, keeps tables sane).
MAX_NAME_LENGTH = 64


def is_metric_name(name: str) -> bool:
    """Whether ``name`` is a well-formed snake_case metric identifier."""
    return (
        isinstance(name, str)
        and len(name) <= MAX_NAME_LENGTH
        and _NAME_RE.match(name) is not None
    )


#: Every registered metric, grouped by subsystem.  OBS001 checks that
#: registry calls name only members of this set.
METRIC_NAMES: FrozenSet[str] = frozenset(
    {
        # Engine: simulation cells (repro.engine.cells).
        "engine_cells_total",
        "engine_cell_references_total",
        "engine_cell_seconds",
        # Engine: content-addressed trace cache (repro.engine.trace_cache).
        "trace_cache_disk_hits_total",
        "trace_cache_synthesised_total",
        "trace_cache_stores_total",
        "trace_cache_corrupt_quarantined_total",
        # Kernels: backend dispatch (repro.kernels.dispatch).
        "kernel_replays_total",
        "kernel_declines_total",
        "kernel_replay_seconds",
        # Faults: injected-fault observability (repro.faults.sites).
        "faults_injected_total",
        # Service: job lifecycle (repro.service.jobs).
        "jobs_submitted_total",
        "jobs_completed_total",
        "jobs_failed_total",
        "jobs_cancelled_total",
        "jobs_retried_total",
        "jobs_shed_total",
        "jobs_queued",
        "jobs_running",
        "queue_depth",
        "max_queue_depth",
        # Service: lease attempts of jobs' tasks (repro.cluster.coordinator).
        "worker_attempts_total",
        # Service: result store (repro.service.result_store).
        "result_store_hits_total",
        "result_store_misses_total",
        "result_store_stores_total",
        "result_store_admission_rejects_total",
        "result_store_evictions_total",
        "result_store_corrupt_quarantined_total",
        "result_store_entries",
        "result_store_capacity",
        "result_store_size_bytes",
        # Service: write-ahead journal (repro.service.journal).
        "journal_records_total",
        "journal_append_failures_total",
        "journal_snapshots_total",
        "journal_compactions_total",
        "journal_replayed_records_total",
        "journal_torn_tail_truncated_total",
        "journal_recovered_jobs_total",
        "journal_size_bytes",
        "journal_quota_bytes",
        "storage_exhausted",
        # Service: HTTP front end (repro.service.server).
        "server_requests_total",
        "server_request_seconds",
        "workers",
        "degraded",
        "uptime_seconds",
        # Service: sweep board (repro.service.sweeps).
        "sweeps_submitted_total",
        "sweeps_completed_total",
        "sweeps_failed_total",
        "sweep_cells_expanded_total",
        "sweep_cells_reused_total",
        "sweeps_tracked",
        # Cluster: coordinator-side fabric state (repro.cluster).
        "cluster_workers",
        "cluster_workers_registered_total",
        "cluster_workers_lost_total",
        "cluster_heartbeats_total",
        "cluster_leases_issued_total",
        "cluster_leases_completed_total",
        "cluster_leases_expired_total",
        "cluster_leases_reissued_total",
        "cluster_cells_stolen_total",
        "cluster_results_stale_total",
        "cluster_trace_serves_total",
        "cluster_pending_cells",
        "cluster_leased_cells",
        # Cluster: worker-side loop (repro.cluster.worker).
        "cluster_cells_total",
        "cluster_trace_fetches_total",
    }
)
