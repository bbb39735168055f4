"""Named injection sites and the process-wide active plan.

An injection site is one line of defence-relevant code — a store read,
an atomic publish, a worker attempt — that consults the active fault
plan via :func:`fault_point` before (or while) doing its real work.
With no plan installed the call is a dictionary miss and an early
return; the hot paths pay essentially nothing.

The site catalog below is the authoritative list; plans naming any
other site are rejected at parse time, and ``docs/ROBUSTNESS.md``
documents each entry.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.errors import FaultInjected
from repro.common.rng import make_rng


class InjectedIOError(OSError):
    """An injected disk/IO failure.

    Subclasses :class:`OSError` so it travels the exact error-handling
    paths a real ``EIO`` would — the point is to prove those paths,
    not to add new ones.
    """


@dataclass(frozen=True)
class Site:
    """One catalog entry."""

    name: str
    description: str
    #: Whether :func:`fault_point` is handed payload bytes here (and
    #: therefore whether ``truncate``/``bitflip`` make sense).
    carries_data: bool = False


def _catalog(*sites: Site) -> Dict[str, Site]:
    return {site.name: site for site in sites}


#: Every injection site threaded through the codebase.
SITE_CATALOG: Dict[str, Site] = _catalog(
    Site(
        "trace_cache.read",
        "Trace-cache entry read: the enveloped bytes as loaded from disk.",
        carries_data=True,
    ),
    Site(
        "trace_cache.write",
        "Trace-cache entry write: the enveloped bytes about to be persisted.",
        carries_data=True,
    ),
    Site(
        "trace_cache.write.publish",
        "Between the trace-cache temp-file write and its atomic rename.",
    ),
    Site(
        "result_store.read",
        "Result-store entry read: the enveloped bytes as loaded from disk.",
        carries_data=True,
    ),
    Site(
        "result_store.write",
        "Result-store entry write: the enveloped bytes about to be persisted.",
        carries_data=True,
    ),
    Site(
        "result_store.write.publish",
        "Between the result-store temp-file write and its atomic rename.",
    ),
    Site(
        "journal.append",
        "Control-plane journal append: the enveloped record bytes about "
        "to be written to the write-ahead log (io_error models ENOSPC, "
        "truncate a torn write, bitflip a corrupt record).",
        carries_data=True,
    ),
    Site(
        "journal.snapshot",
        "Control-plane snapshot write: the enveloped snapshot bytes "
        "about to be atomically published.",
        carries_data=True,
    ),
    Site(
        "journal.replay",
        "Recovery-time journal/snapshot read: the bytes as loaded from "
        "disk, before any record is applied.",
        carries_data=True,
    ),
    Site(
        "engine.cell",
        "Entry of repro.engine.cells.run_cell, before any simulation.",
    ),
    Site(
        "worker.child",
        "One lease handed to a service local worker, applied inside the "
        "child before it runs the task (crash/hang/slow/raise); the "
        "deciding counter lives in the parent, so @1 means the first "
        "lease attempt.",
    ),
    Site(
        "server.request",
        "Entry of every HTTP request handler in the service front end.",
    ),
    Site(
        "client.request",
        "Entry of every ServiceClient HTTP request (transport layer).",
    ),
    Site(
        "cluster.lease",
        "Coordinator-side entry of every /v1/cells/lease grant, before "
        "any task is dequeued or stolen.",
    ),
    Site(
        "cluster.heartbeat",
        "Coordinator-side receipt of every worker heartbeat, before "
        "the liveness clock is refreshed.",
    ),
    Site(
        "cluster.result",
        "Coordinator-side ingest of every pushed cell result, before "
        "the lease is resolved.",
    ),
)

# The active plan -------------------------------------------------------
_UNRESOLVED = object()
_active = _UNRESOLVED


def install(plan) -> None:
    """Install ``plan`` (a :class:`~repro.faults.plan.FaultPlan` or
    ``None``) as this process's active plan."""
    global _active
    _active = plan


def reset() -> None:
    """Forget the active plan; the next :func:`active` re-reads
    ``REPRO_FAULTS``.  Test plumbing."""
    global _active
    _active = _UNRESOLVED


def active():
    """The process-wide active plan, resolved lazily from
    ``REPRO_FAULTS`` on first use (child processes therefore inherit
    the environment's plan automatically)."""
    global _active
    if _active is _UNRESOLVED:
        from repro.faults.plan import FaultPlan

        _active = FaultPlan.from_env()
    return _active


# Applying actions ------------------------------------------------------
_DEFAULT_SLEEP = {"delay": 0.01, "slow": 0.05, "hang": 300.0}


def _flip_one_bit(data: bytes, seed: int, site: str, ordinal: int) -> bytes:
    if not data:
        return data
    rng = make_rng("faults", "bitflip", seed, site, ordinal)
    position = rng.randrange(len(data) * 8)
    mutated = bytearray(data)
    mutated[position // 8] ^= 1 << (position % 8)
    return bytes(mutated)


def _apply(clause, ordinal: int, site: str, data: Optional[bytes], seed: int):
    # Observability first: the action may raise or exit the process, and
    # an injected fault is exactly the kind of event a trace should show.
    from repro import obs
    from repro.obs import tracing

    action = clause.action
    tracing.event(
        "fault_injected", site=site, action=action, ordinal=ordinal
    )
    if obs.enabled():
        obs.registry().counter("faults_injected_total").inc()
    if action == "io_error":
        raise InjectedIOError(
            f"injected io_error at {site} (call #{ordinal})"
        )
    if action == "raise":
        raise FaultInjected(
            f"injected fault at {site} (call #{ordinal})"
        )
    if action in ("delay", "slow", "hang"):
        time.sleep(clause.arg if clause.arg is not None else _DEFAULT_SLEEP[action])
        return data
    if action == "crash":
        os._exit(70)
    if action == "truncate":
        return data if data is None else data[: len(data) // 2]
    if action == "bitflip":
        return data if data is None else _flip_one_bit(data, seed, site, ordinal)
    raise FaultInjected(f"unhandled fault action {action!r}")  # pragma: no cover


def fault_point(site: str, data: Optional[bytes] = None) -> Optional[bytes]:
    """Consult the active plan at ``site``.

    Returns ``data`` unchanged when no plan is installed or no clause
    fires; otherwise applies the clause — raising, sleeping, exiting
    the process, or returning a mutated copy of ``data``.
    """
    plan = active()
    if plan is None:
        return data
    decision = plan.decide(site)
    if decision is None:
        return data
    clause, ordinal = decision
    return _apply(clause, ordinal, site, data, plan.seed)


def decide_child_fault(site: str = "worker.child"):
    """Parent-side decision for a fault applied inside a child process.

    Returns the picklable ``(clause, ordinal)`` pair (or ``None``) so
    the parent's counters govern ordinals across attempts — ``@1``
    means "the first attempt", whichever child process runs it.
    """
    plan = active()
    if plan is None:
        return None
    return plan.decide(site)


def apply_child_fault(decision) -> None:
    """Apply a parent-decided fault inside the child (see
    :func:`decide_child_fault`).  ``crash`` hard-exits, ``hang``/
    ``slow``/``delay`` sleep, ``raise``/``io_error`` raise."""
    if decision is None:
        return
    clause, ordinal = decision
    _apply(clause, ordinal, clause.site, None, 0)
