"""Shared fixtures.

Workload traces are expensive, so the suite generates each (workload,
input) trace at most once per session through a shared store fixture.
Everything here uses the small ``test`` inputs; full-scale runs are
``repro-fvc run <id>`` (or ``run all``).
"""

from __future__ import annotations

import os

import pytest

from repro.workloads.store import TraceStore


@pytest.fixture(scope="session", autouse=True)
def _no_ambient_fault_plan():
    """Keep fault injection opt-in per test: a REPRO_FAULTS plan left in
    the environment must not leak into every store/engine test.  Chaos
    tests install their own plans explicitly."""
    plan = os.environ.pop("REPRO_FAULTS", None)
    from repro.faults import reset

    reset()
    try:
        yield
    finally:
        if plan is not None:
            os.environ["REPRO_FAULTS"] = plan
        reset()


@pytest.fixture(scope="session", autouse=True)
def _no_ambient_obs():
    """Keep observability opt-in per test: REPRO_OBS / REPRO_OBS_TRACE
    left in the environment must not arm metrics or tracing for every
    test.  Obs tests enable them explicitly."""
    saved = {
        name: os.environ.pop(name, None)
        for name in ("REPRO_OBS", "REPRO_OBS_TRACE")
    }
    from repro.obs import tracing

    tracing.reset()
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is not None:
                os.environ[name] = value
        tracing.reset()


@pytest.fixture(scope="session", autouse=True)
def _isolated_trace_cache(tmp_path_factory):
    """Keep the suite hermetic: unless the environment already pins the
    trace cache, point it at a per-session temporary directory so tests
    never read or write the developer's ``~/.cache``."""
    if "REPRO_TRACE_CACHE" in os.environ or "REPRO_TRACE_CACHE_DIR" in os.environ:
        yield
        return
    directory = tmp_path_factory.mktemp("trace-cache")
    os.environ["REPRO_TRACE_CACHE_DIR"] = str(directory)
    try:
        yield
    finally:
        os.environ.pop("REPRO_TRACE_CACHE_DIR", None)


@pytest.fixture(scope="session")
def store() -> TraceStore:
    """Session-wide trace store over the small test inputs."""
    return TraceStore(max_traces=16)


@pytest.fixture(scope="session")
def gcc_trace(store):
    """The gcc analog's test-input trace (medium, FVL-rich)."""
    return store.get("gcc", "test")


@pytest.fixture(scope="session")
def m88ksim_trace(store):
    """The m88ksim analog's test-input trace (conflict-rich)."""
    return store.get("m88ksim", "test")


@pytest.fixture(scope="session")
def li_trace(store):
    """The li analog's test-input trace (mutation-heavy)."""
    return store.get("li", "test")
