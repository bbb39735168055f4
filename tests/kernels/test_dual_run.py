"""The dual-run regression gate.

The backend switch may change time, never numbers: every fig*/table*
experiment's canonical JSON payload must be byte-identical between
``REPRO_BACKEND=python`` and ``REPRO_BACKEND=numpy``, under worker
fan-out (``jobs=4``), under the runtime sanitizer, and when the trace
arrives through the columnar file format instead of in-memory tuples.
The numpy pass must also be served by exactly its recorded count of
kernel replays and declines: a kernel that starts declining leaves the
bytes alone, so only the count catches it.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.analysis import sanitize
from repro.api import run_experiment
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.render import dumps_canonical
from repro.kernels import backend

pytestmark = pytest.mark.skipif(
    not backend.numpy_available(), reason="dual-run gate needs numpy"
)

#: Every paper figure and table experiment (the gated payload surface).
GATED = sorted(
    experiment_id
    for experiment_id in EXPERIMENTS
    if experiment_id.startswith(("fig", "table"))
)

#: (kernel replays, kernel declines) of each gated experiment's fast run
#: under ``REPRO_BACKEND=numpy``; every other one replays only the
#: oracle.  fig14's six declines are its 2-way FVC cells.
KERNEL_PATHS = {
    "fig10": (24, 0),
    "fig12": (72, 0),
    "fig13": (8, 0),
    "fig14": (18, 6),
    "fig15": (18, 0),
}


def _canonical(monkeypatch, experiment_id, backend_name, jobs=1):
    monkeypatch.setenv(backend.ENV_VAR, backend_name)
    return dumps_canonical(run_experiment(experiment_id, fast=True, jobs=jobs))


def _kernel_paths():
    registry = obs.registry()
    return (
        registry.counter("kernel_replays_total").value,
        registry.counter("kernel_declines_total").value,
    )


def test_gate_covers_every_figure_and_table():
    assert len(GATED) == 16


@pytest.mark.slow
@pytest.mark.parametrize("experiment_id", GATED)
def test_payload_identical_across_backends(experiment_id, monkeypatch):
    python_payload = _canonical(monkeypatch, experiment_id, "python")
    monkeypatch.setenv(obs.ENV_VAR, "1")
    replays, declines = _kernel_paths()
    numpy_payload = _canonical(monkeypatch, experiment_id, "numpy")
    after_replays, after_declines = _kernel_paths()
    assert python_payload == numpy_payload
    # The sanitizer sends every cell to the oracle.
    expected = (
        (0, 0) if sanitize.enabled() else KERNEL_PATHS.get(experiment_id, (0, 0))
    )
    assert (after_replays - replays, after_declines - declines) == expected


@pytest.mark.slow
def test_payload_identical_under_worker_fanout(monkeypatch):
    # Workers inherit REPRO_BACKEND through the environment; four numpy
    # workers must reproduce the sequential pure-Python bytes.
    sequential = _canonical(monkeypatch, "fig13", "python")
    fanned_out = _canonical(monkeypatch, "fig13", "numpy", jobs=4)
    assert sequential == fanned_out


@pytest.mark.slow
def test_payload_identical_under_sanitizer(monkeypatch):
    # REPRO_SANITIZE forces the oracle even under REPRO_BACKEND=numpy;
    # the payload must not move.
    plain = _canonical(monkeypatch, "fig13", "numpy")
    monkeypatch.setenv(sanitize.ENV_VAR, "1")
    sanitized = _canonical(monkeypatch, "fig13", "numpy")
    assert plain == sanitized


class _SingleTraceStore:
    def __init__(self, trace):
        self._trace = trace

    def get(self, workload, input_name="ref"):
        assert (workload, input_name) == (
            self._trace.workload,
            self._trace.input_name,
        )
        return self._trace


def test_columnar_trace_yields_identical_cell_results(
    tmp_path, store, monkeypatch
):
    # Strongest cross-format claim: the oracle over the original tuple
    # trace vs the kernels over a trace round-tripped through the
    # columnar file format, compared field by field.
    from repro.engine.cells import SimCell, run_cell
    from repro.trace.io import read_trace, write_trace

    trace = store.get("gcc", "test")
    path = tmp_path / "gcc.trcb"
    write_trace(trace, path)
    loaded = read_trace(path)
    assert loaded == trace

    cell = SimCell(
        workload="gcc", input_name="test", kind="fvc",
        size_bytes=8 * 1024, fvc_entries=256, top_values=7,
    )
    monkeypatch.setenv(backend.ENV_VAR, "python")
    oracle = run_cell(cell, _SingleTraceStore(trace))
    monkeypatch.setenv(backend.ENV_VAR, "numpy")
    kernel = run_cell(cell, _SingleTraceStore(loaded))
    assert oracle.stats == kernel.stats
    assert oracle.extras == kernel.extras
