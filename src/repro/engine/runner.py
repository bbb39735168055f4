"""Parallel fan-out of simulation cells and whole experiments.

Both entry points preserve submission order — ``ProcessPoolExecutor
.map`` yields results in input order regardless of completion order —
so a parallel run merges into exactly the rows a sequential run
produces.  Determinism of the *values* comes from the cells themselves:
every worker replays the same content-addressed trace through the same
simulator construction path (:func:`repro.engine.cells.run_cell`).

Before fanning out, the parent pre-warms the on-disk trace cache for
every distinct ``(workload, input)`` pair the cells reference, so the
expensive synthesis happens once and workers only deserialise.  When
disk persistence is disabled (``REPRO_TRACE_CACHE=off``) workers fall
back to synthesising their own traces — slower, still correct.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, List, Optional, Sequence

from repro.engine.cells import CellResult, SimCell, run_cell
from repro.engine.trace_cache import default_trace_cache

#: ``progress(done, total)`` — invoked after each cell completes, in
#: cell order, from the submitting process (never from a pool worker).
ProgressHook = Callable[[int, int], None]

#: ``executor(cells, progress=..., should_cancel=..., store=...)`` —
#: an alternative cell-execution strategy (e.g. the cluster
#: scheduler's :meth:`repro.cluster.coordinator.ClusterScheduler
#: .run_cells`).  Must return one :class:`CellResult` per cell, in
#: input order, computed through :func:`run_cell` semantics so results
#: stay bit-identical to a local run.
CellExecutor = Callable[..., List[CellResult]]


class RunCancelled(Exception):
    """Raised by :func:`run_cells` when ``should_cancel`` fires.

    Cancellation is cooperative and cell-granular: the run stops at the
    next cell boundary, so a caller (e.g. the ``repro.service`` job
    workers) can abandon a long sweep without killing the process.
    """

#: Workers keep their stores small: cells are grouped by workload, so a
#: handful of resident traces covers the stream each worker sees.
_WORKER_STORE_TRACES = 4

_worker_store = None


def _get_worker_store():
    """The per-process trace store used by pool workers (lazy)."""
    global _worker_store
    if _worker_store is None:
        from repro.workloads.store import TraceStore

        _worker_store = TraceStore(
            max_traces=_WORKER_STORE_TRACES, disk_cache=default_trace_cache()
        )
    return _worker_store


def _run_cell_worker(cell: SimCell) -> CellResult:
    return run_cell(cell, _get_worker_store())


def _prewarm_traces(cells: Sequence[SimCell], store) -> None:
    """Materialise every referenced trace into the on-disk cache."""
    cache = default_trace_cache()
    if cache is None:
        return
    seen = set()
    for cell in cells:
        key = (cell.workload, cell.input_name)
        if key in seen:
            continue
        seen.add(key)
        if cache.path_for(*key).exists():
            continue
        if store is not None:
            # Generate through the caller's store so the parent keeps
            # the trace resident too, then persist it for the workers.
            cache.store(store.get(*key))
        else:
            cache.ensure(*key)


def _restore(checkpoint, cell: SimCell) -> Optional[CellResult]:
    """``cell``'s result from the checkpoint store, or ``None``."""
    from functools import partial

    from repro.obs import tracing
    from repro.service.api import (
        cell_result,
        cell_spec,
        decode_payload,
        result_key,
    )

    spec = cell_spec(cell)
    key = result_key(spec)
    with tracing.span("checkpoint.load", key=key) as span:
        payload = checkpoint.get(key, partial(decode_payload, spec))
        if span is not None:
            span.attrs["outcome"] = "restored" if payload else "missing"
    return None if payload is None else cell_result(cell, payload)


def _save(checkpoint, result: CellResult) -> None:
    """Put one finished cell's payload into the checkpoint store."""
    from repro.obs import tracing
    from repro.service.api import cell_payload, cell_task_key, payload_bytes

    key = cell_task_key(result.cell)
    with tracing.span("checkpoint.save", key=key):
        checkpoint.put(key, payload_bytes(cell_payload(result)))


def default_jobs() -> int:
    """A sensible worker count: the machine's cores, capped at 8."""
    return min(os.cpu_count() or 1, 8)


def run_cells(
    cells: Iterable[SimCell],
    jobs: int = 1,
    store=None,
    progress: Optional[ProgressHook] = None,
    should_cancel: Optional[Callable[[], bool]] = None,
    checkpoint=None,
    executor: Optional[CellExecutor] = None,
) -> List[CellResult]:
    """Execute cells, in parallel when ``jobs > 1``.

    Results come back in cell order whatever the completion order, so
    merging is deterministic; and each cell runs the same code path as
    a sequential call, so the merged statistics are bit-identical to a
    ``jobs=1`` run.

    ``progress(done, total)`` is called after each completed cell (in
    cell order, from this process).  ``should_cancel()`` is polled at
    cell boundaries; returning true raises :class:`RunCancelled`.
    Neither hook affects the computed results.

    ``checkpoint`` (a :class:`repro.service.result_store.ResultStore`,
    e.g. :func:`~repro.service.result_store.checkpoint_store`) makes the
    run resumable.  Before fan-out each cell is read from it under its
    result key (:func:`repro.service.api.cell_task_key`); each freshly
    computed cell is put the moment it finishes.  Every cell is
    deterministic, so the merged results are bit-identical to an
    uninterrupted, checkpoint-free run.  The key is the one served
    cells and cluster tasks use, so the store is one memo for all
    three, and it covers the package version, the trace-cache version
    and the input's data seed: an entry written under any other is
    never restored.

    ``executor`` replaces the local fan-out entirely (``jobs`` is then
    ignored for the pending cells): the callable receives the cells
    that still need computing and must return their results in input
    order.  Checkpoint restore/save and progress accounting still
    happen here, so an executor-backed run composes with both.
    """
    cells = list(cells)
    total = len(cells)

    def _completed(done: int) -> None:
        if progress is not None:
            progress(done, total)

    def _check_cancel() -> None:
        if should_cancel is not None and should_cancel():
            raise RunCancelled(f"cancelled after {done}/{total} cells")

    done = 0
    results: List[Optional[CellResult]] = [None] * total
    pending: List[int] = []
    for index, cell in enumerate(cells):
        restored = None if checkpoint is None else _restore(checkpoint, cell)
        if restored is not None:
            results[index] = restored
            done += 1
        else:
            pending.append(index)
    if done:
        _completed(done)

    def _record(index: int, result: CellResult, report: bool = True) -> None:
        nonlocal done
        results[index] = result
        if checkpoint is not None:
            _save(checkpoint, result)
        done += 1
        if report:
            _completed(done)

    if executor is not None and pending:
        pending_cells = [cells[index] for index in pending]

        def _executor_progress(exec_done: int, _exec_total: int) -> None:
            # Counts from the executor map onto the overall run:
            # restored cells are already reported, executor cells land
            # on top.
            _completed(done + exec_done)

        exec_results = executor(
            pending_cells,
            progress=_executor_progress if progress is not None else None,
            should_cancel=should_cancel,
            store=store,
        )
        for index, result in zip(pending, exec_results):
            _check_cancel()
            # The executor reported these counts already; reporting
            # them again would move progress backwards.
            _record(index, result, report=False)
        return results  # type: ignore[return-value]
    if jobs <= 1 or len(pending) <= 1:
        for index in pending:
            _check_cancel()
            _record(index, run_cell(cells[index], store))
        return results  # type: ignore[return-value]
    pending_cells = [cells[index] for index in pending]
    _prewarm_traces(pending_cells, store)
    workers = min(jobs, len(pending_cells))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for index, result in zip(pending, pool.map(_run_cell_worker, pending_cells)):
            _check_cancel()
            _record(index, result)
    return results  # type: ignore[return-value]


def _run_experiment_worker(args) -> "object":
    experiment_id, fast = args
    from repro.experiments.registry import get_experiment

    return get_experiment(experiment_id).run(_get_worker_store(), fast=fast)


def run_experiments(
    experiment_ids: Sequence[str],
    jobs: int = 1,
    fast: bool = False,
    store=None,
) -> List["object"]:
    """Run whole experiments across a process pool.

    Returns one :class:`~repro.experiments.base.ExperimentResult` per
    id, in input order.  Used by ``repro-fvc run all --jobs N``; single
    experiments parallelise at cell granularity instead (see
    :meth:`repro.experiments.base.Experiment.run_with_engine`).
    """
    from repro.experiments.registry import get_experiment

    ids = list(experiment_ids)
    if jobs <= 1 or len(ids) <= 1:
        return [get_experiment(i).run(store, fast=fast) for i in ids]
    cache = default_trace_cache()
    if cache is not None and store is not None:
        # Pre-warm the traces every experiment leans on, once.
        from repro.experiments.common import FVL_NAMES
        from repro.experiments.common import input_for

        for name in FVL_NAMES:
            if not cache.path_for(name, input_for(fast)).exists():
                cache.store(store.get(name, input_for(fast)))
    workers = min(jobs, len(ids))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_experiment_worker, [(i, fast) for i in ids]))
