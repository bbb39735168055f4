#!/usr/bin/env python3
"""Observability overhead gate: obs fully on must cost < 5%.

Times the same batch of simulation cells with metrics and tracing
disabled (the default) and with both armed, alternating the two modes
batch by batch so that a drift in the host's speed lands on both, and
writes ``BENCH_obs.json``.  Each timed batch repeats the cells until it
lasts about :data:`BATCH_SECONDS`.  Exits non-zero when the median
instrumented batch is more than :data:`MAX_OVERHEAD_PERCENT` slower
than the median baseline batch, which is the CI perf-smoke job's
contract that observability stays observational in cost as well as in
content.

Stdlib only; run as ``make bench-obs`` or directly::

    PYTHONPATH=src python benchmarks/obs_overhead.py [-o BENCH_obs.json]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

#: The gate: enabling observability may cost at most this much.
MAX_OVERHEAD_PERCENT = 5.0

#: Timed batches per mode (medians are compared).
REPEATS = 10

#: Each timed batch repeats the cells until it lasts about this long.
BATCH_SECONDS = 0.5

_CELL_SPECS = (
    ("gcc", "baseline", 8 * 1024),
    ("gcc", "fvc", 8 * 1024),
    ("m88ksim", "baseline", 8 * 1024),
    ("m88ksim", "fvc", 8 * 1024),
    ("li", "baseline", 4 * 1024),
    ("li", "fvc", 4 * 1024),
)


def _cells():
    from repro.engine.cells import SimCell

    return [
        SimCell(
            workload=workload,
            input_name="test",
            kind=kind,
            size_bytes=size_bytes,
            fvc_entries=256,
            top_values=7,
        )
        for workload, kind, size_bytes in _CELL_SPECS
    ]


def _run_batch(cells, store, rounds: int) -> float:
    from repro.engine.cells import run_cell

    started = time.perf_counter()
    for _ in range(rounds):
        for cell in cells:
            run_cell(cell, store)
    return time.perf_counter() - started


def _set_mode(instrumented: bool, spans_path: str) -> None:
    from repro.obs import tracing

    if instrumented:
        os.environ["REPRO_OBS"] = "1"
        os.environ[tracing.ENV_VAR] = spans_path
    else:
        os.environ.pop("REPRO_OBS", None)
        os.environ.pop(tracing.ENV_VAR, None)
    tracing.reset()


def _measure(cells, store, spans_path: str):
    """``(rounds, baseline, instrumented)``: the cell repetitions per
    batch and each mode's batch times, taken alternately."""
    # One untimed batch per mode settles trace materialisation, imports
    # and memos; the baseline one sizes the timed batches.
    _set_mode(True, spans_path)
    _run_batch(cells, store, 1)
    _set_mode(False, spans_path)
    single = _run_batch(cells, store, 1)
    rounds = max(1, round(BATCH_SECONDS / single))
    times = {False: [], True: []}
    # The modes alternate batch by batch, and the leading mode swaps
    # from pair to pair, so neither always runs after the other.
    for repeat in range(REPEATS):
        for instrumented in (repeat % 2 == 1, repeat % 2 == 0):
            _set_mode(instrumented, spans_path)
            times[instrumented].append(_run_batch(cells, store, rounds))
    return rounds, times[False], times[True]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-o", "--output", default="BENCH_obs.json",
        help="result file (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    from repro.workloads.store import TraceStore

    cells = _cells()
    store = TraceStore(max_traces=8)
    # Materialise every trace up front so neither mode pays synthesis.
    for cell in cells:
        store.get(cell.workload, cell.input_name)

    with tempfile.TemporaryDirectory(prefix="obs-bench-") as scratch:
        try:
            rounds, baseline, instrumented = _measure(
                cells, store, os.path.join(scratch, "spans.jsonl")
            )
        finally:
            _set_mode(False, "")

    baseline_median = statistics.median(baseline)
    instrumented_median = statistics.median(instrumented)
    overhead_percent = 100.0 * (
        (instrumented_median - baseline_median) / baseline_median
    )
    passed = overhead_percent < MAX_OVERHEAD_PERCENT

    report = {
        "schema": "repro.bench-obs/1",
        "cells": len(cells),
        "repeats": REPEATS,
        "rounds_per_batch": rounds,
        "baseline_seconds": baseline,
        "instrumented_seconds": instrumented,
        "baseline_median_seconds": baseline_median,
        "instrumented_median_seconds": instrumented_median,
        "overhead_percent": overhead_percent,
        "max_overhead_percent": MAX_OVERHEAD_PERCENT,
        "passed": passed,
    }
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(
        f"obs overhead: baseline {baseline_median:.3f}s, "
        f"instrumented {instrumented_median:.3f}s -> "
        f"{overhead_percent:+.2f}% (gate < {MAX_OVERHEAD_PERCENT}%)"
    )
    if not passed:
        print("FAIL: observability overhead exceeds the gate", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
