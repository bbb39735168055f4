"""Trace filtering and windowing utilities."""

from __future__ import annotations

from typing import Iterator, List

from repro.mem.memory import LOAD, STORE
from repro.trace.trace import Trace


def _derived(trace: Trace, records: List) -> Trace:
    return Trace(records, workload=trace.workload, input_name=trace.input_name)


def filter_loads(trace: Trace) -> Trace:
    """A new trace holding only the load records."""
    return _derived(trace, [r for r in trace if r[0] == LOAD])


def filter_stores(trace: Trace) -> Trace:
    """A new trace holding only the store records."""
    return _derived(trace, [r for r in trace if r[0] == STORE])


def filter_address_range(trace: Trace, low: int, high: int) -> Trace:
    """Records whose byte address lies in ``[low, high)``."""
    if low > high:
        raise ValueError(f"empty address range [{low:#x}, {high:#x})")
    return _derived(
        trace, [r for r in trace if low <= r[1] < high]
    )


def sample_every(trace: Trace, interval: int) -> Trace:
    """Every ``interval``-th record, starting with the first."""
    if interval <= 0:
        raise ValueError("sampling interval must be positive")
    return _derived(trace, trace.records[::interval])


def split_windows(trace: Trace, window: int) -> Iterator[Trace]:
    """Split into consecutive windows of ``window`` records.

    The final window may be shorter.  Used by the timeline profiler
    (Fig. 3) to measure coverage per execution interval.
    """
    if window <= 0:
        raise ValueError("window size must be positive")
    records = trace.records
    for start in range(0, len(records), window):
        yield _derived(trace, records[start : start + window])
