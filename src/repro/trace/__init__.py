"""Memory-reference traces: records, containers, file I/O, statistics.

A trace is the interface between the workload substrate and everything
else: profilers measure frequent value locality on it, and the cache
simulators replay it.  The in-memory representation is a plain list of
``(op, byte_address, value)`` tuples for replay speed; :class:`Trace`
wraps that list with metadata and analysis helpers.
"""

from repro.trace.record import LOAD, STORE, Access
from repro.trace.trace import Trace
from repro.trace.stats import TraceStats, compute_stats
from repro.trace.io import read_trace, write_trace
from repro.trace.synth import (
    cyclic_trace,
    ping_pong_trace,
    streaming_trace,
    uniform_trace,
    zipf_value_trace,
)
from repro.trace.filters import (
    filter_loads,
    filter_stores,
    filter_address_range,
    sample_every,
    split_windows,
)

__all__ = [
    "LOAD",
    "STORE",
    "Access",
    "Trace",
    "TraceStats",
    "compute_stats",
    "read_trace",
    "write_trace",
    "filter_loads",
    "filter_stores",
    "filter_address_range",
    "sample_every",
    "split_windows",
    "cyclic_trace",
    "ping_pong_trace",
    "streaming_trace",
    "uniform_trace",
    "zipf_value_trace",
]
