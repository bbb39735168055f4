"""Closed-form direct-mapped replay over the set-grouped order.

A direct-mapped set holds exactly the line of the latest access, so in
the set-grouped (time-preserving) order every access hits unless it
starts a new same-line run; a run is dirty when it contains a store,
and a run start writes back exactly when the previous run in the same
segment was dirty.  All four counters therefore reduce to run-level
reductions — no per-record Python loop at all.

The optional miss stream recovers, in time order, each miss's record
position and dirty victim line — what the two-level hierarchy needs to
replay the L1 filter's output through an L2.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.kernels.columnar import (
    KernelUnsupported,
    require_numpy,
    set_order,
    stable_order,
    trace_columns,
)
from repro.trace.trace import Trace


def run_reductions(np, trace: Trace, geometry: CacheGeometry):
    """``(columns, set order, miss positions, stored)``: each set-order
    run's start is a miss at ``miss_pos`` (set order, not time order),
    and ``stored`` says whether the run held a store."""
    cols = trace_columns(trace)
    if not cols.in_range:
        raise KernelUnsupported("records outside the 32-bit domain")
    so = set_order(trace, geometry.line_shift, geometry.num_sets)
    run_starts = so.run_start[:-1]
    miss_pos = so.sorder[run_starts]
    store_s = (cols.ops[so.sorder] == 1).astype(np.int64)
    spref = np.zeros(cols.n + 1, dtype=np.int64)
    np.cumsum(store_s, out=spref[1:])
    stored = (spref[so.run_start[1:]] - spref[run_starts]) > 0
    return cols, so, miss_pos, stored


def _writebacks(np, so, stored):
    # A run start writes back exactly when the previous run in the same
    # set was dirty.
    wb = np.zeros(so.nruns, dtype=bool)
    if so.nruns > 1:
        wb[1:] = (so.run_set[1:] == so.run_set[:-1]) & stored[:-1]
    return wb


def dmc_stats(trace: Trace, geometry: CacheGeometry) -> Optional[CacheStats]:
    """Exact :class:`DirectMappedCache` statistics, or ``None`` when the
    kernel declines (no numpy, non-direct-mapped, out-of-range trace)."""
    if geometry.ways != 1:
        return None
    try:
        np = require_numpy()
        cols, so, miss_pos, stored = run_reductions(np, trace, geometry)
    except KernelUnsupported:
        return None
    wb = _writebacks(np, so, stored)
    stats = CacheStats()
    read_misses = int((cols.ops[miss_pos] == 0).sum())
    stats.read_misses = read_misses
    stats.write_misses = so.nruns - read_misses
    stats.read_hits = cols.nloads - read_misses
    stats.write_hits = (cols.n - cols.nloads) - stats.write_misses
    stats.fills = so.nruns
    stats.fill_words = so.nruns * geometry.words_per_line
    stats.writebacks = int(wb.sum())
    stats.writeback_words = stats.writebacks * geometry.words_per_line
    return stats


def dmc_miss_stream(trace: Trace, geometry: CacheGeometry):
    """Time-ordered ``(record_position, victim_line_or_-1)`` pairs for
    every L1 miss, or ``None`` when the kernel declines.

    ``victim_line`` is set only for dirty evictions — the cases the
    oracle hierarchy forwards to the L2 as write-backs.
    """
    if geometry.ways != 1:
        return None
    try:
        np = require_numpy()
        cols, so, miss_pos, stored = run_reductions(np, trace, geometry)
    except KernelUnsupported:
        return None
    wb = _writebacks(np, so, stored)
    victims = np.full(so.nruns, -1, dtype=np.int64)
    if so.nruns > 1:
        victims[1:][wb[1:]] = so.run_line[:-1][wb[1:]]
    torder = stable_order(np, miss_pos, cols.n)
    return miss_pos[torder], victims[torder]
