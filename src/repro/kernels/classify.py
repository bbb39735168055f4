"""Exact 3C miss classification of a direct-mapped cache, from stack
distances instead of a side-by-side replay.

:func:`repro.cache.classify.classify_misses` (the oracle) runs the
target cache and a same-size fully-associative LRU cache record by
record.  Both halves reduce to the memoised decompositions:

* the direct-mapped misses are the run starts of :func:`set_order`,
  the same positions :func:`repro.kernels.dmc.dmc_stats` counts;
* ``prev[i]``, the previous access to record ``i``'s line, is the
  line-CSR order shifted by one (-1 at each line's first access), so a
  miss with ``prev < 0`` is compulsory;
* by Mattson's stack property a fully-associative LRU cache of
  ``num_lines`` lines hits a reuse exactly when fewer than
  ``num_lines`` distinct lines were touched since ``prev`` — a miss the
  ideal cache would hit is a conflict miss, any other a capacity miss.

A reuse gap of fewer than ``num_lines`` records cannot hold
``num_lines`` distinct lines, so those misses are conflicts outright.
For the rest, the distinct count between ``p = prev[i]`` and ``i`` is
``#{j < i : prev[j] < p} - p - 1``: every ``j <= p`` qualifies, and a
``j`` inside the gap qualifies exactly when it is its line's first
access there.  :func:`_dominance_counts` answers all those counts
offline in O(n log^2 n) with one sort and one ``searchsorted`` per bit
of ``i``, holding ``prev`` as int32 and one int64 key buffer.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.classify import MissClassification
from repro.cache.geometry import CacheGeometry
from repro.kernels.columnar import (
    KernelUnsupported,
    line_index,
    require_numpy,
    set_order,
)
from repro.trace.trace import Trace


def _dominance_counts(np, prev, query_pos, query_prev):
    """``#{j < query_pos[k] : prev[j] < query_prev[k]}`` for every k.

    The prefix ``[0, i)`` is the union of one aligned block of size
    ``2**b`` per set bit ``b`` of ``i``.  Level 0's one-record block is
    a direct comparison.  From level 1 on, one int64 buffer holds the
    key ``(j >> b) * (n + 1) + prev[j]`` of every record in a whole
    block, sorted, so one ``searchsorted`` counts the qualifying
    records of every queried block at that level.  Each level re-blocks
    the previous level's keys in place (one offset per old block, no
    per-record temporary) and leaves every new block two sorted halves,
    which a stable sort merges.
    """
    n = len(prev)
    counts = np.zeros(len(query_pos), dtype=np.int64)
    if not len(query_pos):
        return counts
    odd = np.flatnonzero(query_pos & 1)
    counts[odd] = prev[query_pos[odd] - 1] < query_prev[odd]
    stride = n + 1
    keys = np.arange(n, dtype=np.int64)
    keys >>= 1
    keys *= stride
    keys += prev
    for level in range(1, int(query_pos.max()).bit_length()):
        whole = keys[: (n >> level) << level]
        if level > 1:
            halves = whole.reshape(-1, 1 << (level - 1))
            halves -= ((np.arange(1, len(halves) + 1) >> 1) * stride)[:, None]
        whole.sort(kind="stable")
        hit = np.flatnonzero(query_pos & (1 << level))
        if not len(hit):
            continue
        block = (query_pos[hit] >> level) - 1
        below = np.searchsorted(whole, block * stride + query_prev[hit])
        counts[hit] += below - (block << level)
    return counts


def dmc_classify(
    trace: Trace, geometry: CacheGeometry
) -> Optional[MissClassification]:
    """Exact :func:`classify_misses` counts for a direct-mapped
    ``geometry``, or ``None`` when the kernel declines (no numpy,
    set-associative target, out-of-range trace)."""
    if geometry.ways != 1:
        return None
    try:
        np = require_numpy()
        li = line_index(trace, geometry.line_shift)
        so = set_order(trace, geometry.line_shift, geometry.num_sets)
    except KernelUnsupported:
        return None
    prev = np.empty(len(trace), dtype=np.int32)
    prev[li.lorder[1:]] = li.lorder[:-1]
    prev[li.lorder[li.start[:-1]]] = -1
    miss = so.sorder[so.run_start[:-1]].astype(np.int64)
    miss_prev = prev[miss].astype(np.int64)
    reused = miss_prev >= 0
    miss, miss_prev = miss[reused], miss_prev[reused]
    far = miss - miss_prev - 1 >= geometry.num_lines
    far_pos, far_prev = miss[far], miss_prev[far]
    distinct = _dominance_counts(np, prev, far_pos, far_prev) - far_prev - 1
    capacity = int((distinct >= geometry.num_lines).sum())
    return MissClassification(
        accesses=len(trace),
        compulsory=so.nruns - len(miss),
        capacity=capacity,
        conflict=len(miss) - capacity,
    )
