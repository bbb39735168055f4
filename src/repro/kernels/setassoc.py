"""Vectorized set-associative LRU replay via conservative run flags.

In the set-grouped order, a run of accesses to one line can only miss
at its first access.  A run start whose line appeared within the
previous ``ways`` runs of the same segment cannot miss either: at most
``ways - 1`` distinct other lines touched the set since that
appearance, so the line's stack distance is below ``ways``.  Flagging
only the remaining run starts gives a superset of the misses; each
flagged *event* is then resolved against a per-set resident map, where
a flagged hit is simply skipped (recency is recovered exactly from the
line-CSR order at victim-selection time, so false events need no state
updates at all).

Victim choice bisects each resident line's access list for its last
touch before the miss — ``ways`` O(log n) probes per true miss — and a
victim is dirty exactly when its fill access was a store or any store
touched it while resident (an O(1) next-store lookup).  The bisects run
over a zero-copy ``memoryview`` of the int32 CSR order: ``bisect_left``
on a subrange is an order of magnitude cheaper per probe than a numpy
``searchsorted`` call at these sizes, and a memoised plain-list copy
would cost about 36 bytes per record to buy no faster probes.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.kernels.columnar import (
    MAX_WAYS,
    KernelUnsupported,
    line_index,
    require_numpy,
    set_order,
    trace_columns,
)
from repro.trace.trace import Trace


def setassoc_stats(trace: Trace, geometry: CacheGeometry) -> Optional[CacheStats]:
    """Exact :class:`SetAssociativeCache` statistics, or ``None`` when
    the kernel declines."""
    ways = geometry.ways
    if ways < 2 or ways > MAX_WAYS:
        return None
    try:
        np = require_numpy()
        cols = trace_columns(trace)
        if not cols.in_range:
            raise KernelUnsupported("records outside the 32-bit domain")
        li = line_index(trace, geometry.line_shift)
        so = set_order(trace, geometry.line_shift, geometry.num_sets)
    except KernelUnsupported:
        return None

    flagged = trace.memo(
        f"kernel:saflags:{geometry.line_shift}:{geometry.num_sets}:{ways}",
        lambda t: _flagged_runs(np, so, ways),
    )
    event_pos = so.sorder[so.run_start[:-1][flagged]].tolist()
    event_line = so.run_line[flagged].tolist()
    event_set = so.run_set[flagged].tolist()
    event_op = cols.ops[so.sorder[so.run_start[:-1][flagged]]].tolist()

    shift = geometry.line_shift
    lorder = memoryview(li.lorder)
    start_list = trace.memo(
        f"kernel:lstart_list:{shift}", lambda t: li.start.tolist()
    )
    lslot = li.lslot
    ns = li.ns

    stats = CacheStats()
    read_misses = write_misses = fills = writebacks = 0
    current_set = -1
    # line -> (fill position, CSR bounds of the line's access list)
    resident = {}
    index = 0
    total = len(event_pos)
    while index < total:
        p = event_pos[index]
        line = event_line[index]
        set_id = event_set[index]
        if set_id != current_set:
            current_set = set_id
            resident = {}
        if line in resident:
            index += 1
            continue  # conservative flag; actually a hit
        if event_op[index]:
            write_misses += 1
        else:
            read_misses += 1
        index += 1
        fills += 1
        if len(resident) == ways:
            victim = -1
            victim_touch = -1
            victim_fill = -1
            for resident_line, (fill_pos, lo, hi) in resident.items():
                touch_rank = bisect_left(lorder, p, lo, hi) - 1
                last_touch = lorder[touch_rank]
                if victim < 0 or last_touch < victim_touch:
                    victim = resident_line
                    victim_touch = last_touch
                    victim_fill = fill_pos
            del resident[victim]
            if ns.item(victim_fill) < p:
                writebacks += 1
        slot = lslot.item(p)
        resident[line] = (p, start_list[slot], start_list[slot + 1])
    stats.read_misses = read_misses
    stats.write_misses = write_misses
    stats.read_hits = cols.nloads - read_misses
    stats.write_hits = (cols.n - cols.nloads) - write_misses
    stats.fills = fills
    stats.fill_words = fills * geometry.words_per_line
    stats.writebacks = writebacks
    stats.writeback_words = writebacks * geometry.words_per_line
    return stats


def _flagged_runs(np, so, ways: int):
    """Boolean mask over runs: True when the run's line did *not* appear
    in the previous ``ways`` runs of the same segment (a potential miss)."""
    seen = np.zeros(so.nruns, dtype=bool)
    for lag in range(1, ways + 1):
        if so.nruns > lag:
            seen[lag:] |= (so.run_line[lag:] == so.run_line[:-lag]) & (
                so.run_set[lag:] == so.run_set[:-lag]
            )
    return ~seen
