"""Victim-cache replay over the direct-mapped miss stream.

Every access leaves its line in the direct-mapped cache — a DMC hit
keeps it there, a victim-buffer hit swaps it in, a full miss fills it —
so a DMC with a swapping victim buffer holds exactly what a bare DMC
holds.  Only the DMC's misses touch the buffer, and those are the
set-order run starts :mod:`repro.kernels.dmc` already counts.  The
kernel visits them in time order, holding at most ``victim_entries``
buffered lines.  For each miss:

1. if the missing line is buffered, it is taken out: a victim-cache
   hit, and the line's dirty bit comes back with it;
2. the set's previous occupant is pushed at the MRU position, dirty if
   its carried bit was set or its run held a store (a cold set pushes
   nothing);
3. the LRU entry beyond capacity is trimmed, and written back if dirty.

So a line's dirty bit means "stored to since its last memory fill",
and nothing is flushed at the end of the trace, as in
:class:`~repro.cache.victim.VictimCacheSystem`.  The kernel declines
(returns ``None``) for set-associative caches, a buffer of no entries
and out-of-range traces, and the caller replays the oracle.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.kernels.columnar import (
    KernelUnsupported,
    require_numpy,
    stable_order,
)
from repro.kernels.dmc import run_reductions
from repro.trace.trace import Trace


def victim_cell_replay(
    trace: Trace, geometry: CacheGeometry, victim_entries: int
) -> Optional[Tuple[CacheStats, dict]]:
    """Exact ``VictimCacheSystem`` statistics plus its ``dmc_hits`` /
    ``vc_hits`` split, or ``None`` when the kernel declines."""
    if geometry.ways != 1 or victim_entries < 1:
        return None
    try:
        np = require_numpy()
        cols, so, miss_pos, stored = run_reductions(np, trace, geometry)
    except KernelUnsupported:
        return None
    nruns = so.nruns
    # The line each run start evicts from its set, -1 for a cold set.
    evicted = np.full(nruns, -1, dtype=np.int64)
    if nruns > 1:
        warm = so.run_set[1:] == so.run_set[:-1]
        evicted[1:][warm] = so.run_line[:-1][warm]
    torder = stable_order(np, miss_pos, cols.n)
    miss_ops = cols.ops[miss_pos]

    vc_hits = vc_store_hits = writebacks = 0
    buffered = {}  # line -> dirty bit, LRU first
    occupant_dirty = [False] * geometry.num_sets
    for line, s, victim, store_run, op in zip(  # repro: allow[PERF001] DMC miss stream, |misses| not |records|
        so.run_line[torder].tolist(),
        so.run_set[torder].tolist(),
        evicted[torder].tolist(),
        stored[torder].tolist(),
        miss_ops[torder].tolist(),
    ):
        carried = buffered.pop(line, None)
        if carried is None:
            carried = False
        else:
            vc_hits += 1
            vc_store_hits += op
        if victim >= 0:
            buffered[victim] = occupant_dirty[s]
            if len(buffered) > victim_entries:
                if buffered.pop(next(iter(buffered))):
                    writebacks += 1
        occupant_dirty[s] = carried or store_run

    wpl = geometry.words_per_line
    dmc_read_misses = int((miss_ops == 0).sum())
    stats = CacheStats()
    stats.read_misses = dmc_read_misses - (vc_hits - vc_store_hits)
    stats.write_misses = (nruns - dmc_read_misses) - vc_store_hits
    stats.read_hits = cols.nloads - stats.read_misses
    stats.write_hits = (cols.n - cols.nloads) - stats.write_misses
    stats.fills = nruns - vc_hits
    stats.fill_words = stats.fills * wpl
    stats.writebacks = writebacks
    stats.writeback_words = writebacks * wpl
    return stats, {"dmc_hits": cols.n - nruns, "vc_hits": vc_hits}
