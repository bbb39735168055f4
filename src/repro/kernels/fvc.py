"""Vectorized DMC+FVC replay: per-group sequential automata.

Exactness argument (each step checked against :class:`FvcSystem`):

* With the default config, a direct-mapped main cache and a
  power-of-two FVC, line ``l`` lives in main-cache set
  ``l & (num_sets - 1)`` and FVC slot ``l & (fvc_entries - 1)``.  Both
  are low-bit masks, so with ``m = min(fvc_entries, num_sets)`` the
  value ``l & (m - 1)`` names the connected component of the set-slot
  mapping a line belongs to.  When ``fvc_entries <= num_sets`` a group
  is the ``num_sets / fvc_entries`` sets sharing one slot; when
  ``fvc_entries > num_sets`` it is one set owning
  ``fvc_entries / num_sets`` slots.  Either way the trace replays as
  ``m`` independent automata with no global state, and the FVC state
  (tag, dirty mask, open hit window, pending install) is kept per slot.
* For a value-consistent trace (loads return the last value stored to
  their word, zero before any store), an FVC probe of a resident line
  hits exactly when the record's own value is frequent — for loads
  because the stored code always encodes the word's last-stored value,
  for stores because the oracle tests the incoming value directly.
* Only *events* are visited: run starts whose line differs from the
  set's occupant, promotion points (next infrequent touch of a
  slot-resident line), and batch boundaries.  Everything between is a
  main-cache hit or a frequent-value FVC hit, counted in bulk from the
  packed per-line prefix of :mod:`repro.kernels.columnar`.  A hit batch
  on a slot-resident line ends at the first run of a third line in its
  set, so a line resident in another slot of the same group is always
  visited as an event.
* A main victim is dirty iff its fill was a store or a store touched
  it while resident (O(1) from the next-store array).  An FVC entry's
  dirty words accumulate from the frequent-store word offsets of each
  committed batch window; a flush writes back exactly the distinct
  dirty words, and a promotion is dirty iff the mask is non-empty.
* Installs are lazy: whether a victim actually enters its slot depends
  on its frequent-word count at eviction time, which is resolved O(1)
  at the victim's next touch (no touches can intervene), or by one
  bisect when another operation on the same slot needs the answer
  first.  A still-pending install at end of trace is resolved then:
  entering the FVC displaces the resident entry, whose dirty words the
  oracle flushed eagerly at install time.

The kernel declines (returns ``None``) for anything outside this
envelope — set-associative mains or FVCs, non-power-of-two FVC sizes,
non-default configs, value-inconsistent, out-of-range or empty
traces — and the caller replays the pure-Python oracle.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Tuple

from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.fvc.encoding import FrequentValueEncoder
from repro.kernels.columnar import (
    PACK_BITS,
    PACK_MASK,
    KernelUnsupported,
    freq_layer,
    is_value_consistent,
    line_index,
    set_order,
    trace_columns,
)
from repro.trace.trace import Trace


def fvc_cell_replay(
    trace: Trace,
    geometry: CacheGeometry,
    fvc_entries: int,
    encoder: FrequentValueEncoder,
) -> Optional[Tuple[CacheStats, dict]]:
    """Exact ``FvcSystem`` statistics and extras for one cell, or
    ``None`` when this trace/configuration is outside the kernel's
    proven envelope."""
    if geometry.ways != 1:
        return None
    if fvc_entries < 1 or fvc_entries & (fvc_entries - 1):
        return None
    n = len(trace.records)
    if n == 0:
        return None
    num_sets = geometry.num_sets
    try:
        cols = trace_columns(trace)
        if not cols.in_range:
            raise KernelUnsupported("records outside the 32-bit domain")
        if not is_value_consistent(trace):
            raise KernelUnsupported("trace is not value-consistent")
        shift = geometry.line_shift
        li = line_index(trace, shift)
        fl = freq_layer(trace, shift, encoder.values)
        so = set_order(trace, shift, num_sets)
    except KernelUnsupported:
        return None

    wpl = geometry.words_per_line
    cf0 = fl.cf0
    nruns = so.nruns
    set_mask = num_sets - 1
    slot_mask = fvc_entries - 1

    # Hot per-event lookups index zero-copy memoryviews of the int32
    # decompositions (``pref`` is int64); the per-line and per-set CSR
    # bounds are short memoised lists.
    lines = memoryview(li.lines)
    rank = memoryview(li.rank)
    ns = memoryview(li.ns)
    lslot = memoryview(li.lslot)
    lorder = memoryview(li.lorder)
    nir = memoryview(fl.nir)
    opf = memoryview(fl.opf)
    pref = memoryview(fl.pref)
    fs_word = memoryview(fl.fs_word)
    run_id = memoryview(so.run_id)
    run_line = memoryview(so.run_line)
    run_set = memoryview(so.run_set)
    run_start = memoryview(so.run_start)
    sorder = memoryview(so.sorder)
    brk2 = memoryview(so.brk2)
    nbrk = len(brk2)
    start_list = trace.memo(
        f"kernel:lstart_list:{shift}", lambda t: li.start.tolist()
    )
    sstart_list = trace.memo(
        f"kernel:sstart_list:{shift}:{num_sets}", lambda t: so.sstart.tolist()
    )

    read_misses = write_misses = 0
    writebacks = writeback_words = 0
    fvc_read_hits = fvc_write_hits = 0

    # Per-set occupant state (index = set number).
    occ_line = [-1] * num_sets
    occ_pd = [False] * num_sets
    occ_ns = [0] * num_sets
    occ_ls = [0] * num_sets
    cur_pos = [n] * num_sets
    cur_k = [-1] * num_sets
    for s in range(num_sets):
        k0 = sstart_list[s]
        if k0 < sstart_list[s + 1]:
            cur_pos[s] = sorder[k0]
            cur_k[s] = k0

    # Per-FVC-slot state (index = FVC entry number).  Here and above,
    # ``*_ls`` fields are line-CSR slots, which bound a line's
    # time-ordered access list.
    tag = [-1] * fvc_entries
    tag_ls = [0] * fvc_entries
    dmask = [0] * fvc_entries
    open_r0 = [-1] * fvc_entries  # CSR rank opening the uncommitted hit window
    pend_line = [-1] * fvc_entries
    pend_ls = [0] * fvc_entries
    pend_pos = [0] * fvc_entries

    def commit(f: int, r0: int, r1: int) -> None:
        nonlocal fvc_read_hits, fvc_write_hits
        p0 = pref[r0]
        d = pref[r1] - p0
        loads = d & PACK_MASK
        stores = (d >> PACK_BITS) & PACK_MASK
        fvc_read_hits += loads
        fvc_write_hits += stores
        if stores:
            # The window's distinct dirty words, as an unbounded Python
            # int mask whatever the line size.
            a = (p0 >> PACK_BITS) & PACK_MASK
            mask = dmask[f]
            for w in set(fs_word[a : a + stores]):
                mask |= 1 << w
            dmask[f] = mask

    def pending_touch(f: int) -> int:
        # CSR rank of the pending victim's first touch after eviction.
        ls = pend_ls[f]
        return bisect_left(
            lorder, pend_pos[f], start_list[ls], start_list[ls + 1]
        )

    def resolve(f: int, r_first: int) -> None:
        nonlocal writebacks, writeback_words
        s0 = start_list[pend_ls[f]]
        d = pref[r_first] - pref[s0]
        cf = cf0 + (d >> (2 * PACK_BITS)) - (r_first - s0)
        if cf > 0:
            if tag[f] != -1:
                # Displaced at install time; its window was already
                # closed there, so the mask is final.
                mask = dmask[f]
                if mask:
                    writebacks += 1
                    writeback_words += bin(mask).count("1")
            tag[f] = pend_line[f]
            tag_ls[f] = pend_ls[f]
            dmask[f] = 0
            open_r0[f] = -1
        pend_line[f] = -1

    def install(victim: int, victim_ls: int, p: int) -> None:
        f = victim & slot_mask
        r0 = open_r0[f]
        if r0 >= 0:
            # The resident entry has an open hit window: cut it at the
            # install position and reposition the owning set's cursor
            # onto the entry's next touch, which must now be replayed
            # as an explicit event either way.
            ls = tag_ls[f]
            hi = start_list[ls + 1]
            r_cut = bisect_left(lorder, p, start_list[ls], hi)
            commit(f, r0, r_cut)
            open_r0[f] = -1
            if r_cut < hi:
                touch = lorder[r_cut]
                owner = tag[f] & set_mask
                if touch < cur_pos[owner]:
                    cur_pos[owner] = touch
                    cur_k[owner] = -1
        if pend_line[f] != -1:
            resolve(f, pending_touch(f))
        pend_line[f] = victim
        pend_ls[f] = victim_ls
        pend_pos[f] = p

    groups = min(fvc_entries, num_sets)
    for g in range(groups):
        group_sets = range(g, num_sets, groups)
        while True:
            best = n
            bs = -1
            for s in group_sets:
                cp = cur_pos[s]
                if cp < best:
                    best = cp
                    bs = s
            if bs < 0:
                break
            s = bs
            p = best
            k = cur_k[s]
            line = lines[p]
            f = line & slot_mask
            if pend_line[f] != -1:
                if pend_line[f] == line:
                    resolve(f, rank[p])
                elif tag[f] == line:
                    resolve(f, pending_touch(f))
            o = opf[p]
            if tag[f] == line:
                r = rank[p]
                r0 = open_r0[f]
                if o & 2:
                    # Frequent-value touch of the slot-resident line:
                    # extend/open the bulk hit window and jump the
                    # cursor to the batch boundary.
                    if r0 >= 0:
                        commit(f, r0, r)
                    open_r0[f] = r
                    boundary = nir[p]
                    boundary_k = -1
                    if k < 0:
                        k = bisect_left(
                            sorder, p, sstart_list[s], sstart_list[s + 1]
                        )
                    nxt = run_id[k] + 1
                    if nxt < nruns and run_set[nxt] == s:
                        if run_line[nxt] != occ_line[s]:
                            k2 = run_start[nxt]
                            third = sorder[k2]
                            if third < boundary:
                                boundary = third
                                boundary_k = k2
                        else:
                            # Runs alternate between the resident line
                            # and the occupant until the first break at
                            # least two runs out names a third line.
                            j = bisect_left(brk2, nxt + 1)
                            if j < nbrk:
                                rb = brk2[j]
                                if run_set[rb] == s:
                                    k2 = run_start[rb]
                                    third = sorder[k2]
                                    if third < boundary:
                                        boundary = third
                                        boundary_k = k2
                    cur_pos[s] = boundary
                    cur_k[s] = boundary_k
                    continue
                # Infrequent touch of the resident line: promotion.
                if r0 >= 0:
                    commit(f, r0, r)
                    open_r0[f] = -1
                pd = dmask[f] != 0
                tag[f] = -1
                dmask[f] = 0
            else:
                # Miss in both structures: plain fill.
                pd = False
            if o & 1:
                write_misses += 1
            else:
                read_misses += 1
            victim = occ_line[s]
            if victim != -1:
                if occ_pd[s] or occ_ns[s] < p:
                    writebacks += 1
                    writeback_words += wpl
                install(victim, occ_ls[s], p)
            occ_line[s] = line
            occ_pd[s] = pd
            occ_ns[s] = ns[p]
            occ_ls[s] = lslot[p]
            # The set's next event is at most its next run start.
            if k < 0:
                k = bisect_left(sorder, p, sstart_list[s], sstart_list[s + 1])
            nxt = run_id[k] + 1
            if nxt >= nruns or run_set[nxt] != s:
                cur_pos[s] = n
            else:
                k2 = run_start[nxt]
                cur_pos[s] = sorder[k2]
                cur_k[s] = k2

    for f in range(fvc_entries):
        if pend_line[f] != -1:
            # The oracle installs eagerly: a pending install left at end
            # of trace still displaces the resident entry (flushing its
            # dirty words) when the victim's frequent-word count admits
            # it.  A pending install implies no open hit window.
            resolve(f, pending_touch(f))
        r0 = open_r0[f]
        if r0 >= 0:
            # Remaining touches of the resident line are all frequent
            # hits (any infrequent touch or third line would have been
            # a boundary event) and nothing displaced the entry.
            commit(f, r0, start_list[tag_ls[f] + 1])

    stats = CacheStats()
    stats.read_misses = read_misses
    stats.write_misses = write_misses
    stats.read_hits = cols.nloads - read_misses
    stats.write_hits = (n - cols.nloads) - write_misses
    # Every miss fills the main cache.
    stats.fills = read_misses + write_misses
    stats.fill_words = stats.fills * wpl
    stats.writebacks = writebacks
    stats.writeback_words = writeback_words
    total_fvc = fvc_read_hits + fvc_write_hits
    extras = {
        "main_hits": n - read_misses - write_misses - total_fvc,
        "fvc_hits": total_fvc,
        "fvc_read_hits": fvc_read_hits,
        "fvc_write_hits": fvc_write_hits,
    }
    return stats, extras
