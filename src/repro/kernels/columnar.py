"""Shared columnar decomposition of a trace, memoised on ``Trace.memo``.

Every vectorized kernel — and the profiler — works from the same
derived arrays instead of re-walking the record tuples per model:

* :func:`trace_columns` — the raw ``op``/``address``/``value`` columns
  (a decoded trace's packed bytes, wrapped without a copy);
* :func:`word_layer` — the records' stable order by word, dense word
  ids, per-word previous-store values and the value-consistency flag
  the FVC kernel's hit predicate relies on;
* :func:`line_index` — per ``line_shift``: line ids, the line-grouped
  (CSR) time order, per-record CSR ranks, and next-store positions;
* :func:`freq_layer` — per ``(line_shift, encoder)``: frequent-value
  flags, the packed per-line prefix (frequent-load / frequent-store /
  frequent-word-delta counts in one cumulative sum), next-infrequent
  positions and the frequent-store sub-CSR;
* :func:`set_order` — per ``(line_shift, num_sets)``: the stable
  set-grouped order, its run-length structure and the alternation
  breaks used to bound FVC hit batches;
* :func:`value_ranking` — per-value counts, first accesses and the
  (-count, value) ranking that :func:`ranked_value_counts` (Fig. 1, every
  encoder) and the §2 studies of :mod:`repro.kernels.values` share.

All entries live on ``trace.memo`` so cells sharing a geometry (or just
a line size) pay for each decomposition once; ``Trace.append``/
``extend`` drop them with the other aggregates.  Every grouped order
comes from :func:`stable_order`: a radix sort of uint16 keys, or one
in-place sort of packed ``key << 32 | position`` words.

Layout invariants the kernels lean on (checked against the oracle
simulators, not re-derived here):

* word = address >> 2, line = address >> line_shift, set = line &
  (num_sets - 1), word offset = (address >> 2) & (words_per_line - 1);
* one word order per trace: ``worder`` groups the records by word in
  time order, ``wuniq`` lists the distinct words ascending and
  ``wid`` is each record's index into it; a line's words are adjacent
  in ``wuniq``, so the line layers take their distinct lines and line
  slots from it;
* CSR rank arithmetic: ``rank[lorder] == arange(n)`` so any record's
  position within its line's time-ordered access list is O(1);
* the packed prefix uses 21/21/22-bit fields, so these layers decline
  (raise :class:`KernelUnsupported`) for traces of 2**21 records or
  more — far above every bundled workload;
* the word and value layers decline records outside the 32-bit
  domain, so words, values, line ids and record positions fit 32 bits;
  per-record index arrays — ``worder``, ``wid``, ``lines``, ``lslot``,
  ``lorder``, ``rank``, ``ns``, ``nir``, ``fs_pos``/``fs_word``,
  ``sorder``, ``run_*``, ``brk2`` and the value ``codes`` — are int32,
  and ``prevval`` has the value column's dtype.  Only the packed
  prefix ``pref`` and the short per-line/per-set bounds (``start``,
  ``sstart``) stay int64.  Kernels index and ``bisect`` these arrays
  through zero-copy ``memoryview`` objects, which yield plain ints,
  instead of memoising per-record plain-list copies (about 36 bytes
  per element).
"""

from __future__ import annotations

from typing import Tuple

from repro.kernels.backend import numpy_or_none
from repro.trace.trace import Trace

#: Field widths of the packed per-line prefix (see :func:`freq_layer`).
PACK_BITS = 21
PACK_MASK = (1 << PACK_BITS) - 1
#: Traces at or above this record count overflow the packed prefix.
MAX_RECORDS = 1 << PACK_BITS
#: The widest set-associative main cache a kernel replays: each miss
#: works over every way of its set, so above this the per-miss cost
#: approaches the oracle's and the kernels decline.
MAX_WAYS = 8

_WORD_MASK = 0xFFFFFFFF
#: Keys below this bound sort as uint16, which numpy's stable argsort
#: sorts by radix.
_RADIX_BOUND = 1 << 16


class KernelUnsupported(Exception):
    """Raised internally when a decomposition cannot represent a trace;
    kernels catch it and decline to the oracle."""


def require_numpy():
    """The numpy module, or :class:`KernelUnsupported` when absent."""
    np = numpy_or_none()
    if np is None:
        raise KernelUnsupported("numpy is not importable")
    return np


def packed_order(np, keys):
    """``(order, ordered)`` for non-negative integer ``keys`` below
    2**32: their stable argsort (int32) and the keys in that order
    (uint64).

    One in-place sort of the packed uint64 ``key << 32 | position``:
    positions are distinct, so equal keys keep their time order, the
    low halves are the stable argsort and the high halves the sorted
    keys.
    """
    n = len(keys)
    if n > 1 << 31:
        raise KernelUnsupported("record positions wider than int32")
    packed = keys.astype(np.uint64)
    packed <<= np.uint64(32)
    packed |= np.arange(n, dtype=np.uint64)
    packed.sort()
    return (packed & _WORD_MASK).astype(np.int32), packed >> np.uint64(32)


def stable_order(np, keys, bound: int):
    """The stable argsort (int32) of non-negative integer ``keys``
    below ``bound``: a radix sort of uint16 keys when ``bound`` allows
    it, else :func:`packed_order`."""
    if bound <= _RADIX_BOUND:
        narrow = keys.astype(np.uint16)
        return np.argsort(narrow, kind="stable").astype(np.int32)
    if bound > 1 << 32:
        raise KernelUnsupported("keys wider than 32 bits")
    return packed_order(np, keys)[0]


def _run_starts(np, ordered):
    """Flags marking the first element of each run of equal keys in
    the sorted array ``ordered``."""
    fresh = np.empty(len(ordered), dtype=bool)
    fresh[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=fresh[1:])
    return fresh


class TraceColumns:
    """The raw columns plus the bounds checks every kernel needs.

    A decoded trace's columns are its packed file bytes wrapped without a
    copy (``u8`` ops, ``u32`` addresses and values); a trace built from
    records gets ``int64`` columns, which may hold values outside the
    32-bit domain.
    """

    __slots__ = ("n", "ops", "addrs", "values", "nloads", "in_range")

    def __init__(self, ops, addrs, values) -> None:
        n = len(ops)
        self.n = n
        self.ops = ops
        self.addrs = addrs
        self.values = values
        self.nloads = int((self.ops == 0).sum()) if n else 0
        # The oracle treats op/address/value as unsigned 32-bit-ish
        # domain values; anything outside means a synthetic trace the
        # kernels refuse rather than approximate.
        if n:
            ok = bool(
                ((self.ops | 1) == 1).all()
                and (self.addrs >= 0).all()
                and (self.addrs <= _WORD_MASK).all()
                and (self.values >= 0).all()
                and (self.values <= _WORD_MASK).all()
            )
        else:
            ok = True
        self.in_range = ok


def _columns_of(np, trace: Trace) -> TraceColumns:
    raw = trace.raw_columns
    if raw is not None:
        ops, addrs, values = raw
        return TraceColumns(
            np.frombuffer(ops, dtype="<u1"),
            np.frombuffer(addrs, dtype="<u4"),
            np.frombuffer(values, dtype="<u4"),
        )
    records = trace.records
    n = len(records)
    try:
        flat = np.fromiter(
            (field for record in records for field in record),
            dtype=np.int64,
            count=3 * n,
        ).reshape(n, 3)
    except (OverflowError, ValueError):
        raise KernelUnsupported("records outside the int64 domain") from None
    return TraceColumns(
        np.ascontiguousarray(flat[:, 0]),
        np.ascontiguousarray(flat[:, 1]),
        np.ascontiguousarray(flat[:, 2]),
    )


def trace_columns(trace: Trace) -> TraceColumns:
    """Columnar view of the trace (memoised): its packed columns when
    it still holds them, else its records."""
    np = require_numpy()
    return trace.memo("kernel:columns", lambda t: _columns_of(np, t))


class WordLayer:
    """Word-granular derivations, from one stable sort by word.

    ``worder`` lists the records grouped by word (address >> 2) in time
    order, ``wuniq`` the distinct words ascending and ``wid`` each
    record's index into ``wuniq``.  ``prevval`` is the value of the last
    store to the record's word strictly before it (0 when none), and
    ``consistent`` says whether every load reads its ``prevval``.
    """

    __slots__ = ("worder", "wid", "wuniq", "prevval", "consistent")

    def __init__(self, np, cols: TraceColumns) -> None:
        if not cols.in_range:
            raise KernelUnsupported("records outside the 32-bit domain")
        n = cols.n
        words = cols.addrs >> 2
        self.worder, ordered = packed_order(np, words)
        fresh = _run_starts(np, ordered)
        self.wuniq = ordered[fresh].astype(words.dtype)
        grp = np.cumsum(fresh, dtype=np.int32)
        grp -= 1
        self.wid = np.empty(n, dtype=np.int32)
        self.wid[self.worder] = grp
        ops_w = cols.ops[self.worder]
        vals_w = cols.values[self.worder]
        # The last store at or before each slot of the word order is a
        # running max of store slots; one slot back, it belongs to the
        # record's word only when it lies inside the word's run.
        slot = np.arange(n, dtype=np.int32)
        last = np.where(ops_w == 1, slot, -1)
        np.maximum.accumulate(last, out=last)
        before = np.empty(n, dtype=np.int32)
        before[:1] = -1
        before[1:] = last[:-1]
        run_start = np.maximum.accumulate(np.where(fresh, slot, 0))
        prevval_w = np.where(before >= run_start, vals_w[before], 0)
        self.prevval = np.empty(n, dtype=cols.values.dtype)
        self.prevval[self.worder] = prevval_w
        self.consistent = not bool(
            ((vals_w != prevval_w) & (ops_w == 0)).any()
        )


def word_layer(trace: Trace) -> WordLayer:
    """Word-granular layer (memoised)."""
    np = require_numpy()
    return trace.memo(
        "kernel:words", lambda t: WordLayer(np, trace_columns(t))
    )


def is_value_consistent(trace: Trace) -> bool:
    """Whether every load returns the last value stored to its word (or
    zero before any store) — the invariant equating the FVC oracle's
    stored-code probe with a frequency test of the record's own value."""
    return word_layer(trace).consistent


class LineIndex:
    """Per-``line_shift`` line decomposition in CSR (line-grouped) form."""

    __slots__ = ("lines", "luniq", "lslot", "lorder", "start", "rank", "ns")

    def __init__(self, np, cols: TraceColumns, wl: WordLayer, shift: int) -> None:
        n = cols.n
        self.lines = (cols.addrs >> shift).astype(np.int32)
        # A line's words are adjacent in the sorted distinct-word set, so
        # the distinct lines and each word's line slot come from it, and
        # each record's slot is a gather through its word id.
        wlines = wl.wuniq >> (shift - 2)
        fresh = _run_starts(np, wlines)
        self.luniq = wlines[fresh]
        wslot = np.cumsum(fresh, dtype=np.int32)
        wslot -= 1
        self.lslot = wslot[wl.wid]
        nlines = len(self.luniq)
        self.lorder = stable_order(np, self.lslot, nlines)
        self.start = np.zeros(nlines + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.lslot, minlength=nlines), out=self.start[1:]
        )
        slots = np.arange(n, dtype=np.int32)
        self.rank = np.empty(n, dtype=np.int32)
        self.rank[self.lorder] = slots
        # ns[p]: position of the first store to line(p) at-or-after p
        # (n when none).  A reversed running min over the CSR order gives
        # each CSR slot's next store slot in any line; that store is on
        # the record's own line only when it comes before the line's end.
        nxt = np.where(cols.ops[self.lorder] == 1, slots, n)
        nxt = np.minimum.accumulate(nxt[::-1])[::-1]
        ends = np.repeat(self.start[1:].astype(np.int32), np.diff(self.start))
        nxt[nxt >= ends] = n
        self.ns = np.empty(n, dtype=np.int32)
        self.ns[self.lorder] = np.append(self.lorder, np.int32(n))[nxt]


def line_index(trace: Trace, line_shift: int) -> LineIndex:
    """Line decomposition for one line size (memoised)."""
    np = require_numpy()
    return trace.memo(
        f"kernel:lines:{line_shift}",
        lambda t: LineIndex(np, trace_columns(t), word_layer(t), line_shift),
    )


class FreqLayer:
    """Per-``(line_shift, encoder)`` frequent-value derivations.

    ``pref`` packs three per-record counters into one cumulative sum
    over the line-CSR order — frequent loads (bits 0..20), frequent
    stores (bits 21..41), and per-store frequent-word deltas, biased by
    +1 so every field stays non-negative (bits 42..63).  A window of
    CSR ranks ``[r0, r1)`` then yields all three in two array reads.
    """

    __slots__ = ("opf", "pref", "nir", "fs_pos", "fs_word", "cf0")

    def __init__(
        self,
        np,
        cols: TraceColumns,
        wl: WordLayer,
        li: LineIndex,
        shift: int,
        values: Tuple[int, ...],
    ) -> None:
        n = cols.n
        if n >= MAX_RECORDS:
            raise KernelUnsupported("trace too long for the packed prefix")
        wpl = 1 << (shift - 2)
        freq = np.unique(np.asarray(sorted(values), dtype=np.int64))
        isf = np.isin(cols.values, freq)
        stores = cols.ops == 1
        isf_prev = np.isin(wl.prevval, freq)
        cfdelta = np.where(
            stores, isf.astype(np.int64) - isf_prev.astype(np.int64), 0
        )
        self.opf = (cols.ops | (isf.astype(np.int64) << 1)).astype(np.int8)
        packed = (
            (isf & ~stores).astype(np.int64)
            | ((isf & stores).astype(np.int64) << PACK_BITS)
            | ((cfdelta + 1) << (2 * PACK_BITS))
        )
        self.pref = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(packed[li.lorder], out=self.pref[1:])
        # nir[p]: first infrequent-valued touch of line(p) at-or-after p.
        self.nir = np.empty(n, dtype=np.int32)
        if n:
            seg = li.lslot[li.lorder].astype(np.int64)
            key = np.where(
                isf[li.lorder], seg * (n + 1) + n, seg * (n + 1) + li.lorder
            )
            rmin = np.minimum.accumulate(key[::-1])[::-1] - seg * (n + 1)
            self.nir[li.lorder] = rmin
        fs_csr = (isf & stores)[li.lorder]
        self.fs_pos = li.lorder[fs_csr]
        self.fs_word = ((cols.addrs[self.fs_pos] >> 2) & (wpl - 1)).astype(
            np.int32
        )
        self.cf0 = wpl if 0 in set(int(v) for v in values) else 0


def freq_layer(
    trace: Trace, line_shift: int, values: Tuple[int, ...]
) -> FreqLayer:
    """Frequent-value layer for one (line size, encoder) pair (memoised)."""
    np = require_numpy()
    key = f"kernel:freq:{line_shift}:" + ",".join(str(int(v)) for v in values)
    return trace.memo(
        key,
        lambda t: FreqLayer(
            np,
            trace_columns(t),
            word_layer(t),
            line_index(t, line_shift),
            line_shift,
            values,
        ),
    )


class SetOrder:
    """Per-``(line_shift, num_sets)`` set-grouped order and run structure.

    Records sorted stably by set index preserve time order within each
    set; maximal same-line runs inside a set segment are the unit of
    replacement activity (a direct-mapped set hits on everything except
    run starts).  ``brk2`` lists the runs that break the two-line
    alternation pattern — from any run, the first ``brk2`` entry at
    least two runs later is the first appearance of a third line, which
    bounds how far an FVC hit batch can extend.
    """

    __slots__ = (
        "sorder",
        "sstart",
        "run_start",
        "run_line",
        "run_set",
        "run_id",
        "brk2",
        "nruns",
    )

    def __init__(self, np, cols: TraceColumns, li: LineIndex, num_sets: int) -> None:
        n = cols.n
        sets = li.lines & (num_sets - 1)
        self.sorder = stable_order(np, sets, num_sets)
        self.sstart = np.zeros(num_sets + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(sets, minlength=num_sets), out=self.sstart[1:]
        )
        if n == 0:
            self.run_start = np.zeros(1, dtype=np.int32)
            self.run_line = np.zeros(0, dtype=np.int32)
            self.run_set = np.zeros(0, dtype=np.int32)
            self.run_id = np.zeros(0, dtype=np.int32)
            self.brk2 = np.zeros(0, dtype=np.int32)
            self.nruns = 0
            return
        line_s = li.lines[self.sorder]
        new = np.empty(n, dtype=bool)
        new[0] = True
        # Lines determine sets, so a line change is exactly a run
        # boundary (equal adjacent lines are necessarily the same set).
        new[1:] = line_s[1:] != line_s[:-1]
        self.run_id = np.cumsum(new, dtype=np.int32) - 1
        starts = np.flatnonzero(new)
        self.nruns = len(starts)
        self.run_start = np.empty(self.nruns + 1, dtype=np.int32)
        self.run_start[:-1] = starts
        self.run_start[-1] = n
        self.run_line = line_s[starts]
        self.run_set = self.run_line & (num_sets - 1)
        brk = np.ones(self.nruns, dtype=bool)
        if self.nruns > 2:
            brk[2:] = (self.run_line[2:] != self.run_line[:-2]) | (
                self.run_set[2:] != self.run_set[:-2]
            )
        self.brk2 = np.flatnonzero(brk).astype(np.int32)


def set_order(trace: Trace, line_shift: int, num_sets: int) -> SetOrder:
    """Set-grouped order for one geometry family (memoised)."""
    np = require_numpy()
    return trace.memo(
        f"kernel:sets:{line_shift}:{num_sets}",
        lambda t: SetOrder(
            np, trace_columns(t), line_index(t, line_shift), num_sets
        ),
    )


class ValueRanking:
    """The distinct values of the value column, ranked.

    ``uniq`` holds them ascending, ``counts`` their access counts,
    ``first`` the position of each one's first access and ``codes``
    each record's index into ``uniq``, all from one stable sort by
    value; ``order`` lists the indices by (-count, value) — the ranking
    every §2 study and every encoder uses.
    """

    __slots__ = ("uniq", "counts", "first", "codes", "order")

    def __init__(self, np, cols: TraceColumns) -> None:
        if not cols.in_range:
            raise KernelUnsupported("records outside the 32-bit domain")
        n = cols.n
        by_value, ordered = packed_order(np, cols.values)
        fresh = _run_starts(np, ordered)
        starts = np.flatnonzero(fresh)
        self.uniq = ordered[starts].astype(cols.values.dtype)
        self.counts = np.diff(starts, append=n)
        # The stable order visits each value's records in time order.
        self.first = by_value[starts].astype(np.intp)
        codes = np.cumsum(fresh, dtype=np.int32)
        codes -= 1
        self.codes = np.empty(n, dtype=np.int32)
        self.codes[by_value] = codes
        self.order = np.lexsort((self.uniq, -self.counts))


def value_ranking(trace: Trace) -> ValueRanking:
    """The trace's value ranking (memoised)."""
    np = require_numpy()
    return trace.memo(
        "kernel:ranking", lambda t: ValueRanking(np, trace_columns(t))
    )


def ranked_value_counts(trace: Trace, depth: int):
    """``(total, distinct, ranked)`` matching ``ExactTopK`` semantics:
    ranked ``(value, count)`` pairs sorted by (-count, value), truncated
    to ``depth``, as plain Python ints."""
    vr = value_ranking(trace)
    ranked = tuple(
        (int(vr.uniq[i]), int(vr.counts[i]))
        for i in vr.order[:depth].tolist()
    )
    return len(vr.codes), len(vr.uniq), ranked
