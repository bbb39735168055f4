"""Shared columnar decomposition of a trace, memoised on ``Trace.memo``.

Every vectorized kernel — and the profiler — works from the same
derived arrays instead of re-walking the record tuples per model:

* :func:`trace_columns` — the raw ``op``/``address``/``value`` columns;
* :func:`word_layer` — per-word previous-store values and the
  value-consistency flag the FVC kernel's hit predicate relies on;
* :func:`line_index` — per ``line_shift``: line ids, the line-grouped
  (CSR) time order, per-record CSR ranks, and next-store positions;
* :func:`freq_layer` — per ``(line_shift, encoder)``: frequent-value
  flags, the packed per-line prefix (frequent-load / frequent-store /
  frequent-word-delta counts in one cumulative sum), next-infrequent
  positions and the frequent-store sub-CSR;
* :func:`set_order` — per ``(line_shift, num_sets)``: the stable
  set-grouped order, its run-length structure and the alternation
  breaks used to bound FVC hit batches;
* :func:`ranked_value_counts` — the access-value ranking (Fig. 1)
  straight from the columns.

All entries live on ``trace.memo`` so cells sharing a geometry (or just
a line size) pay for each decomposition once; ``Trace.append``/
``extend`` drop them with the other aggregates.

Layout invariants the kernels lean on (checked against the oracle
simulators, not re-derived here):

* line = address >> line_shift, set = line & (num_sets - 1), word
  offset = (address >> 2) & (words_per_line - 1);
* CSR rank arithmetic: ``rank[lorder] == arange(n)`` so any record's
  position within its line's time-ordered access list is O(1);
* the packed prefix uses 21/21/22-bit fields, so these layers decline
  (raise :class:`KernelUnsupported`) for traces of 2**21 records or
  more — far above every bundled workload;
* per-record index arrays — ``lines``, ``lslot``, ``lorder``, ``rank``,
  ``ns``, ``nir``, ``fs_pos``/``fs_word``, ``sorder``, ``run_*`` and
  ``brk2`` — are int32: the line decomposition declines addresses
  above 2**32 - 1, so line ids and record positions fit.  Only the
  packed prefix ``pref`` and the short per-line/per-set bounds
  (``start``, ``sstart``) stay int64.  Kernels index and ``bisect``
  these arrays through zero-copy ``memoryview`` objects, which yield
  plain ints, instead of memoising per-record plain-list copies (about
  36 bytes per element).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.kernels.backend import numpy_or_none
from repro.trace.trace import Trace

#: Field widths of the packed per-line prefix (see :func:`freq_layer`).
PACK_BITS = 21
PACK_MASK = (1 << PACK_BITS) - 1
#: Traces at or above this record count overflow the packed prefix.
MAX_RECORDS = 1 << PACK_BITS

_WORD_MASK = 0xFFFFFFFF


class KernelUnsupported(Exception):
    """Raised internally when a decomposition cannot represent a trace;
    kernels catch it and decline to the oracle."""


def require_numpy():
    """The numpy module, or :class:`KernelUnsupported` when absent."""
    np = numpy_or_none()
    if np is None:
        raise KernelUnsupported("numpy is not importable")
    return np


class TraceColumns:
    """The raw columns plus the bounds checks every kernel needs."""

    __slots__ = ("n", "ops", "addrs", "values", "nloads", "in_range")

    def __init__(self, np, records: List[Tuple[int, int, int]]) -> None:
        n = len(records)
        flat = np.fromiter(
            (field for record in records for field in record),
            dtype=np.int64,
            count=3 * n,
        ).reshape(n, 3)
        self.n = n
        self.ops = np.ascontiguousarray(flat[:, 0])
        self.addrs = np.ascontiguousarray(flat[:, 1])
        self.values = np.ascontiguousarray(flat[:, 2])
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


def trace_columns(trace: Trace) -> TraceColumns:
    """Columnar view of ``trace.records`` (memoised)."""
    np = require_numpy()
    return trace.memo("kernel:columns", lambda t: TraceColumns(np, t.records))


class WordLayer:
    """Word-granular derivations: previous-store values and consistency."""

    __slots__ = ("words", "wuniq", "prevval", "consistent")

    def __init__(self, np, cols: TraceColumns) -> None:
        n = cols.n
        self.words = cols.addrs >> 2
        if n == 0:
            self.wuniq = np.zeros(0, dtype=np.int64)
            self.prevval = np.zeros(0, dtype=np.int64)
            self.consistent = True
            return
        wuniq, winv = np.unique(self.words, return_inverse=True)
        self.wuniq = wuniq
        worder = np.argsort(winv.astype(np.int32), kind="stable")
        grp = winv[worder].astype(np.int64)
        ops_w = cols.ops[worder]
        vals_w = cols.values[worder]
        base = grp * (n + 1)
        idx = np.arange(n, dtype=np.int64)
        # Forward-fill the latest store position within each word group:
        # stores contribute base+i+1, everything else the group floor, so
        # a running max never bleeds across the base jumps.
        cand = np.where(ops_w == 1, base + idx + 1, base)
        ffill = np.maximum.accumulate(cand)
        prev = np.empty(n, dtype=np.int64)
        prev[0] = base[0]
        prev[1:] = ffill[:-1]
        rel = prev - base  # i+1 of the last store strictly before, else <= 0
        has_prev = rel > 0
        prevval_sorted = np.where(
            has_prev, vals_w[np.maximum(rel - 1, 0)], 0
        )
        self.prevval = np.empty(n, dtype=np.int64)
        self.prevval[worder] = prevval_sorted
        loads = ops_w == 0
        self.consistent = bool((vals_w[loads] == prevval_sorted[loads]).all())


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
        if not cols.in_range:
            raise KernelUnsupported("records outside the 32-bit domain")
        n = cols.n
        self.lines = (wl.words >> (shift - 2)).astype(np.int32)
        # The distinct lines come from the (tiny) distinct-word set, not
        # from an O(n) unique over the per-record line column.
        self.luniq = np.unique(wl.wuniq >> (shift - 2))
        self.lslot = np.searchsorted(self.luniq, self.lines).astype(np.int32)
        self.lorder = np.argsort(self.lslot, kind="stable").astype(np.int32)
        nlines = len(self.luniq)
        self.start = np.zeros(nlines + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.lslot, minlength=nlines), out=self.start[1:]
        )
        self.rank = np.empty(n, dtype=np.int32)
        self.rank[self.lorder] = np.arange(n, dtype=np.int32)
        # ns[p]: position of the first store to line(p) at-or-after p
        # (n when none) via a reversed running min over the CSR order.
        self.ns = np.empty(n, dtype=np.int32)
        if n:
            seg = self.lslot[self.lorder].astype(np.int64)
            key = np.where(
                cols.ops[self.lorder] == 1, seg * (n + 1) + self.lorder, seg * (n + 1) + n
            )
            rmin = np.minimum.accumulate(key[::-1])[::-1] - seg * (n + 1)
            self.ns[self.lorder] = rmin


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
        self.fs_word = ((wl.words[self.fs_pos]) & (wpl - 1)).astype(np.int32)
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
        sets = (li.lines & (num_sets - 1)).astype(
            np.uint16 if num_sets <= 1 << 16 else np.int64
        )
        self.sorder = np.argsort(sets, kind="stable").astype(np.int32)
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


def ranked_value_counts(trace: Trace, depth: int):
    """``(total, distinct, ranked)`` matching ``ExactTopK`` semantics:
    ranked ``(value, count)`` pairs sorted by (-count, value), truncated
    to ``depth``, as plain Python ints."""
    np = require_numpy()
    cols = trace_columns(trace)
    if cols.n == 0:
        return 0, 0, ()
    uniq, counts = np.unique(cols.values, return_counts=True)
    order = np.lexsort((uniq, -counts))[:depth]
    ranked = tuple(
        (int(uniq[i]), int(counts[i])) for i in order.tolist()
    )
    return cols.n, len(uniq), ranked
