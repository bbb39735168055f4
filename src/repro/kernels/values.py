"""Column paths of the §2 value studies.

Each function reproduces one pure-Python oracle exactly, from the
memoised decompositions of :mod:`repro.kernels.columnar` instead of a
walk over the record tuples:

* :func:`stability_snapshots` — the running top-k rankings of Table 3
  (:func:`repro.profiling.stability.profile_stability`);
* :func:`constancy_counts` — Table 4's constant addresses
  (:func:`repro.profiling.constancy.profile_constancy`);
* :func:`timeline_counts` — Fig. 3's access curves
  (:func:`repro.profiling.timeline.profile_timeline`);
* :func:`miss_attribution` — Fig. 4's frequent-value misses, from the
  direct-mapped miss positions of :func:`repro.kernels.dmc.dmc_miss_stream`;
* :func:`occurrence_samples` and :func:`live_words` — the live-memory
  snapshots of Figs. 1-3 and 5 and Table 1, from the columns and the
  trace's dead ranges
  (:func:`repro.profiling.occurrence.occurrence_profile` and
  :func:`~repro.profiling.occurrence.live_snapshot`).

They raise :class:`~repro.kernels.columnar.KernelUnsupported` (or
return ``None``, for the counted Fig. 4 replay) where the columns
cannot represent the trace, and the caller runs the oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.cache.geometry import CacheGeometry
from repro.kernels.dmc import dmc_miss_stream
from repro.kernels.columnar import (
    KernelUnsupported,
    require_numpy,
    trace_columns,
    value_ranking,
    word_layer,
)
from repro.trace.trace import Trace


def _top(np, counts, depth: int):
    """Indices of the ``depth`` largest non-zero ``counts``, ordered by
    (-count, index)."""
    seen = np.flatnonzero(counts)
    if len(seen) > depth:
        held = counts[seen]
        cut = len(held) - depth
        seen = seen[held >= np.partition(held, cut)[cut]]
    return seen[np.lexsort((seen, -counts[seen]))[:depth]]


def stability_snapshots(
    trace: Trace, step: int, depth: int
) -> Tuple[List[Tuple[int, ...]], List[int]]:
    """The oracle's checkpoint snapshots: after each ``step`` records
    (and at the end), the ``depth`` most accessed values so far by
    (-count, value), with the record count each snapshot covers."""
    np = require_numpy()
    ranking = value_ranking(trace)
    total = len(ranking.codes)
    distinct = len(ranking.uniq)
    positions = list(range(step, total, step)) + [total]
    counts = np.zeros(distinct, dtype=np.int64)
    snapshots: List[Tuple[int, ...]] = []
    start = 0
    for end in positions:
        counts += np.bincount(ranking.codes[start:end], minlength=distinct)
        top = _top(np, counts, depth)
        snapshots.append(tuple(int(value) for value in ranking.uniq[top]))
        start = end
    return snapshots, positions


def constancy_counts(trace: Trace) -> Tuple[int, int]:
    """``(referenced, constant)``: distinct addresses, and those whose
    every access carries one value."""
    np = require_numpy()
    cols = trace_columns(trace)
    if not cols.in_range:
        raise KernelUnsupported("records outside the 32-bit domain")
    if cols.n == 0:
        return 0, 0
    pairs = np.unique(
        (cols.addrs.astype(np.uint64) << np.uint64(32))
        | cols.values.astype(np.uint64)
    )
    owners = pairs >> np.uint64(32)
    starts = np.flatnonzero(np.r_[True, owners[1:] != owners[:-1]])
    sizes = np.diff(np.r_[starts, len(pairs)])
    return len(starts), int((sizes == 1).sum())


def _member_flags(np, values, wanted: Set[int]):
    return np.isin(values, np.array(sorted(wanted), dtype=np.int64))


def timeline_counts(
    trace: Trace, value_sets: Sequence[Set[int]], limits: Sequence[int]
) -> List[Tuple[Tuple[int, ...], int]]:
    """For each record count in ``limits`` (non-decreasing, at most the
    trace length): how many of the first that-many records carry a
    value of each set, and how many distinct values they carry."""
    np = require_numpy()
    cols = trace_columns(trace)
    ranking = value_ranking(trace)
    ends = np.asarray(limits, dtype=np.int64)
    covered = []
    for wanted in value_sets:
        prefix = np.zeros(cols.n + 1, dtype=np.int64)
        np.cumsum(_member_flags(np, cols.values, wanted), out=prefix[1:])
        covered.append(prefix[ends].tolist())
    distinct = np.searchsorted(np.sort(ranking.first), ends).tolist()
    return [
        (tuple(column[index] for column in covered), distinct[index])
        for index in range(len(ends))
    ]


def miss_attribution(
    trace: Trace, geometry: CacheGeometry, value_sets: Sequence[Set[int]]
) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """``(misses, per-set counts)`` of a direct-mapped cache's misses
    whose record carries a value of each set, or ``None`` when the
    direct-mapped kernel declines."""
    stream = dmc_miss_stream(trace, geometry)
    if stream is None:
        return None
    np = require_numpy()
    miss_positions, _ = stream
    missed = trace_columns(trace).values[miss_positions]
    return len(missed), tuple(
        int(_member_flags(np, missed, wanted).sum()) for wanted in value_sets
    )


class _Liveness:
    """Each accessed word's liveness and value, advanced sample by
    sample over the trace's dense word ids.

    A word is live at the sample taken after ``c`` records when its
    last access ``i`` is below ``c`` and no dead range covering it has
    ``i < position < c``; its value is the value column at ``i``.  The
    state is three arrays over the dense ids — last access, last death
    and value code — which each step updates from the records and dead
    ranges it passes.
    """

    def __init__(self, np, trace: Trace) -> None:
        cols = trace_columns(trace)
        n = cols.n
        if n and bool((cols.addrs & 3).any()):
            raise KernelUnsupported("misaligned addresses")
        words = word_layer(trace)
        ranking = value_ranking(trace)
        self.np = np
        self.n = n
        self.uniq = ranking.uniq
        self.codes = ranking.codes
        self.wuniq = words.wuniq
        self.wid = words.wid
        # The trace's word order gives, per record, the position of the
        # next access to the same word.
        order = words.worder
        grouped = self.wid[order]
        repeat = grouped[1:] == grouped[:-1]
        self.next = np.full(n, n, dtype=np.int32)
        self.next[order[:-1][repeat]] = order[1:][repeat]
        self.dead_pos, self.dead_ids = self._deaths(np, trace)
        count = len(self.wuniq)
        self.last = np.full(count, -1, dtype=np.int64)
        # A death at position 0 precedes every record, so 0 is the
        # neutral last death.
        self.dead = np.zeros(count, dtype=np.int64)
        self.value = np.zeros(count, dtype=np.int64)
        self.done = 0

    def _deaths(self, np, trace: Trace):
        """Every (position, dense id) a dead range covers, by position;
        words the trace never touches are never live and drop out."""
        if not trace.dead_ranges:
            empty = np.zeros(0, dtype=np.int64)
            return empty, empty
        triples = np.frombuffer(trace.dead_ranges, dtype=np.uint32)
        triples = triples.reshape(-1, 3).astype(np.int64)
        triples = triples[np.argsort(triples[:, 0], kind="stable")]
        positions, bases, nwords = triples.T
        lo = np.searchsorted(self.wuniq, bases)
        spans = np.searchsorted(self.wuniq, bases + nwords) - lo
        total = int(spans.sum())
        starts = np.cumsum(spans) - spans
        ids = np.arange(total, dtype=np.int64) + np.repeat(lo - starts, spans)
        return np.repeat(positions, spans), ids

    def advance(self, count: int):
        """Take in the records and dead ranges before sample ``count``;
        returns the live-word mask."""
        np = self.np
        start, self.done = self.done, count
        if count > start:
            touched = start + np.flatnonzero(self.next[start:count] >= count)
            ids = self.wid[touched]
            self.last[ids] = touched
            self.value[ids] = self.codes[touched]
        lo, hi = np.searchsorted(self.dead_pos, (start, count))
        if hi > lo:
            np.maximum.at(self.dead, self.dead_ids[lo:hi], self.dead_pos[lo:hi])
        return self.dead <= self.last


def occurrence_samples(
    trace: Trace, sample_interval: int, depth: int
) -> Tuple[List[Tuple[int, int, Dict[int, int]]], Tuple[Tuple[int, int], ...]]:
    """The snapshots a sampler firing every ``sample_interval`` records
    takes — ``(access count, live words, {value: live words holding
    it})`` each — and the ``depth`` most occurring values over all of
    them, as ``(value, total)`` by (-total, value)."""
    np = require_numpy()
    state = _Liveness(np, trace)
    distinct = len(state.uniq)
    aggregate = np.zeros(distinct, dtype=np.int64)
    samples = []
    for count in range(sample_interval, state.n + 1, sample_interval):
        live = state.advance(count)
        counts = np.bincount(state.value[live], minlength=distinct)
        aggregate += counts
        held = np.flatnonzero(counts)
        samples.append((
            count,
            int(counts.sum()),
            dict(zip(state.uniq[held].tolist(), counts[held].tolist())),
        ))
    top = _top(np, aggregate, depth)
    ranked = tuple(zip(state.uniq[top].tolist(), aggregate[top].tolist()))
    return samples, ranked


def live_words(trace: Trace, count: int) -> List[Tuple[int, int]]:
    """The ``(byte address, value)`` pairs, by address, of the words
    live at the sample taken after ``count`` records (none when the
    trace is shorter)."""
    np = require_numpy()
    state = _Liveness(np, trace)
    if count > state.n:
        return []
    live = state.advance(count)
    addresses = (state.wuniq[live] << 2).tolist()
    return list(zip(addresses, state.uniq[state.value[live]].tolist()))
