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
  direct-mapped miss positions of :func:`repro.kernels.dmc.dmc_miss_stream`.

They raise :class:`~repro.kernels.columnar.KernelUnsupported` (or
return ``None``, for the counted Fig. 4 replay) where the columns
cannot represent the trace, and the caller runs the oracle.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.cache.geometry import CacheGeometry
from repro.kernels.dmc import dmc_miss_stream
from repro.kernels.columnar import (
    KernelUnsupported,
    require_numpy,
    trace_columns,
    value_ranking,
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
