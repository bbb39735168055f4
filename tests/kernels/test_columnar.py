"""Exactness of the shared decompositions (:mod:`repro.kernels.columnar`).

Every array of the word layer, the line index, the value ranking and
the set order's grouping is checked, with its dtype, against its
definition computed the slow way here: ``np.argsort(kind="stable")``,
``np.unique`` with its returns, and Python loops for the previous-store
values, the consistency flag, the CSR ranks and the next-store
positions.  Each trace is checked in both column forms a kernel sees:
the packed ``u8``/``u32`` columns of a decoded trace and the ``int64``
columns of a trace built from records.  The sort every layer shares,
:func:`~repro.kernels.columnar.stable_order`, is checked against
``np.argsort(kind="stable")`` on both sides of its radix bound.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.kernels import backend
from repro.kernels.columnar import (
    KernelUnsupported,
    LineIndex,
    SetOrder,
    TraceColumns,
    ValueRanking,
    WordLayer,
    packed_order,
    stable_order,
)
from repro.trace.synth import uniform_trace, zipf_value_trace
from repro.trace.trace import Trace
from repro.workloads.registry import workload_names

np = backend.numpy_or_none()

pytestmark = pytest.mark.skipif(
    np is None, reason="vectorized backend needs numpy"
)

#: Line shifts of 8- to 64-byte lines; the short traces add 4-byte lines.
_SHIFTS = (3, 4, 5, 6)


def _column_forms(records):
    """The packed columns of a decoded trace, then the int64 columns of
    a trace built from records."""
    table = np.array(records, dtype=np.int64).reshape(-1, 3)
    packed = TraceColumns(
        table[:, 0].astype("<u1"),
        table[:, 1].astype("<u4"),
        table[:, 2].astype("<u4"),
    )
    wide = TraceColumns(*(np.ascontiguousarray(table[:, i]) for i in range(3)))
    return packed, wide


def _same(actual, expected, dtype) -> None:
    expected = np.asarray(expected)
    assert actual.dtype == np.dtype(dtype)
    assert actual.shape == expected.shape
    np.testing.assert_array_equal(actual, expected)


def _word_reference(records):
    words = np.array([address >> 2 for _, address, _ in records], dtype=np.int64)
    wuniq, wid = np.unique(words, return_inverse=True)
    prevval = []
    stored = {}
    consistent = True
    for op, address, value in records:
        before = stored.get(address >> 2, 0)
        prevval.append(before)
        if op == 1:
            stored[address >> 2] = value
        elif value != before:
            consistent = False
    worder = np.argsort(words, kind="stable")
    return worder, wuniq, wid, prevval, consistent


def _line_reference(records, shift: int):
    n = len(records)
    lines = np.array([address >> shift for _, address, _ in records], dtype=np.int64)
    luniq, lslot = np.unique(lines, return_inverse=True)
    start = np.concatenate(
        ([0], np.cumsum(np.bincount(lslot, minlength=len(luniq))))
    )
    rank = []
    earlier = Counter()
    for slot in lslot.tolist():
        rank.append(int(start[slot]) + earlier[slot])
        earlier[slot] += 1
    ns = [n] * n
    upcoming = {}
    for position in range(n - 1, -1, -1):
        op, address, _ = records[position]
        if op == 1:
            upcoming[address >> shift] = position
        ns[position] = upcoming.get(address >> shift, n)
    lorder = np.argsort(lslot, kind="stable")
    return lines, luniq, lslot, lorder, start, rank, ns


def _ranking_reference(records):
    values = np.array([value for _, _, value in records], dtype=np.int64)
    uniq, first, codes, counts = np.unique(
        values, return_index=True, return_inverse=True, return_counts=True
    )
    ranking = sorted(range(len(uniq)), key=lambda i: (-counts[i], uniq[i]))
    return uniq, counts, first, codes, ranking


def _check_trace(records, shifts=_SHIFTS) -> None:
    words = _word_reference(records)
    lines = {shift: _line_reference(records, shift) for shift in shifts}
    ranking = _ranking_reference(records)
    for cols in _column_forms(records):
        wl = WordLayer(np, cols)
        worder, wuniq, wid, prevval, consistent = words
        _same(wl.worder, worder, np.int32)
        _same(wl.wuniq, wuniq, cols.addrs.dtype)
        _same(wl.wid, wid, np.int32)
        _same(wl.prevval, prevval, cols.values.dtype)
        assert wl.consistent is consistent

        for shift in shifts:
            li = LineIndex(np, cols, wl, shift)
            line_ids, luniq, lslot, lorder, start, rank, ns = lines[shift]
            _same(li.lines, line_ids, np.int32)
            _same(li.luniq, luniq, cols.addrs.dtype)
            _same(li.lslot, lslot, np.int32)
            _same(li.lorder, lorder, np.int32)
            _same(li.start, start, np.int64)
            _same(li.rank, rank, np.int32)
            _same(li.ns, ns, np.int32)
            so = SetOrder(np, cols, li, 64)
            sets = line_ids & 63
            _same(so.sorder, np.argsort(sets, kind="stable"), np.int32)
            _same(
                so.sstart,
                np.concatenate(([0], np.cumsum(np.bincount(sets, minlength=64)))),
                np.int64,
            )

        vr = ValueRanking(np, cols)
        uniq, counts, first, codes, order = ranking
        _same(vr.uniq, uniq, cols.values.dtype)
        _same(vr.counts, counts, np.intp)
        _same(vr.first, first, np.intp)
        _same(vr.codes, codes, np.int32)
        _same(vr.order, order, np.intp)


class TestBundledTraces:
    @pytest.mark.parametrize("name", workload_names())
    def test_every_layer_array(self, store, name):
        _check_trace(store.get(name, "test").records)


#: Edge traces: (id, records).
_EDGES = (
    ("empty", []),
    ("one record", [(1, 0x1000, 7)]),
    ("top address", [(1, 0xFFFFFFFC, 3), (0, 0xFFFFFFFC, 3), (0, 0, 0)]),
    ("top value", [(1, 8, 0xFFFFFFFF), (0, 8, 0xFFFFFFFF), (0, 12, 0)]),
    ("one word", [(0, 0x40, 0)] + [(1, 0x40, 5), (0, 0x40, 5)] * 4),
    ("inconsistent load", [(1, 0, 5), (0, 0, 7), (0, 4, 1)]),
    ("unaligned addresses", [(1, 1, 2), (0, 3, 2), (1, 6, 9), (0, 4, 9)]),
)


class TestEdgeTraces:
    @pytest.mark.parametrize(
        "records", [records for _, records in _EDGES], ids=[i for i, _ in _EDGES]
    )
    def test_every_layer_array(self, records):
        _check_trace(records, shifts=(2,) + _SHIFTS)

    def test_line_slots_beyond_the_radix_bound(self):
        # 70,000 distinct 16-byte lines, visited out of address order:
        # the line order takes the packed sort, not the uint16 radix.
        records = [
            (int(i % 3 == 0), 16 * ((i * 7919) % 70_000), i & 7)
            for i in range(70_000)
        ]
        _check_trace(records, shifts=(4,))
        assert len(_line_reference(records, 4)[1]) > 1 << 16

    @pytest.mark.parametrize(
        "record",
        [(0, 4, -1), (0, 2**33, 0), (1, 0, 1 << 40)],
        ids=["negative value", "wide address", "wide value"],
    )
    def test_records_outside_32_bits_decline(self, record):
        cols = TraceColumns(*(np.array([field]) for field in record))
        assert not cols.in_range
        with pytest.raises(KernelUnsupported):
            WordLayer(np, cols)
        with pytest.raises(KernelUnsupported):
            ValueRanking(np, cols)


#: Short traces: the value-consistent synthetic generators, and raw
#: records with any op, unaligned addresses and loads of any value.
_TRACES = st.one_of(
    st.builds(
        zipf_value_trace,
        accesses=st.integers(min_value=0, max_value=200),
        footprint_words=st.integers(min_value=1, max_value=512),
        frequent_fraction=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    ),
    st.builds(
        uniform_trace,
        accesses=st.integers(min_value=0, max_value=200),
        footprint_words=st.integers(min_value=1, max_value=512),
        store_fraction=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    ),
    st.builds(
        Trace,
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=0, max_value=600),
                st.integers(min_value=0, max_value=3),
            ),
            max_size=60,
        ),
    ),
)


class TestShortTraces:
    @seed(24)
    @settings(deadline=None)
    @given(trace=_TRACES)
    def test_every_layer_array(self, trace):
        _check_trace(trace.records, shifts=(2,) + _SHIFTS)


#: Bounds on both sides of the uint16 radix sort's 2**16.
_BOUNDS = (1, 2, 255, 1 << 16, (1 << 16) + 1, 1 << 20, 1 << 32)


class TestStableOrder:
    @pytest.mark.parametrize("bound", _BOUNDS)
    @pytest.mark.parametrize("dtype", ["int32", "uint32", "int64"])
    def test_matches_stable_argsort(self, bound, dtype):
        high = min(bound, int(np.iinfo(dtype).max) + 1)
        rng = np.random.default_rng(bound)
        for n in (0, 1, 5000):
            keys = rng.integers(0, high, n, dtype=np.int64)
            keys[: n // 4] = high - 1
            keys = keys.astype(dtype)
            _same(
                stable_order(np, keys, bound),
                np.argsort(keys, kind="stable"),
                np.int32,
            )

    @pytest.mark.parametrize("bound", [1 << 16, (1 << 16) + 1, 1 << 32])
    def test_packed_order_returns_the_sorted_keys(self, bound):
        keys = np.random.default_rng(7).integers(0, bound, 3000, dtype=np.int64)
        order, ordered = packed_order(np, keys)
        _same(order, np.argsort(keys, kind="stable"), np.int32)
        np.testing.assert_array_equal(ordered, np.sort(keys))

    def test_keys_wider_than_32_bits_decline(self):
        with pytest.raises(KernelUnsupported):
            stable_order(np, np.zeros(3, dtype=np.int64), (1 << 32) + 1)

    @seed(24)
    @settings(deadline=None)
    @given(
        bound=st.sampled_from(_BOUNDS),
        draws=st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=80),
    )
    def test_property(self, bound, draws):
        keys = np.array([draw % bound for draw in draws], dtype=np.int64)
        _same(
            stable_order(np, keys, bound),
            np.argsort(keys, kind="stable"),
            np.int32,
        )
