"""The columnar trace contract: a decoded trace keeps its v3 columns.

With the kernels active, :func:`trace_from_bytes` hands back a trace
that holds the three packed columns; ``len()``, iteration, re-encoding
and the kernel replays read them without building the record list,
and :attr:`Trace.records` builds it (once) for code that indexes.
With the kernels off the decode is eager, as it always was.
"""

from __future__ import annotations

import pickle

import pytest

from repro.analysis import sanitize
from repro.cache.geometry import CacheGeometry
from repro.experiments.common import baseline_stats, classify_replay, fvc_replay
from repro.kernels import backend
from repro.trace.io import trace_from_bytes, trace_to_bytes
from repro.trace.trace import Trace
from repro.workloads.registry import workload_names

needs_numpy = pytest.mark.skipif(
    not backend.numpy_available(), reason="the columnar decode needs numpy"
)


def _use(monkeypatch, backend_name: str) -> None:
    monkeypatch.setenv(backend.ENV_VAR, backend_name)
    monkeypatch.delenv(sanitize.ENV_VAR, raising=False)


def _decode(monkeypatch, data: bytes, backend_name: str) -> Trace:
    _use(monkeypatch, backend_name)
    return trace_from_bytes(data)


def _sample() -> Trace:
    return Trace(
        [(0, 16, 1), (1, 0xFFFFFFF0, 0xFFFFFFFF), (0, 16, 7), (1, 32, 0)],
        workload="demo",
        input_name="test",
        instruction_count=11,
    )


@needs_numpy
class TestDecode:
    @pytest.mark.slow
    @pytest.mark.parametrize("name", workload_names())
    def test_columns_stream_the_eager_records(self, name, store, monkeypatch):
        data = trace_to_bytes(store.get(name, "test"))
        lazy = _decode(monkeypatch, data, "numpy")
        eager = _decode(monkeypatch, data, "python")
        assert lazy.raw_columns is not None
        assert eager.raw_columns is None
        assert len(lazy) == len(eager.records)
        assert list(lazy) == eager.records
        assert lazy.raw_columns is not None
        assert lazy.records == eager.records
        assert lazy.raw_columns is None

    def test_reencoding_returns_the_same_bytes(self, monkeypatch):
        data = trace_to_bytes(_sample())
        trace = _decode(monkeypatch, data, "numpy")
        assert trace_to_bytes(trace) == data
        assert trace.raw_columns is not None
        assert (trace.workload, trace.input_name) == ("demo", "test")
        assert trace.instruction_count == 11

    def test_sanitizer_decodes_eagerly(self, monkeypatch):
        data = trace_to_bytes(_sample())
        _use(monkeypatch, "numpy")
        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        assert trace_from_bytes(data).raw_columns is None

    def test_indexing_builds_the_list_once(self, monkeypatch):
        trace = _decode(monkeypatch, trace_to_bytes(_sample()), "numpy")
        assert trace[1] == (1, 0xFFFFFFF0, 0xFFFFFFFF)
        assert trace.raw_columns is None
        assert trace.records is trace.records
        assert trace[1:3] == Trace(_sample().records[1:3])

    def test_empty_trace(self, monkeypatch):
        trace = _decode(monkeypatch, trace_to_bytes(Trace()), "numpy")
        assert len(trace) == 0
        assert list(trace) == []
        assert trace == Trace()


@needs_numpy
class TestContainer:
    def test_equality(self, monkeypatch):
        data = trace_to_bytes(_sample())
        lazy = _decode(monkeypatch, data, "numpy")
        assert lazy == _decode(monkeypatch, data, "numpy")
        assert lazy == _sample() and _sample() == lazy
        assert lazy != Trace(_sample().records[:3])
        assert lazy != Trace([(0, 16, 1)] * 4)
        assert lazy.raw_columns is not None

    def test_pickling_round_trips(self, monkeypatch):
        lazy = _decode(monkeypatch, trace_to_bytes(_sample()), "numpy")
        copy = pickle.loads(pickle.dumps(lazy))
        assert copy == lazy == _sample()
        assert copy.raw_columns == lazy.raw_columns
        assert copy.instruction_count == 11
        built = pickle.loads(pickle.dumps(_sample()))
        assert built == _sample() and built.raw_columns is None

    def test_append_and_extend_drop_columns_and_memo(self, monkeypatch):
        data = trace_to_bytes(_sample())
        for grow in (
            lambda trace: trace.append(0, 64, 3),
            lambda trace: trace.extend([(0, 64, 3)]),
        ):
            trace = _decode(monkeypatch, data, "numpy")
            assert trace.load_count == 2
            assert trace.memo("probe", lambda t: "kept") == "kept"
            grow(trace)
            assert trace.raw_columns is None
            assert trace.records == _sample().records + [(0, 64, 3)]
            assert trace.load_count == 3
            assert trace.memo("probe", lambda t: "fresh") == "fresh"

    def test_aggregates_stream(self, monkeypatch):
        trace = _decode(monkeypatch, trace_to_bytes(_sample()), "numpy")
        assert (trace.load_count, trace.store_count) == (2, 2)
        assert trace.footprint_words() == 3
        assert trace.distinct_values() == 4
        assert next(trace.accesses()) == (0, 16, 1)
        assert "4 accesses" in repr(trace)
        assert trace.raw_columns is not None


@needs_numpy
class TestKernelsReadColumns:
    def test_kernel_replays_and_len_build_no_list(self, gcc_trace, monkeypatch):
        trace = _decode(monkeypatch, trace_to_bytes(gcc_trace), "numpy")
        geometry = CacheGeometry(16 * 1024, 32)
        assert len(trace) == len(gcc_trace)
        assert baseline_stats(trace, geometry).as_dict() == (
            baseline_stats(gcc_trace, geometry).as_dict()
        )
        stats, extras = fvc_replay(trace, geometry, 512, 7)
        built_stats, built_extras = fvc_replay(gcc_trace, geometry, 512, 7)
        assert (stats.as_dict(), extras) == (built_stats.as_dict(), built_extras)
        assert classify_replay(trace, geometry) == classify_replay(
            gcc_trace, geometry
        )
        assert trace.raw_columns is not None

    def test_oracle_replay_streams(self, gcc_trace, monkeypatch):
        trace = _decode(monkeypatch, trace_to_bytes(gcc_trace), "numpy")
        _use(monkeypatch, "python")
        geometry = CacheGeometry(8 * 1024, 16)
        assert baseline_stats(trace, geometry).as_dict() == (
            baseline_stats(gcc_trace, geometry).as_dict()
        )
        assert trace.raw_columns is not None
