"""Tests for the binary trace format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceFormatError
from repro.trace.io import read_trace, write_trace
from repro.trace.trace import Trace

_records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=0xFFFFFFFC).map(lambda a: a & ~3),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
    ),
    max_size=300,
)


class TestRoundtrip:
    def test_simple_roundtrip(self, tmp_path):
        trace = Trace(
            [(0, 16, 1), (1, 32, 0xFFFFFFFF)],
            workload="gcc",
            input_name="ref",
            instruction_count=99,
        )
        path = tmp_path / "t.trc"
        write_trace(trace, path)
        loaded = read_trace(path)
        assert loaded == trace
        assert loaded.workload == "gcc"
        assert loaded.input_name == "ref"
        assert loaded.instruction_count == 99

    def test_gzip_roundtrip(self, tmp_path):
        trace = Trace([(0, 16, 1)] * 100, workload="w")
        path = tmp_path / "t.trc.gz"
        write_trace(trace, path)
        assert read_trace(path) == trace

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.trc"
        write_trace(Trace(), path)
        assert len(read_trace(path)) == 0

    @settings(max_examples=25, deadline=None)
    @given(records=_records)
    def test_roundtrip_property(self, tmp_path_factory, records):
        trace = Trace(records, workload="p", input_name="q")
        path = tmp_path_factory.mktemp("traces") / "t.trc"
        write_trace(trace, path)
        assert read_trace(path).records == records


class TestErrorHandling:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.trc"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.trc"
        path.write_bytes(b"FVTC")
        with pytest.raises(TraceFormatError):
            read_trace(path)

    def test_truncated_payload(self, tmp_path):
        trace = Trace([(0, 16, 1)] * 10)
        path = tmp_path / "trunc.trc"
        write_trace(trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with pytest.raises(TraceFormatError):
            read_trace(path)
