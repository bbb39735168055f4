"""Tests for the binary trace format (columnar, version 4) — the one
encoding trace files, cache entries and the cluster wire use."""

from __future__ import annotations

import gzip
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceFormatError
from repro.trace.io import (
    _HEADER,
    columnar_layout,
    read_trace,
    trace_from_bytes,
    trace_header_from_bytes,
    trace_to_bytes,
    verify_trace_bytes,
    write_trace,
)
from repro.trace.trace import Trace

_records = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),
        st.integers(min_value=0, max_value=0xFFFFFFFC).map(lambda a: a & ~3),
        st.integers(min_value=0, max_value=0xFFFFFFFF),
    ),
    max_size=300,
)


def _sample_trace() -> Trace:
    return Trace(
        [(0, 16, 1), (1, 0xFFFFFFF0, 0xFFFFFFFF), (0, 16, 7), (1, 32, 0)],
        workload="gcc",
        input_name="ref",
        instruction_count=42,
    )


def _freed_trace() -> Trace:
    """A trace with dead ranges, as a program run records them."""
    return Trace(
        [(1, 16, 5), (0, 16, 5), (1, 20, 0xFFFFFFFF)],
        workload="li",
        input_name="test",
        dead_ranges=[1, 4, 2, 3, 0x3FFFFFFF, 1, 3, 4, 1],
    )


#: File names every round trip is tried under: the suffix never selects
#: the encoding, and ``.gz`` adds transparent gzip compression.
_NAMES = ("t.trcb", "t.trc", "t.trcb.gz")


class TestColumnarRoundtrip:
    def test_simple_roundtrip(self, tmp_path):
        trace = _sample_trace()
        for name in _NAMES:
            path = tmp_path / name
            write_trace(trace, path)
            loaded = read_trace(path)
            assert loaded == trace
            assert loaded.workload == "gcc"
            assert loaded.input_name == "ref"
            assert loaded.instruction_count == 42
        # gzip wraps the encoding without changing it.
        packed = (tmp_path / "t.trcb.gz").read_bytes()
        assert gzip.decompress(packed) == trace_to_bytes(trace)

    def test_empty_trace(self, tmp_path):
        for trace in (Trace(), Trace([], workload="w")):
            for name in _NAMES:
                path = tmp_path / name
                write_trace(trace, path)
                loaded = read_trace(path)
                assert loaded == trace
                assert len(loaded) == 0

    @settings(max_examples=25, deadline=None)
    @given(records=_records)
    def test_roundtrip_property(self, tmp_path_factory, records):
        trace = Trace(records, workload="p", input_name="q")
        directory = tmp_path_factory.mktemp("traces")
        for name in ("t.trcb", "t.trcb.gz"):
            write_trace(trace, directory / name)
            assert read_trace(directory / name).records == records

    def test_header_of_columnar_file(self, tmp_path):
        trace = _sample_trace()
        path = tmp_path / "t.trcb"
        write_trace(trace, path)
        assert trace_header_from_bytes(path.read_bytes()) == (
            4, "gcc", "ref", 4, 42,
        )

    def test_dead_ranges_round_trip(self, tmp_path):
        trace = _freed_trace()
        for name in _NAMES:
            write_trace(trace, tmp_path / name)
            loaded = read_trace(tmp_path / name)
            assert loaded == trace
            assert loaded.dead_ranges == trace.dead_ranges
        data = trace_to_bytes(trace)
        assert verify_trace_bytes(data) == (4, "li", "test", 3, 3)
        assert trace_from_bytes(data).dead_ranges.tolist() == [
            1, 4, 2, 3, 0x3FFFFFFF, 1, 3, 4, 1,
        ]

    def test_only_program_traces_carry_dead_ranges(self):
        from repro.trace.filters import filter_loads
        from repro.trace.synth import uniform_trace

        trace = _freed_trace()
        assert trace != Trace(trace.records)  # the ranges are content
        for derived in (
            trace[1:], filter_loads(trace), Trace(trace.records),
            uniform_trace(10),
        ):
            assert len(derived.dead_ranges) == 0


class TestColumnarLayout:
    def test_sections_are_eight_aligned(self):
        for count in (0, 1, 7, 8, 9, 65536):
            for dead in (0, 1, 5):
                ops, addrs, values, ranges, total = columnar_layout(
                    count, 3, 4, dead
                )
                assert ops % 8 == addrs % 8 == values % 8 == ranges % 8 == 0
                assert addrs >= ops + count
                assert values >= addrs + 4 * count
                assert ranges >= values + 4 * count
                assert total == ranges + 12 * dead

    def test_layout_matches_real_bytes(self):
        trace = _sample_trace()
        data = trace_to_bytes(trace)
        total = columnar_layout(
            len(trace.records), len(b"gcc"), len(b"ref")
        )[4]
        assert len(data) == total
        freed = _freed_trace()
        total = columnar_layout(3, len(b"li"), len(b"test"), 3)[4]
        assert len(trace_to_bytes(freed)) == total


class TestColumnarErrors:
    def test_truncated_header(self, tmp_path):
        path = tmp_path / "t.trcb"
        for data in (b"FVTC\x04\x00", b"FVTC" + bytes(32)):
            path.write_bytes(data)
            with pytest.raises(TraceFormatError, match="truncated header"):
                read_trace(path)

    def test_truncated_metadata(self):
        data = trace_to_bytes(_sample_trace())
        with pytest.raises(TraceFormatError, match="truncated metadata"):
            trace_header_from_bytes(data[: _HEADER.size + 2])

    def test_truncated_column(self, tmp_path):
        trace = _sample_trace()
        path = tmp_path / "t.trcb"
        write_trace(trace, path)
        for cut in (4, 5):
            path.write_bytes(trace_to_bytes(trace)[:-cut])
            with pytest.raises(TraceFormatError):
                read_trace(path)

    def test_corrupt_column_is_named_by_its_checksum(self):
        data = bytearray(trace_to_bytes(_sample_trace()))
        data[-1] ^= 0xFF  # last byte of the value column
        with pytest.raises(TraceFormatError, match="value"):
            trace_from_bytes(bytes(data))

    def test_flipped_dead_range_bit_names_the_section(self):
        data = bytearray(trace_to_bytes(_freed_trace()))
        data[-3] ^= 0x01  # inside the last dead range
        for decode in (trace_from_bytes, verify_trace_bytes):
            with pytest.raises(TraceFormatError, match="dead-range"):
                decode(bytes(data))

    def test_truncated_dead_ranges_rejected_by_the_header_parser(self):
        data = trace_to_bytes(_freed_trace())
        with pytest.raises(TraceFormatError, match="expected"):
            trace_header_from_bytes(data[:-12])

    def test_version_3_rejected_with_regeneration_hint(self):
        data = bytearray(trace_to_bytes(_sample_trace()))
        struct.pack_into("<H", data, 4, 3)
        for decode in (trace_from_bytes, trace_header_from_bytes):
            with pytest.raises(TraceFormatError, match="repro-fvc trace gen"):
                decode(bytes(data))

    def test_unknown_version_rejected(self):
        data = bytearray(trace_to_bytes(_sample_trace()))
        struct.pack_into("<H", data, 4, 99)
        with pytest.raises(TraceFormatError, match="version"):
            trace_from_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="version"):
            trace_header_from_bytes(bytes(data))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.trcb"
        path.write_bytes(b"NOPE" + b"\x00" * 60)
        with pytest.raises(TraceFormatError, match="bad magic"):
            read_trace(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_row_format_rejected_with_regeneration_hint(self, tmp_path, version):
        # A file in a retired row format (version 1 fixed rows or
        # version 2 delta/varint): header, names, then one record.
        header = struct.pack("<4sHHHHQQ", b"FVTR", version, 3, 3, 0, 1, 0)
        path = tmp_path / "old.trc"
        path.write_bytes(header + b"gccref" + struct.pack("<BII", 0, 16, 1))
        with pytest.raises(TraceFormatError, match="repro-fvc trace gen"):
            read_trace(path)
        with pytest.raises(TraceFormatError, match="repro-fvc trace gen"):
            trace_header_from_bytes(path.read_bytes())

    def test_out_of_domain_record_rejected_at_write(self):
        trace = Trace([(0, 2**33, 1)], workload="syn")
        with pytest.raises(TraceFormatError):
            trace_to_bytes(trace)


class TestBackendByteIdentity:
    def test_fallback_writer_emits_identical_bytes(self, monkeypatch):
        # The stdlib array/struct fallback and the numpy fast path must
        # produce the same file, byte for byte.
        pytest.importorskip("numpy")
        import sys

        traces = (_sample_trace(), _freed_trace())
        with_numpy = [trace_to_bytes(trace) for trace in traces]
        monkeypatch.setitem(sys.modules, "numpy", None)
        without_numpy = [trace_to_bytes(trace) for trace in traces]
        assert with_numpy == without_numpy

    def test_fallback_reader_round_trips(self, monkeypatch):
        import sys

        trace = _sample_trace()
        data = trace_to_bytes(trace)
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert trace_from_bytes(data) == trace


class TestCompression:
    def test_columnar_compresses_no_worse_than_rows(self):
        trace = Trace(
            [(index & 1, 0x1000 + (index % 512) * 4, index % 8)
             for index in range(20000)],
            workload="syn",
        )
        columnar = zlib.compress(trace_to_bytes(trace), 6)
        # The payload the trace cache persists stays below the 9 bytes
        # per record a fixed-row encoding takes before compression.
        assert len(columnar) < len(trace.records) * 9
        assert _HEADER.size == 52
