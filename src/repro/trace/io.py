"""The binary trace format: columnar, version 4.

Every trace the system writes, caches or ships uses this one encoding.
The three record fields are packed as contiguous little-endian arrays —
the exact layout the vectorized kernels (:mod:`repro.kernels`) consume —
at fixed, computable section offsets (:func:`columnar_layout`), so a
reader can memory-map a column without touching the others.  A fourth
section holds the trace's dead ranges (:attr:`Trace.dead_ranges`), the
liveness the occurrence study replays:

====== ==========================================================
offset contents
====== ==========================================================
0      magic ``b"FVTC"``
4      u16 format version (4)
6      u16 workload-name length ``W``
8      u16 input-name length ``I``
10     u16 reserved (zero)
12     u64 record count ``N``
20     u64 nominal instruction count
28     u32 crc32 of the op column bytes
32     u32 crc32 of the address column bytes
36     u32 crc32 of the value column bytes
40     u64 dead-range count ``D``
48     u32 crc32 of the dead-range section bytes
52     workload name, input name (UTF-8)
...    zero padding to the next 8-byte boundary
       op column: ``N x u8``, zero-padded to 8 bytes
       address column: ``N x u32``, zero-padded to 8 bytes
       value column: ``N x u32``, zero-padded to 8 bytes
       dead ranges: ``D x (u32 position, u32 base word, u32 nwords)``
====== ==========================================================

Checksums are per section so corruption reports name the damaged
section.  The writer uses numpy when it is importable and falls back
to the stdlib ``struct`` module otherwise; the reader needs neither —
the format carries no numpy dependency.  Files ending in ``.gz`` are
gzip-compressed transparently.

Files in the retired layouts — the row formats (versions 1 and 2) and
the columnar layout without dead ranges (version 3) — are rejected with
a :class:`TraceFormatError`.  Every trace is a pure function of
``(workload, input, data seed)``, so ``repro-fvc trace gen`` rebuilds
any of them.
"""

from __future__ import annotations

import gzip
import os
import struct
import sys
import zlib
from array import array
from typing import BinaryIO, Tuple, Union

from repro.common.errors import TraceFormatError
from repro.trace.trace import Trace, u32_column

_MAGIC = b"FVTC"
_VERSION = 4
_HEADER = struct.Struct("<4sHHHHQQIIIQI")

PathLike = Union[str, "os.PathLike[str]"]


def _open(path: PathLike, mode: str) -> BinaryIO:
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)  # type: ignore[return-value]
    return open(path, mode)


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def columnar_layout(
    record_count: int,
    workload_bytes: int,
    input_bytes: int,
    dead_range_count: int = 0,
) -> Tuple[int, int, int, int, int]:
    """Section offsets ``(ops, addrs, values, dead_ranges, total)`` for
    a trace file — fixed arithmetic over the header fields, which is
    what makes the columns memory-mappable."""
    names_end = _HEADER.size + workload_bytes + input_bytes
    ops_offset = _align8(names_end)
    addrs_offset = _align8(ops_offset + record_count)
    values_offset = _align8(addrs_offset + 4 * record_count)
    dead_offset = _align8(values_offset + 4 * record_count)
    return (
        ops_offset,
        addrs_offset,
        values_offset,
        dead_offset,
        dead_offset + 12 * dead_range_count,
    )


def _u32_bytes(values: array) -> bytes:
    """An ``array("I")`` as little-endian u32 bytes."""
    if sys.byteorder == "little" and values.itemsize == 4:
        return values.tobytes()
    return struct.pack(f"<{len(values)}I", *values)


def _u32_array(data: bytes) -> array:
    """Little-endian u32 bytes as an ``array("I")``."""
    typed = array("I")
    if typed.itemsize != 4:
        return array("I", struct.unpack(f"<{len(data) // 4}I", data))
    typed.frombytes(data)
    if sys.byteorder != "little":
        typed.byteswap()
    return typed


def _column_bytes(trace: Trace) -> Tuple[bytes, bytes, bytes]:
    """The three packed column byte strings for ``trace``."""
    columns = trace.raw_columns
    if columns is not None:
        return columns
    records = trace.records
    count = len(records)
    numpy = None
    try:
        import numpy
    except ImportError:
        pass
    if numpy is not None:
        try:
            flat = numpy.fromiter(
                (field for record in records for field in record),
                dtype=numpy.int64,
                count=3 * count,
            ).reshape(count, 3)
        except (OverflowError, ValueError) as exc:
            raise TraceFormatError(
                f"trace records outside the columnar domain: {exc}"
            ) from None
        ops = flat[:, 0]
        addrs = flat[:, 1]
        values = flat[:, 2]
        if count and (
            ops.min() < 0
            or ops.max() > 0xFF
            or addrs.min() < 0
            or addrs.max() > 0xFFFFFFFF
            or values.min() < 0
            or values.max() > 0xFFFFFFFF
        ):
            raise TraceFormatError(
                "trace records outside the columnar domain "
                "(op u8, address/value u32)"
            )
        return (
            ops.astype("<u1").tobytes(),
            addrs.astype("<u4").tobytes(),
            values.astype("<u4").tobytes(),
        )
    ops_buffer = bytearray()
    addrs_buffer = bytearray()
    values_buffer = bytearray()
    pack_u32 = struct.Struct("<I").pack
    try:
        for op, address, value in records:
            ops_buffer.append(op)
            addrs_buffer += pack_u32(address)
            values_buffer += pack_u32(value)
    except (ValueError, struct.error) as exc:
        raise TraceFormatError(
            f"trace records outside the columnar domain: {exc}"
        ) from None
    return bytes(ops_buffer), bytes(addrs_buffer), bytes(values_buffer)


def trace_to_bytes(trace: Trace) -> bytes:
    """The serialisation of ``trace`` as bytes."""
    workload = trace.workload.encode("utf-8")
    input_name = trace.input_name.encode("utf-8")
    if len(workload) > 0xFFFF or len(input_name) > 0xFFFF:
        raise TraceFormatError("trace metadata names too long to serialise")
    count = len(trace)
    ops, addrs, values = _column_bytes(trace)
    dead = _u32_bytes(trace.dead_ranges)
    dead_count = len(trace.dead_ranges) // 3
    ops_offset, addrs_offset, values_offset, dead_offset, total = (
        columnar_layout(count, len(workload), len(input_name), dead_count)
    )
    out = bytearray(total)
    _HEADER.pack_into(
        out,
        0,
        _MAGIC,
        _VERSION,
        len(workload),
        len(input_name),
        0,
        count,
        trace.instruction_count,
        zlib.crc32(ops),
        zlib.crc32(addrs),
        zlib.crc32(values),
        dead_count,
        zlib.crc32(dead),
    )
    names_offset = _HEADER.size
    out[names_offset : names_offset + len(workload)] = workload
    input_offset = names_offset + len(workload)
    out[input_offset : input_offset + len(input_name)] = input_name
    out[ops_offset : ops_offset + count] = ops
    out[addrs_offset : addrs_offset + 4 * count] = addrs
    out[values_offset : values_offset + 4 * count] = values
    out[dead_offset:total] = dead
    return bytes(out)


def write_trace(trace: Trace, path: PathLike) -> None:
    """Serialise ``trace`` to ``path`` (gzip when the name ends in .gz)."""
    data = trace_to_bytes(trace)
    with _open(path, "wb") as stream:
        stream.write(data)


def _keep_columns() -> bool:
    """Whether a decoded trace should keep its columns: only the
    vectorized kernels read them, so with the kernels off (the python
    backend, the sanitizer, no numpy) the decode stays eager."""
    from repro.common.errors import ConfigurationError
    from repro.kernels.dispatch import kernels_active

    try:
        return kernels_active()
    except ConfigurationError:
        return False


def _header_fields(data: bytes, source: str) -> tuple:
    """The validated header fields of in-memory trace bytes."""
    if data[:4] == b"FVTR":
        raise TraceFormatError(
            f"{source}: row-format trace (version 1/2) is no longer "
            "read; regenerate it with 'repro-fvc trace gen'"
        )
    if data[:4] == _MAGIC and data[4:6] == b"\x03\x00":
        raise TraceFormatError(
            f"{source}: version 3 trace (no dead ranges) is no longer "
            "read; regenerate it with 'repro-fvc trace gen'"
        )
    if len(data) < _HEADER.size:
        raise TraceFormatError(f"{source}: truncated header")
    fields = _HEADER.unpack_from(data)
    if fields[0] != _MAGIC:
        raise TraceFormatError(f"{source}: bad magic {fields[0]!r}")
    if fields[1] != _VERSION:
        raise TraceFormatError(f"{source}: unsupported version {fields[1]}")
    return fields


def _parse(data: bytes, source: str):
    """The header tuple, raw header fields and section layout of
    in-memory trace bytes, checked against the bytes' length."""
    fields = _header_fields(data, source)
    _, version, wlen, ilen, _, count, instructions = fields[:7]
    names = data[_HEADER.size : _HEADER.size + wlen + ilen]
    if len(names) < wlen + ilen:
        raise TraceFormatError(f"{source}: truncated metadata")
    layout = columnar_layout(count, wlen, ilen, fields[10])
    if len(data) != layout[4]:
        raise TraceFormatError(
            f"{source}: expected {layout[4]} bytes, found {len(data)}"
        )
    header = (
        version,
        names[:wlen].decode("utf-8"),
        names[wlen:].decode("utf-8"),
        count,
        instructions,
    )
    return header, fields, layout


def trace_header_from_bytes(
    data: bytes, source: str = "trace"
) -> Tuple[int, str, str, int, int]:
    """Parse just the header out of in-memory trace bytes.

    Returns ``(version, workload, input_name, record_count,
    instruction_count)`` without decoding the sections, after checking
    that the bytes are as long as the header's four sections — the
    dead ranges included — say.  The trace cache lists entries with it.
    """
    return _parse(data, source)[0]


def _checked_sections(data: bytes, source: str):
    """The header tuple and the four checksummed sections (ops, addrs,
    values, dead ranges) of in-memory trace bytes."""
    header, fields, layout = _parse(data, source)
    count = header[3]
    ops_offset, addrs_offset, values_offset, dead_offset, total = layout
    sections = (
        data[ops_offset : ops_offset + count],
        data[addrs_offset : addrs_offset + 4 * count],
        data[values_offset : values_offset + 4 * count],
        data[dead_offset:total],
    )
    for label, section, expected in zip(
        ("op column", "address column", "value column", "dead-range section"),
        sections,
        (fields[7], fields[8], fields[9], fields[11]),
    ):
        if zlib.crc32(section) != expected:
            raise TraceFormatError(f"{source}: {label} checksum mismatch")
    return header, sections


def verify_trace_bytes(
    data: bytes, source: str = "trace"
) -> Tuple[int, str, str, int, int]:
    """Check in-memory trace bytes end to end — header, layout and
    every section's checksum — without building a trace; returns the
    :func:`trace_header_from_bytes` tuple.  ``repro-fvc cache verify``
    runs it over every entry."""
    return _checked_sections(data, source)[0]


def trace_from_bytes(data: bytes, source: str = "trace") -> Trace:
    """Materialise a trace from in-memory bytes.

    The trace keeps the three checksummed columns (see
    :class:`~repro.trace.trace.Trace`) while the vectorized kernels are
    active, and builds its record list at once otherwise.
    """
    header, (ops, addrs, values, dead) = _checked_sections(data, source)
    _, workload, input_name, _, instructions = header
    dead_ranges = _u32_array(dead)
    if _keep_columns():
        return Trace(
            workload=workload,
            input_name=input_name,
            instruction_count=instructions,
            columns=(ops, addrs, values),
            dead_ranges=dead_ranges,
        )
    return Trace(
        list(zip(ops, u32_column(addrs), u32_column(values))),
        workload=workload,
        input_name=input_name,
        instruction_count=instructions,
        dead_ranges=dead_ranges,
    )


def read_trace(path: PathLike) -> Trace:
    """Load a trace previously written by :func:`write_trace`."""
    with _open(path, "rb") as stream:
        data = stream.read()
    return trace_from_bytes(data, source=str(path))
