"""The binary trace format: columnar, version 3.

Every trace the system writes, caches or ships uses this one encoding.
The three record fields are packed as contiguous little-endian arrays —
the exact layout the vectorized kernels (:mod:`repro.kernels`) consume —
at fixed, computable section offsets (:func:`columnar_layout`), so a
reader can memory-map a column without touching the others:

====== ==========================================================
offset contents
====== ==========================================================
0      magic ``b"FVTC"``
4      u16 format version (3)
6      u16 workload-name length ``W``
8      u16 input-name length ``I``
10     u16 reserved (zero)
12     u64 record count ``N``
20     u64 nominal instruction count
28     u32 crc32 of the op column bytes
32     u32 crc32 of the address column bytes
36     u32 crc32 of the value column bytes
40     workload name, input name (UTF-8)
...    zero padding to the next 8-byte boundary
       op column: ``N x u8``, zero-padded to 8 bytes
       address column: ``N x u32``, zero-padded to 8 bytes
       value column: ``N x u32``
====== ==========================================================

Checksums are per column so corruption reports name the damaged
section.  The writer uses numpy when it is importable and falls back
to the stdlib ``struct`` module otherwise; the reader needs neither —
the format carries no numpy dependency.  Files ending in ``.gz`` are
gzip-compressed transparently.

Files in the retired row formats (versions 1 and 2) are rejected with a
:class:`TraceFormatError`.  Every trace is a pure function of
``(workload, input, data seed)``, so ``repro-fvc trace gen`` rebuilds
any of them.
"""

from __future__ import annotations

import gzip
import os
import struct
import zlib
from typing import BinaryIO, Tuple, Union

from repro.common.errors import TraceFormatError
from repro.trace.trace import Trace, u32_column

_MAGIC = b"FVTC"
_VERSION = 3
_HEADER = struct.Struct("<4sHHHHQQIII")

PathLike = Union[str, "os.PathLike[str]"]


def _open(path: PathLike, mode: str) -> BinaryIO:
    if str(path).endswith(".gz"):
        return gzip.open(path, mode)  # type: ignore[return-value]
    return open(path, mode)


def _align8(offset: int) -> int:
    return (offset + 7) & ~7


def columnar_layout(
    record_count: int, workload_bytes: int, input_bytes: int
) -> Tuple[int, int, int, int]:
    """Column section offsets ``(ops, addrs, values, total)`` for a
    trace file — fixed arithmetic over the header fields, which is what
    makes the columns memory-mappable."""
    names_end = _HEADER.size + workload_bytes + input_bytes
    ops_offset = _align8(names_end)
    addrs_offset = _align8(ops_offset + record_count)
    values_offset = _align8(addrs_offset + 4 * record_count)
    return ops_offset, addrs_offset, values_offset, values_offset + 4 * record_count


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
    ops_offset, addrs_offset, values_offset, total = columnar_layout(
        count, len(workload), len(input_name)
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
    )
    names_offset = _HEADER.size
    out[names_offset : names_offset + len(workload)] = workload
    input_offset = names_offset + len(workload)
    out[input_offset : input_offset + len(input_name)] = input_name
    out[ops_offset : ops_offset + count] = ops
    out[addrs_offset : addrs_offset + 4 * count] = addrs
    out[values_offset : values_offset + 4 * count] = values
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
    if len(data) < _HEADER.size:
        raise TraceFormatError(f"{source}: truncated header")
    fields = _HEADER.unpack_from(data)
    if fields[0] != _MAGIC:
        raise TraceFormatError(f"{source}: bad magic {fields[0]!r}")
    if fields[1] != _VERSION:
        raise TraceFormatError(f"{source}: unsupported version {fields[1]}")
    return fields


def trace_header_from_bytes(
    data: bytes, source: str = "trace"
) -> Tuple[int, str, str, int, int]:
    """Parse just the header out of in-memory trace bytes.

    Returns ``(version, workload, input_name, record_count,
    instruction_count)`` without decoding the columns — the trace
    cache lists and verifies entries with it.
    """
    _, version, wlen, ilen, _, count, instructions = _header_fields(
        data, source
    )[:7]
    names = data[_HEADER.size : _HEADER.size + wlen + ilen]
    if len(names) < wlen + ilen:
        raise TraceFormatError(f"{source}: truncated metadata")
    workload = names[:wlen].decode("utf-8")
    input_name = names[wlen:].decode("utf-8")
    return version, workload, input_name, count, instructions


def trace_from_bytes(data: bytes, source: str = "trace") -> Trace:
    """Materialise a trace from in-memory bytes.

    The trace keeps the three checksummed columns (see
    :class:`~repro.trace.trace.Trace`) while the vectorized kernels are
    active, and builds its record list at once otherwise.
    """
    (
        _magic,
        _version,
        wlen,
        ilen,
        _,
        count,
        instructions,
        ops_crc,
        addrs_crc,
        values_crc,
    ) = _header_fields(data, source)
    ops_offset, addrs_offset, values_offset, total = columnar_layout(
        count, wlen, ilen
    )
    if len(data) != total:
        raise TraceFormatError(
            f"{source}: expected {total} bytes, found {len(data)}"
        )
    names = data[_HEADER.size : _HEADER.size + wlen + ilen]
    workload = names[:wlen].decode("utf-8")
    input_name = names[wlen:].decode("utf-8")
    ops = data[ops_offset : ops_offset + count]
    addrs = data[addrs_offset : addrs_offset + 4 * count]
    values = data[values_offset : values_offset + 4 * count]
    for label, column, expected in (
        ("op", ops, ops_crc),
        ("address", addrs, addrs_crc),
        ("value", values, values_crc),
    ):
        if zlib.crc32(column) != expected:
            raise TraceFormatError(
                f"{source}: {label} column checksum mismatch"
            )
    if _keep_columns():
        return Trace(
            workload=workload,
            input_name=input_name,
            instruction_count=instructions,
            columns=(ops, addrs, values),
        )
    return Trace(
        list(zip(ops, u32_column(addrs), u32_column(values))),
        workload=workload,
        input_name=input_name,
        instruction_count=instructions,
    )


def read_trace(path: PathLike) -> Trace:
    """Load a trace previously written by :func:`write_trace`."""
    with _open(path, "rb") as stream:
        data = stream.read()
    return trace_from_bytes(data, source=str(path))
