"""The :class:`Trace` container."""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.mem.memory import LOAD, STORE
from repro.trace.record import Access

Record = Tuple[int, int, int]

#: The packed ``(op, address, value)`` columns of the trace format:
#: ``N x u8``, ``N x u32`` and ``N x u32``, little-endian.
Columns = Tuple[bytes, bytes, bytes]


def u32_column(data: bytes) -> Sequence[int]:
    """The little-endian u32 column ``data`` as a sequence of ints —
    a zero-copy view on little-endian hosts."""
    if sys.byteorder == "little" and struct.calcsize("I") == 4:
        return memoryview(data).cast("I")
    typed = array("I")
    if typed.itemsize == 4:
        typed.frombytes(data)
        typed.byteswap()
        return typed
    return struct.unpack(f"<{len(data) // 4}I", data)


def _stream(columns: Columns) -> Iterator[Record]:
    ops, addrs, values = columns
    return zip(ops, u32_column(addrs), u32_column(values))


class Trace:
    """An ordered sequence of memory accesses plus provenance metadata.

    A trace holds its accesses in one of two forms.  A decoded trace
    (:func:`repro.trace.io.trace_from_bytes` with the kernels active)
    keeps the three packed columns of the file it came from; ``len()``
    reads their record count, iteration streams ``(op, address,
    value)`` tuples straight from them, and the vectorized kernels wrap
    them without a copy (:attr:`raw_columns`).  :attr:`records` — the
    plain list of tuples, for code that indexes or slices — is built on
    first read and then replaces the columns.  A trace built from
    records holds that list from the start.

    :attr:`dead_ranges` holds the deallocations of the program run that
    recorded the trace — flat ``(position, base word, nwords)`` triples
    in an ``array("I")``, ``position`` being the record count at the
    free — which the occurrence study
    (:func:`repro.profiling.occurrence.occurrence_profile`) needs to
    know which words are live.  It is empty for every trace no program
    made: synthetic traces (:mod:`repro.trace.synth`), ``Trace(records)``
    and derived traces (slices and :mod:`repro.trace.filters`), which
    drop the ranges.  For those, "referenced and never freed" is the
    liveness.
    """

    __slots__ = (
        "_records",
        "_columns",
        "workload",
        "input_name",
        "instruction_count",
        "dead_ranges",
        "_aggregates",
    )

    def __init__(
        self,
        records: Optional[Sequence[Record]] = None,
        workload: str = "",
        input_name: str = "",
        instruction_count: int = 0,
        columns: Optional[Columns] = None,
        dead_ranges: Optional[Iterable[int]] = None,
    ) -> None:
        if columns is not None and records is not None:
            raise ValueError("a trace takes records or columns, not both")
        if dead_ranges is None:
            dead_ranges = array("I")
        elif not (isinstance(dead_ranges, array) and dead_ranges.typecode == "I"):
            dead_ranges = array("I", dead_ranges)
        if len(dead_ranges) % 3:
            raise ValueError("dead ranges are (position, base, nwords) triples")
        self.dead_ranges: array = dead_ranges
        self._columns: Optional[Columns] = columns
        self._records: Optional[List[Record]] = (
            None if columns is not None
            else list(records) if records is not None
            else []
        )
        self.workload = workload
        self.input_name = input_name
        # Workloads report a nominal instruction count (>= access count);
        # the stability study (Table 3) reports percentages of it.
        self.instruction_count = instruction_count or len(self)
        # O(n) aggregates (load/store counts, footprint, distinct values)
        # memoised here; :meth:`append`/:meth:`extend` invalidate.  Code
        # mutating :attr:`records` directly bypasses the memo and must
        # call :meth:`invalidate_aggregates` itself.
        self._aggregates: dict = {}

    # Representation -------------------------------------------------------
    # Readers take ``_columns`` first: while it is set the columns are
    # valid, and ``records`` sets ``_records`` before it clears them.
    @property
    def records(self) -> List[Record]:
        """The accesses as a list of ``(op, address, value)`` tuples,
        built on first read from the columns (which it then replaces)."""
        columns = self._columns
        if columns is not None:
            self._records = list(_stream(columns))
            self._columns = None
        return self._records  # type: ignore[return-value]

    @property
    def raw_columns(self) -> Optional[Columns]:
        """The packed columns while the trace has not built its
        record list, else ``None``."""
        return self._columns

    # Container protocol -------------------------------------------------
    def __len__(self) -> int:
        columns = self._columns
        if columns is not None:
            return len(columns[0])
        return len(self._records)  # type: ignore[arg-type]

    def __iter__(self) -> Iterator[Record]:
        columns = self._columns
        if columns is not None:
            return _stream(columns)
        return iter(self._records)  # type: ignore[arg-type]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(
                self.records[index],
                workload=self.workload,
                input_name=self.input_name,
            )
        return self.records[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return False
        if self.dead_ranges != other.dead_ranges:
            return False
        mine, theirs = self._columns, other._columns
        if mine is not None and theirs is not None:
            return mine == theirs
        return len(self) == len(other) and all(
            a == b for a, b in zip(self, other)
        )

    def __repr__(self) -> str:
        source = self.workload or "<anonymous>"
        return f"Trace({source}/{self.input_name or '-'}, {len(self)} accesses)"

    # Named access ---------------------------------------------------------
    def accesses(self) -> Iterator[Access]:
        """Iterate records as :class:`Access` named tuples."""
        return (Access(*record) for record in self)

    def append(self, op: int, address: int, value: int) -> None:
        """Append one record (used by trace builders and tests)."""
        self.records.append((op, address, value))
        self._aggregates.clear()

    def extend(self, records: Iterable[Record]) -> None:
        """Append many records."""
        self.records.extend(records)
        self._aggregates.clear()

    def invalidate_aggregates(self) -> None:
        """Drop memoised aggregates after direct ``records`` mutation."""
        self._aggregates.clear()

    def memo(self, key: str, compute):
        """Memoise ``compute(self)`` on the trace, keyed by ``key``.

        For derived values that are pure functions of the records (e.g.
        access-value profiles).  The entry lives exactly as long as the
        trace and is dropped when :meth:`append`/:meth:`extend` mutate
        it — unlike an external ``id()``-keyed table, which can hand a
        recycled id another trace's result.
        """
        cached = self._aggregates.get(key)
        if cached is None:
            cached = compute(self)
            self._aggregates[key] = cached
        return cached

    # Simple aggregates (memoised; O(n) only on first read) ------------
    @property
    def load_count(self) -> int:
        """Number of load records."""
        cached = self._aggregates.get("loads")
        if cached is None:
            cached = sum(1 for op, _, _ in self if op == LOAD)
            self._aggregates["loads"] = cached
        return cached

    @property
    def store_count(self) -> int:
        """Number of store records."""
        cached = self._aggregates.get("stores")
        if cached is None:
            cached = sum(1 for op, _, _ in self if op == STORE)
            self._aggregates["stores"] = cached
        return cached

    def footprint_words(self) -> int:
        """Number of distinct word addresses referenced."""
        cached = self._aggregates.get("footprint")
        if cached is None:
            cached = len({address for _, address, _ in self})
            self._aggregates["footprint"] = cached
        return cached

    def distinct_values(self) -> int:
        """Number of distinct values read or written."""
        cached = self._aggregates.get("values")
        if cached is None:
            cached = len({value for _, _, value in self})
            self._aggregates["values"] = cached
        return cached
