"""The word-addressable memory every workload executes against.

Responsibilities:

* hold 32-bit word values at 4-byte-aligned byte addresses;
* record every load/store into an attached trace sink, and every
  deallocation beside it (:attr:`WordMemory.dead_ranges`);
* track which locations are *live* — referenced at least once and not
  deallocated since — which is exactly the paper's definition of the
  locations of **interest** for the occurrence study (§2);
* invoke an optional sampling hook every N accesses, standing in for the
  paper's every-10M-instructions occurrence snapshots.

The load/store hot path is deliberately branch-light: the workloads
generate hundreds of thousands of accesses per run and the experiment
suite runs many workloads.
"""

from __future__ import annotations

from array import array
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.common.errors import MemoryError_
from repro.common.words import WORD_MASK

#: Trace opcode for a load.  Kept as plain ints (not an Enum) because they
#: appear in every trace record and Enum attribute access costs ~10x more.
LOAD = 0
#: Trace opcode for a store.
STORE = 1


class AccessOp:
    """Namespace for the trace opcodes (``LOAD`` = 0, ``STORE`` = 1)."""

    LOAD = LOAD
    STORE = STORE


class WordMemory:
    """Sparse 32-bit word memory with access recording and liveness.

    Parameters
    ----------
    record:
        Optional list; when set, every access appends a
        ``(op, byte_address, value)`` tuple to it, and every
        :meth:`mark_dead` appends its range to :attr:`dead_ranges`.
    sample_interval / sampler:
        When both are set, ``sampler(memory)`` is invoked every
        ``sample_interval`` accesses — used by the occurrence study's
        replay oracle (:func:`repro.profiling.occurrence.replay`) to
        snapshot live memory.

    Unbacked locations read as zero, like freshly mapped pages — this
    matters for the frequent-value studies, where zero-initialised data is
    one of the sources of the dominant value 0.
    """

    __slots__ = (
        "_words",
        "_live",
        "_record",
        "dead_ranges",
        "access_count",
        "_sample_interval",
        "_sampler",
        "_next_sample",
    )

    def __init__(
        self,
        record: Optional[List[Tuple[int, int, int]]] = None,
        sample_interval: int = 0,
        sampler: Optional[Callable[["WordMemory"], None]] = None,
    ) -> None:
        self._words: Dict[int, int] = {}
        self._live: set = set()
        self._record = record
        #: While recording: flat ``(position, base word, nwords)``
        #: triples, one per :meth:`mark_dead`, where ``position`` is the
        #: access count at the call.  ``None`` when not recording.
        self.dead_ranges: Optional[array] = (
            array("I") if record is not None else None
        )
        self.access_count = 0
        if (sample_interval > 0) != (sampler is not None):
            raise MemoryError_(
                "sample_interval and sampler must be provided together"
            )
        self._sample_interval = sample_interval
        self._sampler = sampler
        self._next_sample = sample_interval if sample_interval else -1

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------
    def load(self, byte_addr: int) -> int:
        """Read the word at ``byte_addr`` (must be 4-byte aligned)."""
        if byte_addr & 3:
            raise MemoryError_(f"misaligned load at {byte_addr:#x}")
        waddr = byte_addr >> 2
        value = self._words.get(waddr, 0)
        self._live.add(waddr)
        if self._record is not None:
            self._record.append((LOAD, byte_addr, value))
        self.access_count += 1
        if self.access_count == self._next_sample:
            self._next_sample += self._sample_interval
            self._sampler(self)  # type: ignore[misc]
        return value

    def store(self, byte_addr: int, value: int) -> None:
        """Write ``value`` (wrapped to 32 bits) at ``byte_addr``."""
        if byte_addr & 3:
            raise MemoryError_(f"misaligned store at {byte_addr:#x}")
        waddr = byte_addr >> 2
        self._words[waddr] = value & WORD_MASK
        self._live.add(waddr)
        if self._record is not None:
            self._record.append((STORE, byte_addr, value & WORD_MASK))
        self.access_count += 1
        if self.access_count == self._next_sample:
            self._next_sample += self._sample_interval
            self._sampler(self)  # type: ignore[misc]

    # ------------------------------------------------------------------
    # Non-traced access (for cache simulators backing-store and checks)
    # ------------------------------------------------------------------
    def peek(self, byte_addr: int) -> int:
        """Read a word without recording an access or marking it live."""
        if byte_addr & 3:
            raise MemoryError_(f"misaligned peek at {byte_addr:#x}")
        return self._words.get(byte_addr >> 2, 0)

    def poke(self, byte_addr: int, value: int) -> None:
        """Write a word without recording an access or marking it live."""
        if byte_addr & 3:
            raise MemoryError_(f"misaligned poke at {byte_addr:#x}")
        self._words[byte_addr >> 2] = value & WORD_MASK

    # ------------------------------------------------------------------
    # Liveness (the paper's "interesting" locations)
    # ------------------------------------------------------------------
    def mark_dead(self, byte_addr: int, nwords: int) -> None:
        """Deallocate ``nwords`` words starting at ``byte_addr``.

        Called on heap frees and stack-frame pops; the words drop out of
        the live set.  Their contents are deliberately *retained*: a later
        reallocation reads stale data exactly like real ``malloc`` memory,
        which keeps trace replay bit-identical (a replayed store stream
        against zero-initialised memory reproduces every load value).
        """
        if byte_addr & 3:
            raise MemoryError_(f"misaligned mark_dead at {byte_addr:#x}")
        base = byte_addr >> 2
        live = self._live
        for waddr in range(base, base + nwords):
            live.discard(waddr)
        if self.dead_ranges is not None:
            self.dead_ranges.extend((self.access_count, base, nwords))

    def live_items(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(byte_address, value)`` over live referenced words."""
        words = self._words
        for waddr in self._live:
            yield waddr << 2, words.get(waddr, 0)

    def live_values(self) -> List[int]:
        """Values of all live referenced words (occurrence snapshots)."""
        words = self._words
        return [words.get(waddr, 0) for waddr in self._live]

    @property
    def live_count(self) -> int:
        """Number of live referenced words."""
        return len(self._live)

    def __contains__(self, byte_addr: int) -> bool:
        return (byte_addr >> 2) in self._words
