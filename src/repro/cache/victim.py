"""Jouppi's victim cache: a DMC backed by a tiny fully-associative buffer.

The paper compares the FVC against this design (Fig. 15): lines evicted
from the DMC enter the victim cache; a DMC miss that hits in the victim
cache swaps the two lines.  Because the victim cache holds whole
uncompressed lines and is fully associative, it must stay very small —
exactly the property the FVC's compression sidesteps.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.common.errors import ConfigurationError

_INVALID = -1


class VictimCacheSystem:
    """A direct-mapped cache plus an ``n``-entry fully-associative victim
    buffer with LRU replacement and line swapping on victim hits.

    ``stats`` reports the combined behaviour (an access hits overall iff
    it hits in the DMC or the victim cache); ``dmc_hits`` / ``vc_hits``
    split the hits by provider.
    """

    def __init__(self, geometry: CacheGeometry, victim_entries: int) -> None:
        if geometry.ways != 1:
            raise ConfigurationError("victim cache augments a direct-mapped cache")
        if victim_entries <= 0:
            raise ConfigurationError("victim cache needs at least one entry")
        self.geometry = geometry
        self.victim_entries = victim_entries
        # Bound once: each geometry property re-derives its value.
        self._line_shift = geometry.line_shift
        self._set_mask = geometry.set_mask
        self._words_per_line = geometry.words_per_line
        self.stats = CacheStats()
        self.dmc_hits = 0
        self.vc_hits = 0
        self._tags = [_INVALID] * geometry.num_sets
        self._dirty = [False] * geometry.num_sets
        # Victim buffer: recency-ordered [line_addr, dirty], MRU first.
        self._victims: List[List[int]] = []

    # ------------------------------------------------------------------
    def access(self, op: int, byte_addr: int) -> bool:
        """Simulate one access; returns True on an overall hit."""
        line_addr = byte_addr >> self._line_shift
        index = line_addr & self._set_mask
        stats = self.stats
        if self._tags[index] == line_addr:
            self.dmc_hits += 1
            if op:
                self._dirty[index] = True
                stats.write_hits += 1
            else:
                stats.read_hits += 1
            return True
        # Probe the victim buffer.
        victims = self._victims
        for position, entry in enumerate(victims):
            if entry[0] == line_addr:
                # Victim hit: swap the DMC line with the victim entry.
                del victims[position]
                self._swap_in(index, line_addr, bool(entry[1]), position=0)
                self.vc_hits += 1
                if op:
                    self._dirty[index] = True
                    stats.write_hits += 1
                else:
                    stats.read_hits += 1
                return True
        # Full miss: fill from memory, displaced DMC line goes to the buffer.
        self._evict_to_victim(index)
        self._tags[index] = line_addr
        self._dirty[index] = bool(op)
        stats.fills += 1
        stats.fill_words += self._words_per_line
        if op:
            stats.write_misses += 1
        else:
            stats.read_misses += 1
        return False

    def simulate(self, records: Iterable[Tuple[int, int, int]]) -> CacheStats:
        """Replay a whole trace (records of ``(op, addr, value)``)."""
        access = self.access
        for op, byte_addr, _ in records:
            access(op, byte_addr)
        return self.stats

    # Internal helpers -------------------------------------------------
    def _swap_in(
        self, index: int, line_addr: int, dirty: bool, position: int
    ) -> None:
        """Install ``line_addr`` in DMC set ``index``; the displaced DMC
        line (if any) takes the victim-buffer slot at ``position``."""
        old_tag = self._tags[index]
        old_dirty = self._dirty[index]
        self._tags[index] = line_addr
        self._dirty[index] = dirty
        if old_tag != _INVALID:
            self._victims.insert(position, [old_tag, 1 if old_dirty else 0])
            self._trim_victims()

    def _evict_to_victim(self, index: int) -> None:
        """Move the DMC line at ``index`` (if valid) into the buffer."""
        tag = self._tags[index]
        if tag == _INVALID:
            return
        self._victims.insert(0, [tag, 1 if self._dirty[index] else 0])
        self._trim_victims()

    def _trim_victims(self) -> None:
        """Enforce the buffer capacity, writing back a dirty LRU victim."""
        if len(self._victims) <= self.victim_entries:
            return
        evicted = self._victims.pop()
        if evicted[1]:
            self.stats.writebacks += 1
            self.stats.writeback_words += self._words_per_line

    # Introspection ------------------------------------------------------
    def victim_resident(self, byte_addr: int) -> bool:
        """True when the line holding ``byte_addr`` sits in the buffer."""
        line_addr = byte_addr >> self._line_shift
        return any(entry[0] == line_addr for entry in self._victims)

    def storage_bytes(self) -> int:
        """Victim-buffer storage: data plus full line-address tags.

        Used by the equal-storage comparison of Fig. 15 (a 16-entry VC
        against a 128-entry FVC).
        """
        tag_bits = 32 - self.geometry.line_shift
        per_entry_bits = self.geometry.line_bytes * 8 + tag_bits + 2  # +valid+dirty
        return (self.victim_entries * per_entry_bits + 7) // 8
