"""The combined conventional-cache + FVC system (paper §3, Figs. 6 and 8).

Protocol summary, as implemented here:

* Both structures are probed in parallel; an access hits overall iff it
  hits in exactly one of them (contents are exclusive by construction).
* **Main-cache hit** — behaves exactly as without the FVC.
* **FVC read hit** — tag match and the word's code names a frequent
  value; the value is decoded and returned.
* **FVC write hit** — tag match and the written value is frequent; the
  word's code is replaced and the word marked dirty.
* **Tag match, infrequent word** — a miss: the line is fetched from
  memory, the FVC's (possibly newer) frequent words are merged over it,
  the FVC entry dies, and the merged line enters the main cache.
* **Miss in both, write of a frequent value** — the paper's special
  case: the line is allocated *in the FVC* with only the written word's
  code valid, avoiding the memory fetch entirely.  It still counts as a
  miss (the paper's "eliminates or delays" future misses).  Default-off
  in this reproduction; see :class:`FvcSystemConfig`.
* **Miss in both, otherwise** — a conventional fill.  The displaced
  main-cache line is written back if dirty, and the identities of its
  frequent-valued words enter the FVC.

Accounting matches the paper (DESIGN.md "fidelity notes"): miss rate
counts overall misses; traffic counts words exchanged with memory —
whole lines for fills and write-backs, and only the dirty words for FVC
entry flushes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.cache.geometry import CacheGeometry
from repro.cache.mainmem import MainMemory
from repro.cache.stats import CacheStats
from repro.fvc.cache import FrequentValueCacheArray, SetAssociativeFvcArray
from repro.fvc.encoding import FrequentValueEncoder


@dataclass(frozen=True)
class FvcSystemConfig:
    """Behavioural switches (defaults reproduce the paper's design).

    Attributes
    ----------
    write_allocate_frequent:
        Allocate a write of a frequent value directly into the FVC on a
        double miss (§3's "second situation").  The paper reports this
        exception as performance-neutral-or-positive on SPEC95; on the
        analog suite's allocation-heavy write streams it *adds* misses
        (a fresh line whose first written word is frequent but whose
        later words are not costs two misses instead of one), so the
        default here is off and the paper's exact rule is quantified by
        the dedicated ablation benchmark (see DESIGN.md §5).
    insert_empty_lines:
        Insert a line into the FVC on eviction even when none of its
        words is frequent.  The paper leaves this implicit; inserting
        all-infrequent entries only pollutes the FVC, so the default is
        off (see DESIGN.md §5).
    exclusive:
        Keep contents exclusive (paper design).  The inclusive ablation
        leaves the FVC entry valid, but clean, when its line is promoted
        to the main cache, spending FVC capacity for no extra hits.
    verify_values:
        Cross-check every value the system returns for a load against
        the traced value — an end-to-end consistency oracle used by the
        test suite (slower; off in experiments).
    occupancy_sample_interval:
        Accesses between Fig. 11 occupancy samples (0 disables).
    """

    write_allocate_frequent: bool = False
    insert_empty_lines: bool = False
    exclusive: bool = True
    verify_values: bool = False
    occupancy_sample_interval: int = 1024


class FvcSystem:
    """A write-back main cache (direct-mapped or set-associative, LRU)
    augmented with a direct-mapped frequent value cache.

    Parameters
    ----------
    geometry:
        Main-cache geometry; ``geometry.ways`` may exceed 1 (Fig. 14).
    fvc_entries:
        Number of FVC entries (64–4096 in the paper's sweep).
    encoder:
        The frequent-value code to exploit (1/2/3 bits for top 1/3/7).
    config:
        Optional :class:`FvcSystemConfig`.
    fvc_ways:
        FVC associativity (1 = the paper's direct-mapped organisation;
        >1 selects the set-associative extension array).
    """

    def __init__(
        self,
        geometry: CacheGeometry,
        fvc_entries: int,
        encoder: FrequentValueEncoder,
        config: Optional[FvcSystemConfig] = None,
        fvc_ways: int = 1,
    ) -> None:
        self.geometry = geometry
        self.encoder = encoder
        self.config = config or FvcSystemConfig()
        self.memory = MainMemory()
        if fvc_ways == 1:
            self.fvc = FrequentValueCacheArray(
                entries=fvc_entries,
                words_per_line=geometry.words_per_line,
                encoder=encoder,
            )
        else:
            # Extension beyond the paper: an associative FVC array.
            self.fvc = SetAssociativeFvcArray(
                entries=fvc_entries,
                words_per_line=geometry.words_per_line,
                encoder=encoder,
                ways=fvc_ways,
            )
        self.stats = CacheStats()
        # Hit breakdown.
        self.main_hits = 0
        self.fvc_read_hits = 0
        self.fvc_write_hits = 0
        self.fvc_write_allocates = 0
        self.fvc_infrequent_misses = 0
        # Main cache: per-set MRU-first lists of [line_addr, dirty, data].
        self._sets: List[List[list]] = [[] for _ in range(geometry.num_sets)]
        #: When a list, receives the line address of every memory
        #: write-back (dirty main-cache victims and FVC entry flushes) —
        #: the hierarchy composition reads it to direct L2 writes.
        self.victim_log: Optional[List[int]] = None
        # Fig. 11 occupancy accumulator.
        self._occupancy_sum = 0.0
        self._occupancy_samples = 0
        self._access_counter = 0

    # ------------------------------------------------------------------
    # The access protocol
    # ------------------------------------------------------------------
    def access(self, op: int, byte_addr: int, value: int) -> bool:
        """Simulate one access; returns True on an overall hit.

        ``value`` is the traced value: the value returned for a load and
        the value written for a store (trace-driven simulation has both).
        """
        geom = self.geometry
        line_addr = byte_addr >> geom.line_shift
        word_index = (byte_addr >> 2) & geom.word_mask
        stats = self.stats
        config = self.config

        self._access_counter += 1
        interval = config.occupancy_sample_interval
        if interval and self._access_counter % interval == 0:
            self._occupancy_sum += self.fvc.frequent_fraction
            self._occupancy_samples += 1

        # --- Main-cache probe -----------------------------------------
        entries = self._sets[line_addr & geom.set_mask]
        for position, entry in enumerate(entries):
            if entry[0] == line_addr:
                if position:
                    del entries[position]
                    entries.insert(0, entry)
                if op:
                    entry[2][word_index] = value
                    entry[1] = 1
                    stats.write_hits += 1
                else:
                    if config.verify_values and entry[2][word_index] != value:
                        raise AssertionError(
                            f"main-cache value mismatch at {byte_addr:#x}: "
                            f"cached {entry[2][word_index]:#x}, traced {value:#x}"
                        )
                    stats.read_hits += 1
                self.main_hits += 1
                return True

        return self._miss(op, line_addr, word_index, value)

    def _miss(
        self, op: int, line_addr: int, word_index: int, value: int
    ) -> bool:
        """Main-cache miss: FVC probe, then the §3 miss protocol.

        Shared by :meth:`access` and :meth:`simulate_batch` so both
        replay paths are bit-identical.  Returns True on an FVC hit.
        """
        geom = self.geometry
        stats = self.stats
        config = self.config

        # --- FVC probe --------------------------------------------------
        fvc = self.fvc
        codes = fvc.codes_for(line_addr)
        if codes is not None:
            infrequent = self.encoder.infrequent_code
            if op == 0:
                code = codes[word_index]
                if code != infrequent:
                    if config.verify_values:
                        decoded = self.encoder.decode(code)
                        if decoded != value:
                            addr = (line_addr << geom.line_shift) + word_index * 4
                            raise AssertionError(
                                f"FVC value mismatch at {addr:#x}: "
                                f"decoded {decoded:#x}, traced {value:#x}"
                            )
                    stats.read_hits += 1
                    self.fvc_read_hits += 1
                    return True
            else:
                write_code = self.encoder.encode(value)
                if write_code != infrequent:
                    fvc.write_word(line_addr, word_index, value)
                    stats.write_hits += 1
                    self.fvc_write_hits += 1
                    return True
            # Tag match but the word involved is infrequent: fetch the
            # line, merge the FVC's frequent words over it, promote to
            # the main cache, and retire the FVC entry.  If any merged
            # word was written while FVC-resident, memory is stale for
            # it, so the promoted line must carry the dirty bit.  The
            # inclusive ablation keeps the entry, but clean: the
            # promoted line owns its dirty words now, and a dirty copy
            # would later flush them over the line's fresher write-back.
            self.fvc_infrequent_misses += 1
            line = self.memory.read_line(line_addr, geom.words_per_line)
            self.encoder.merge_line(line, codes)
            entry = fvc.invalidate(line_addr)
            promoted_dirty = any(entry[2])
            if not config.exclusive:
                fvc.install(line_addr, codes)
            self._fill_main(line_addr, line, dirty=promoted_dirty)
            self._finish_miss(op, line_addr, word_index, value)
            return False

        # --- Miss in both ----------------------------------------------
        if (
            op
            and config.write_allocate_frequent
            and self.encoder.is_frequent(value)
        ):
            # Allocate the write into the FVC without touching memory.
            new_codes = [self.encoder.infrequent_code] * geom.words_per_line
            new_codes[word_index] = self.encoder.encode(value)
            dirty = [False] * geom.words_per_line
            dirty[word_index] = True
            displaced = fvc.install(line_addr, new_codes, dirty)
            if displaced is not None:
                self._flush_fvc_entry(displaced)
            self.fvc_write_allocates += 1
            stats.write_misses += 1
            return False

        line = self.memory.read_line(line_addr, geom.words_per_line)
        self._fill_main(line_addr, line)
        self._finish_miss(op, line_addr, word_index, value)
        return False

    def simulate(self, records: Iterable[Tuple[int, int, int]]) -> CacheStats:
        """Replay a whole trace of ``(op, addr, value)`` records
        through the per-access API."""
        access = self.access
        for op, byte_addr, value in records:
            access(op, byte_addr, value)
        return self.stats

    def simulate_batch(
        self, records: Iterable[Tuple[int, int, int]]
    ) -> CacheStats:
        """Replay a whole trace through the hot-loop fast path.

        Bit-identical to :meth:`simulate`: the dominant case — a main-
        cache hit — is handled inline with geometry, set storage, the
        occupancy-sampling counter and the hit counters all in locals;
        everything else funnels into the same :meth:`_miss` the
        per-access API uses.
        """
        geom = self.geometry
        line_shift = geom.line_shift
        set_mask = geom.set_mask
        word_mask = geom.word_mask
        sets = self._sets
        config = self.config
        interval = config.occupancy_sample_interval
        verify = config.verify_values
        fvc = self.fvc
        miss = self._miss
        counter = self._access_counter
        read_hits = write_hits = main_hits = 0
        for op, byte_addr, value in records:
            counter += 1
            if interval and counter % interval == 0:
                self._occupancy_sum += fvc.frequent_fraction
                self._occupancy_samples += 1
            line_addr = byte_addr >> line_shift
            entries = sets[line_addr & set_mask]
            for position, entry in enumerate(entries):
                if entry[0] == line_addr:
                    if position:
                        del entries[position]
                        entries.insert(0, entry)
                    word_index = (byte_addr >> 2) & word_mask
                    if op:
                        entry[2][word_index] = value
                        entry[1] = 1
                        write_hits += 1
                    else:
                        if verify and entry[2][word_index] != value:
                            raise AssertionError(
                                f"main-cache value mismatch at {byte_addr:#x}: "
                                f"cached {entry[2][word_index]:#x}, "
                                f"traced {value:#x}"
                            )
                        read_hits += 1
                    main_hits += 1
                    break
            else:
                miss(op, line_addr, (byte_addr >> 2) & word_mask, value)
        self._access_counter = counter
        self.main_hits += main_hits
        stats = self.stats
        stats.read_hits += read_hits
        stats.write_hits += write_hits
        return stats

    # ------------------------------------------------------------------
    # Fill / eviction plumbing
    # ------------------------------------------------------------------
    def _finish_miss(
        self, op: int, line_addr: int, word_index: int, value: int
    ) -> None:
        """Apply the missing access to the just-filled MRU line."""
        entry = self._sets[line_addr & self.geometry.set_mask][0]
        if op:
            entry[2][word_index] = value
            entry[1] = 1
            self.stats.write_misses += 1
        else:
            if self.config.verify_values and entry[2][word_index] != value:
                raise AssertionError(
                    f"fill value mismatch at line {line_addr:#x} word "
                    f"{word_index}: filled {entry[2][word_index]:#x}, "
                    f"traced {value:#x}"
                )
            self.stats.read_misses += 1

    def _fill_main(
        self, line_addr: int, data: List[int], dirty: bool = False
    ) -> None:
        """Install ``data`` as the MRU line, displacing the LRU line of a
        full set into memory (if dirty) and the FVC (frequent words).

        ``dirty`` pre-marks the installed line — used when it carries
        merged FVC words that memory does not have yet."""
        geom = self.geometry
        stats = self.stats
        entries = self._sets[line_addr & geom.set_mask]
        if len(entries) >= geom.ways:
            victim = entries.pop()
            victim_addr, victim_dirty, victim_data = victim
            if victim_dirty:
                self.memory.write_line(victim_addr, victim_data)
                stats.writebacks += 1
                stats.writeback_words += geom.words_per_line
                if self.victim_log is not None:
                    self.victim_log.append(victim_addr)
            self._insert_into_fvc(victim_addr, victim_data)
        entries.insert(0, [line_addr, 1 if dirty else 0, data])
        stats.fills += 1
        stats.fill_words += geom.words_per_line

    def _insert_into_fvc(self, line_addr: int, data: List[int]) -> None:
        """Record the frequent-word identities of an evicted line."""
        codes = self.encoder.encode_line(data)
        if not self.config.insert_empty_lines:
            if self.encoder.count_frequent(codes) == 0:
                if not self.config.exclusive:
                    # The inclusive ablation's copy of the line, if one
                    # is resident, predates what the main cache held.
                    self.fvc.invalidate(line_addr)
                return
        displaced = self.fvc.install(line_addr, codes)
        if displaced is not None:
            self._flush_fvc_entry(displaced)

    def _flush_fvc_entry(
        self, entry: Tuple[int, List[int], List[bool]]
    ) -> None:
        """Write an evicted FVC entry's dirty words back to memory.

        Only words written while resident differ from memory, so the
        flush is word-granular — one of the traffic savings of the
        value-centric design.
        """
        line_addr, codes, dirty = entry
        base = line_addr << self.geometry.line_shift
        flushed = 0
        decode = self.encoder.decode
        for word_index, is_dirty in enumerate(dirty):
            if is_dirty:
                self.memory.write_word(
                    base + word_index * 4, decode(codes[word_index])
                )
                flushed += 1
        if flushed:
            self.stats.writebacks += 1
            self.stats.writeback_words += flushed
            if self.victim_log is not None:
                self.victim_log.append(line_addr)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def fvc_hits(self) -> int:
        """Hits provided by the FVC (read + write)."""
        return self.fvc_read_hits + self.fvc_write_hits

    @property
    def mean_fvc_frequent_fraction(self) -> float:
        """Time-averaged fraction of frequent words in valid FVC lines
        (the Fig. 11 measurement)."""
        if not self._occupancy_samples:
            return self.fvc.frequent_fraction
        return self._occupancy_sum / self._occupancy_samples

    def main_resident_lines(self) -> List[int]:
        """Line addresses resident in the main cache."""
        return [
            entry[0] for entries in self._sets for entry in entries
        ]

    def check_exclusive(self) -> bool:
        """True when no line is resident in both structures."""
        main = set(self.main_resident_lines())
        return not main.intersection(self.fvc.resident_line_addresses())
