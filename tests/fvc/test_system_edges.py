"""Edge-case tests of the DMC+FVC system beyond the main protocol
suite: accounting exactness, configuration corners, LRU interaction."""

from repro.cache.geometry import CacheGeometry
from repro.fvc.encoding import FrequentValueEncoder
from repro.fvc.system import FvcSystem, FvcSystemConfig

GEOMETRY = CacheGeometry(64, 16)  # 4 sets x 4 words


def _system(**kwargs) -> FvcSystem:
    encoder = FrequentValueEncoder([0, 1, 0xFFFFFFFF], 2)
    return FvcSystem(GEOMETRY, 8, encoder, **kwargs)


class TestTrafficExactness:
    def test_fvc_flush_counts_only_dirty_words(self):
        system = _system()
        system.memory.write_line(0x100 >> 4, [0, 1, 42, 0])
        system.access(0, 0x100, 0)
        system.access(0, 0x140, 0)  # evict -> FVC (clean codes)
        system.access(1, 0x104, 0xFFFFFFFF)  # one dirty word
        writeback_words_before = system.stats.writeback_words
        # Displace the entry: install another line at the same index.
        line_b = (0x100 >> 4) + 8
        system.memory.write_line(line_b, [0, 0, 0, 0])
        system.access(0, line_b << 4, 0)
        conflicting = (line_b << 4) ^ 0x40
        system.memory.write_line(conflicting >> 4, [0, 0, 0, 0])
        system.access(0, conflicting, 0)  # evicts line_b into the FVC
        flushed = system.stats.writeback_words - writeback_words_before
        assert flushed == 1  # exactly the one dirty word

    def test_fvc_read_hits_cost_no_traffic(self):
        system = _system()
        system.memory.write_line(0x100 >> 4, [0, 0, 0, 0])
        system.access(0, 0x100, 0)
        system.access(0, 0x140, 0)
        traffic_before = system.stats.traffic_words
        for word in range(4):
            assert system.access(0, 0x100 + word * 4, 0) is True
        assert system.stats.traffic_words == traffic_before

    def test_clean_eviction_costs_no_writeback(self):
        system = _system()
        system.access(0, 0x100, 0)  # clean fill
        system.access(0, 0x140, 0)  # clean eviction
        assert system.stats.writebacks == 0


class TestConfigurationCorners:
    def test_occupancy_sampling_disabled(self):
        system = _system(config=FvcSystemConfig(occupancy_sample_interval=0))
        for index in range(100):
            system.access(0, 0x100 + (index % 16) * 4, 0)
        # Falls back to the instantaneous fraction.
        assert 0.0 <= system.mean_fvc_frequent_fraction <= 1.0

    def test_inclusive_mode_leaves_entry_resident(self):
        system = FvcSystem(
            GEOMETRY,
            8,
            FrequentValueEncoder([0, 1, 0xFFFFFFFF], 2),
            config=FvcSystemConfig(exclusive=False),
        )
        system.memory.write_line(0x100 >> 4, [0, 42, 0, 0])
        system.access(0, 0x100, 0)
        system.access(0, 0x140, 0)  # evict into FVC
        system.access(0, 0x104, 42)  # infrequent: promote, keep FVC entry
        assert system.fvc.probe(0x100 >> 4)  # inclusive: still resident
        assert not system.check_exclusive()

    def test_inclusive_copy_never_flushes_over_a_fresher_writeback(self):
        system = _system(
            config=FvcSystemConfig(exclusive=False, verify_values=True)
        )
        system.memory.write_line(0x100 >> 4, [0, 42, 0, 0])
        system.access(0, 0x100, 0)
        system.access(0, 0x140, 0)  # evict into the FVC
        system.access(1, 0x108, 1)  # FVC write hit: word 2 dirty there
        system.access(0, 0x104, 42)  # promote; the copy stays resident
        system.access(1, 0x108, 0xFFFFFFFF)  # main hit: newer word 2
        # Same main set, other FVC slot: evicts the dirty line, whose
        # write-back the re-inserted copy must not overwrite.
        system.access(0, 0x1C0, 0)
        assert system.memory.read_line(0x100 >> 4, 4)[2] == 0xFFFFFFFF
        system.access(0, 0x200, 0)
        system.access(0, 0x180, 0)  # evicting 0x200 displaces the copy
        assert system.access(0, 0x108, 0xFFFFFFFF) is False  # from memory

    def test_inclusive_copy_dies_with_its_infrequent_line(self):
        system = _system(
            config=FvcSystemConfig(exclusive=False, verify_values=True)
        )
        system.memory.write_line(0x100 >> 4, [0, 42, 0, 0])
        system.access(0, 0x100, 0)
        system.access(0, 0x140, 0)  # evict into the FVC
        system.access(0, 0x104, 42)  # promote; the copy stays resident
        for word in range(4):
            system.access(1, 0x100 + word * 4, 7)  # no frequent word left
        system.access(0, 0x1C0, 0)  # evicted, not re-inserted
        assert not system.fvc.probe(0x100 >> 4)
        assert system.access(0, 0x100, 7) is False  # memory, not the copy

    def test_single_value_encoder(self):
        system = FvcSystem(GEOMETRY, 8, FrequentValueEncoder([0], 1))
        system.access(0, 0x100, 0)
        system.access(0, 0x140, 0)
        assert system.access(0, 0x100, 0) is True  # zero-word FVC hit


class TestSetAssociativeMain:
    def test_fvc_hit_does_not_touch_main_lru(self):
        """Serving from the FVC must not refresh main-cache recency —
        the line is not resident there."""
        geometry = CacheGeometry(128, 16, ways=2)  # 4 sets, 2 ways
        encoder = FrequentValueEncoder([0], 1)
        system = FvcSystem(geometry, 8, encoder)
        # Fill a set with A and B; evict A by touching C (A is LRU).
        system.access(0, 0x000, 0)  # A
        system.access(0, 0x040, 0)  # B (same set at 4 sets? 0x40>>4=4, set 0)
        system.access(0, 0x080, 0)  # C evicts A -> FVC
        # FVC hit on A; then D should evict B (LRU), not C.
        assert system.access(0, 0x000, 0) is True
        system.access(0, 0x0C0, 0)  # D
        assert system.access(0, 0x080, 0) is True  # C still resident

    def test_four_way_protocol_consistency(self):
        geometry = CacheGeometry(256, 16, ways=4)
        encoder = FrequentValueEncoder([0, 1, 0xFFFFFFFF], 2)
        system = FvcSystem(
            geometry, 8, encoder,
            config=FvcSystemConfig(verify_values=True),
        )
        state = {}
        for index in range(400):
            address = 0x1000 + (index * 7 % 64) * 4
            if index % 3 == 0:
                value = (0, 1, 0xDEAD)[index % 3]
                state[address] = value
                system.access(1, address, value)
            else:
                system.access(0, address, state.get(address, 0))
        assert system.check_exclusive()
