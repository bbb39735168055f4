"""Tests for 3C miss classification."""

import pytest

from repro.cache.classify import LineLRU, classify_misses
from repro.cache.geometry import CacheGeometry
from repro.cache.setassoc import SetAssociativeCache


def _line_trace(lines, line_bytes=16):
    return [(0, line * line_bytes, 0) for line in lines]


class TestClassification:
    def test_pure_compulsory(self):
        # Touch 4 distinct lines once in a 4-line cache.
        result = classify_misses(_line_trace([0, 1, 2, 3]), CacheGeometry(64, 16))
        assert result.compulsory == 4
        assert result.capacity == 0
        assert result.conflict == 0

    def test_pure_conflict(self):
        # Two lines aliasing in the direct-mapped cache but fitting a
        # fully-associative one: all repeat misses are conflicts.
        trace = _line_trace([0, 4, 0, 4, 0, 4])
        result = classify_misses(trace, CacheGeometry(64, 16))
        assert result.compulsory == 2
        assert result.conflict == 4
        assert result.capacity == 0

    def test_pure_capacity(self):
        # Cyclic sweep over 8 lines through a 4-line cache: LRU misses
        # everything, so repeats are capacity misses.
        trace = _line_trace(list(range(8)) * 3)
        result = classify_misses(trace, CacheGeometry(64, 16))
        assert result.compulsory == 8
        assert result.capacity == 16
        assert result.conflict == 0

    def test_counts_sum_to_misses(self):
        trace = _line_trace([0, 4, 1, 0, 9, 4, 2, 0, 1] * 5)
        result = classify_misses(trace, CacheGeometry(64, 16))
        assert result.misses == result.compulsory + result.capacity + result.conflict
        assert 0 < result.miss_rate <= 1
        assert abs(sum(result.fraction(k) for k in
                       ("compulsory", "capacity", "conflict")) - 1.0) < 1e-9

    def test_set_associative_target(self):
        trace = _line_trace([0, 4, 0, 4] * 4)
        direct = classify_misses(trace, CacheGeometry(64, 16))
        two_way = classify_misses(trace, CacheGeometry(64, 16, ways=2))
        assert two_way.conflict < direct.conflict

    def test_empty_trace(self):
        result = classify_misses([], CacheGeometry(64, 16))
        assert result.misses == 0
        assert result.miss_rate == 0.0
        assert result.fraction("conflict") == 0.0


class TestLineLRU:
    @pytest.mark.parametrize("workload", ["go", "perl"])
    def test_hits_exactly_like_a_fully_associative_cache(
        self, store, workload
    ):
        # The classifier's ideal cache must agree with the one-set
        # SetAssociativeCache it stands in for, access by access.
        geometry = CacheGeometry(1024, 16, ways=1)
        lru = LineLRU(geometry.num_lines)
        reference = SetAssociativeCache.fully_associative(
            num_lines=geometry.num_lines, line_bytes=geometry.line_bytes
        )
        shift = geometry.line_shift
        records = list(store.get(workload, "test"))
        hits = [lru.access(addr >> shift) for _, addr, _ in records]
        expected = [reference.access(op, addr) for op, addr, _ in records]
        assert hits == expected
        assert 0 < sum(hits) < len(hits)
