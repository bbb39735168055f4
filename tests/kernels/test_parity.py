"""Kernel-vs-oracle parity: the exactness contract of repro.kernels.

Every kernel must reproduce its pure-Python oracle's statistics to the
last counter on any trace it accepts, and must decline (``None`` /
``False``) on anything outside its proven envelope so the caller falls
back to the oracle.
"""

from __future__ import annotations

import pytest

from repro.cache.classify import MissClassification, classify_misses
from repro.cache.direct import DirectMappedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import TwoLevelSystem
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.victim import VictimCacheSystem
from repro.experiments.common import encoder_for
from repro.fvc.encoding import FrequentValueEncoder
from repro.fvc.system import FvcSystem, FvcSystemConfig
from repro.kernels import backend
from repro.kernels.classify import dmc_classify
from repro.kernels.dmc import dmc_stats
from repro.kernels.fvc import fvc_cell_replay
from repro.kernels.hierarchy import hierarchy_replay
from repro.kernels.setassoc import setassoc_stats
from repro.kernels.victim import victim_cell_replay
from repro.profiling.access import profile_accessed_values
from repro.trace.trace import Trace

pytestmark = pytest.mark.skipif(
    not backend.numpy_available(), reason="vectorized backend needs numpy"
)


def _fvc_extras(system):
    return {
        "main_hits": system.main_hits,
        "fvc_hits": system.fvc_hits,
        "fvc_read_hits": system.fvc_read_hits,
        "fvc_write_hits": system.fvc_write_hits,
    }


def _fvc_oracle(trace, geometry, entries, encoder):
    system = FvcSystem(geometry, entries, encoder)
    system.simulate_batch(trace.records)
    return system.stats.as_dict(), _fvc_extras(system)


def _assert_fvc_parity(trace, geometry, entries, encoder):
    """The kernel accepts the cell and matches ``FvcSystem`` on every
    ``CacheStats`` field and the four FVC extras."""
    replayed = fvc_cell_replay(trace, geometry, entries, encoder)
    assert replayed is not None
    stats, extras = replayed
    oracle_stats, oracle_extras = _fvc_oracle(trace, geometry, entries, encoder)
    assert stats.as_dict() == oracle_stats
    assert extras == oracle_extras


#: FVC sizes on both sides of the main cache's set count: a quarter of
#: it, equal, twice, eight times, and the paper's largest FVC.
_FVC_SIZES = {
    "sets/4": lambda sets: sets // 4,
    "sets": lambda sets: sets,
    "2*sets": lambda sets: 2 * sets,
    "8*sets": lambda sets: 8 * sets,
    "4096": lambda sets: 4096,
}


class TestBaselineParity:
    @pytest.mark.parametrize(
        "size_kb, line_bytes", [(4, 16), (16, 32), (64, 64)]
    )
    def test_dmc(self, gcc_trace, size_kb, line_bytes):
        geometry = CacheGeometry(size_kb * 1024, line_bytes, ways=1)
        stats = dmc_stats(gcc_trace, geometry)
        assert stats is not None
        oracle = DirectMappedCache(geometry).simulate_batch(gcc_trace.records)
        assert stats.as_dict() == oracle.as_dict()

    @pytest.mark.parametrize("ways", [2, 4])
    def test_setassoc(self, gcc_trace, ways):
        geometry = CacheGeometry(16 * 1024, 32, ways=ways)
        stats = setassoc_stats(gcc_trace, geometry)
        assert stats is not None
        oracle = SetAssociativeCache(geometry).simulate_batch(
            gcc_trace.records
        )
        assert stats.as_dict() == oracle.as_dict()


class TestFvcParity:
    def test_small_geometry(self, gcc_trace):
        geometry = CacheGeometry(4 * 1024, 16, ways=1)
        encoder = encoder_for(gcc_trace, 3)
        _assert_fvc_parity(gcc_trace, geometry, 128, encoder)

    def test_pending_install_flushed_at_end_of_trace(self, store):
        # Regression: the kernel resolves installs lazily at the
        # victim's next touch, but the oracle installs eagerly — a
        # displacement of a dirty FVC entry near the end of the trace
        # must still be flushed even though the victim is never touched
        # again.  compress/test at this geometry ends with 76 such
        # displacements; before the end-of-group resolve the kernel
        # undercounted writebacks by exactly that many entries.
        trace = store.get("compress", "test")
        geometry = CacheGeometry(16 * 1024, 32, ways=1)
        encoder = encoder_for(trace, 7)
        _assert_fvc_parity(trace, geometry, 512, encoder)

    def test_pending_installs_flushed_at_end_of_trace_per_slot(self, store):
        # The same tail displacements when one set owns several FVC
        # slots (512 entries beside 256 sets): each slot keeps its own
        # pending install, and compress/test leaves 300 of them that
        # displace a dirty entry after the victims' last touches.
        trace = store.get("compress", "test")
        geometry = CacheGeometry(8 * 1024, 32, ways=1)
        assert geometry.num_sets == 256
        encoder = encoder_for(trace, 7)
        _assert_fvc_parity(trace, geometry, 512, encoder)


    @pytest.mark.parametrize("entries", [8, 32])
    def test_dirty_mask_spans_every_word_of_a_wide_line(self, entries):
        # 128 frequent stores in one hit window dirty all 64 words of a
        # 256-byte line resident in the FVC; its displacement must
        # flush exactly 64 words, so the dirty mask may not be held in
        # a fixed-width integer.
        records = [(0, 0, 0), (0, 2048, 0)]
        records += [(1, 4 * (i % 64), 0) for i in range(128)]
        records.append((0, 4096, 0))
        trace = Trace(records, workload="syn")
        geometry = CacheGeometry(2048, 256, ways=1)
        encoder = FrequentValueEncoder((0, 1, 2), 2)
        _assert_fvc_parity(trace, geometry, entries, encoder)


#: The W-way sweep's FVC sizes: below, at and above the set count (a
#: fixed 4096 entries would add no new side).
_WIDE_FVC_SIZES = ("sets/4", "sets", "2*sets", "8*sets")


class TestFvcParitySweep:
    """The FVC kernel against the oracle with the FVC smaller than,
    equal to and larger than the main cache's set count, beside
    direct-mapped and 2-, 4- and 8-way LRU main caches."""

    @pytest.mark.parametrize("entries", sorted(_FVC_SIZES))
    @pytest.mark.parametrize("top", [1, 3, 7])
    @pytest.mark.parametrize("line_bytes", [16, 32, 64])
    def test_gcc(self, gcc_trace, line_bytes, top, entries):
        geometry = CacheGeometry(4 * 1024, line_bytes, ways=1)
        encoder = encoder_for(gcc_trace, top)
        size = _FVC_SIZES[entries](geometry.num_sets)
        _assert_fvc_parity(gcc_trace, geometry, size, encoder)

    # compress/test is almost three times gcc/test and its oracle replay
    # is the slow side, so each line size takes one of the three codes.
    @pytest.mark.parametrize("entries", sorted(_FVC_SIZES))
    @pytest.mark.parametrize("line_bytes, top", [(16, 1), (32, 3), (64, 7)])
    def test_compress(self, store, line_bytes, top, entries):
        trace = store.get("compress", "test")
        geometry = CacheGeometry(16 * 1024, line_bytes, ways=1)
        encoder = encoder_for(trace, top)
        size = _FVC_SIZES[entries](geometry.num_sets)
        _assert_fvc_parity(trace, geometry, size, encoder)

    @pytest.mark.parametrize("entries", _WIDE_FVC_SIZES)
    @pytest.mark.parametrize("top", [1, 3, 7])
    @pytest.mark.parametrize("line_bytes", [16, 32, 64])
    @pytest.mark.parametrize("ways", [2, 4, 8])
    def test_gcc_set_associative(self, gcc_trace, ways, line_bytes, top, entries):
        geometry = CacheGeometry(4 * 1024, line_bytes, ways=ways)
        encoder = encoder_for(gcc_trace, top)
        size = _FVC_SIZES[entries](geometry.num_sets)
        _assert_fvc_parity(gcc_trace, geometry, size, encoder)

    @pytest.mark.parametrize("entries", _WIDE_FVC_SIZES)
    @pytest.mark.parametrize("line_bytes, top", [(16, 1), (32, 3), (64, 7)])
    @pytest.mark.parametrize("ways", [2, 4, 8])
    def test_compress_set_associative(self, store, ways, line_bytes, top, entries):
        trace = store.get("compress", "test")
        geometry = CacheGeometry(16 * 1024, line_bytes, ways=ways)
        encoder = encoder_for(trace, top)
        size = _FVC_SIZES[entries](geometry.num_sets)
        _assert_fvc_parity(trace, geometry, size, encoder)


def _assert_occupancy_parity(trace, geometry, entries, top, interval):
    size = _FVC_SIZES[entries](geometry.num_sets)
    if interval == "n+1":
        # No sample at all: the end state's instantaneous fraction.
        interval = len(trace) + 1
    encoder = encoder_for(trace, top)
    replayed = fvc_cell_replay(
        trace, geometry, size, encoder, occupancy_interval=interval
    )
    assert replayed is not None
    stats, extras = replayed
    config = FvcSystemConfig(occupancy_sample_interval=interval)
    system = FvcSystem(geometry, size, encoder, config=config)
    system.simulate_batch(trace.records)
    assert stats.as_dict() == system.stats.as_dict()
    assert (
        extras.pop("mean_fvc_frequent_fraction")
        == system.mean_fvc_frequent_fraction
    )
    assert extras == _fvc_extras(system)


class TestOccupancyParity:
    """Fig. 11's occupancy mean from the kernel's residency log against
    the oracle's running ``+=`` of sampled fractions, compared with
    ``==``: the same samples, fractions and summation order."""

    @pytest.mark.parametrize("interval", [1, 7, 512, "n+1"])
    @pytest.mark.parametrize("top", [1, 3, 7])
    @pytest.mark.parametrize("entries", ["sets/4", "2*sets"])
    def test_gcc(self, gcc_trace, entries, top, interval):
        geometry = CacheGeometry(4 * 1024, 32, ways=1)
        _assert_occupancy_parity(gcc_trace, geometry, entries, top, interval)

    @pytest.mark.parametrize("interval", [1, 7, 512, "n+1"])
    @pytest.mark.parametrize("entries", ["sets/4", "2*sets"])
    def test_gcc_two_way(self, gcc_trace, entries, interval):
        geometry = CacheGeometry(4 * 1024, 32, ways=2)
        _assert_occupancy_parity(gcc_trace, geometry, entries, 7, interval)

    def test_no_occupancy_extra_unless_asked(self, gcc_trace):
        geometry = CacheGeometry(4 * 1024, 32, ways=1)
        replayed = fvc_cell_replay(
            gcc_trace, geometry, 512, encoder_for(gcc_trace, 7)
        )
        assert "mean_fvc_frequent_fraction" not in replayed[1]


def _assert_victim_parity(trace, geometry, entries):
    """The kernel accepts the configuration and matches
    ``VictimCacheSystem`` on every ``CacheStats`` field and the
    DMC/victim-cache hit split; returns the kernel's result."""
    replayed = victim_cell_replay(trace, geometry, entries)
    assert replayed is not None
    stats, extras = replayed
    system = VictimCacheSystem(geometry, entries)
    system.simulate(trace.records)
    assert stats.as_dict() == system.stats.as_dict()
    assert extras == {"dmc_hits": system.dmc_hits, "vc_hits": system.vc_hits}
    return stats, extras


def _ops_trace(accesses, line_bytes=16):
    """``(op, line)`` pairs as a trace of whole-line accesses."""
    return Trace(
        [(op, line * line_bytes, 0) for op, line in accesses], workload="syn"
    )


class TestVictimParity:
    """The victim-cache kernel against the oracle, counter by counter."""

    @pytest.mark.parametrize("line_bytes", [16, 32, 64])
    @pytest.mark.parametrize("size_kb", [1, 4, 16])
    @pytest.mark.parametrize(
        "workload",
        ["go", "m88ksim", "gcc", "li", "perl", "vortex", "compress", "ijpeg"],
    )
    def test_workload(self, store, workload, size_kb, line_bytes):
        trace = store.get(workload, "test")
        geometry = CacheGeometry(size_kb * 1024, line_bytes, ways=1)
        for entries in (1, 4, 16):
            _assert_victim_parity(trace, geometry, entries)

    # A 64-byte cache of 16-byte lines: four sets, lines 0/4/8/12 all
    # map to set 0.

    def test_dirty_bit_travels_through_two_swaps(self):
        # Line 0 is stored once, then swapped out and back twice with
        # no further store; it is still dirty ("stored to since its last
        # memory fill") when line 8's miss trims it from the buffer.
        trace = _ops_trace([(1, 0), (0, 4), (0, 0), (0, 4), (0, 8)])
        stats, extras = _assert_victim_parity(trace, CacheGeometry(64, 16), 1)
        assert extras == {"dmc_hits": 0, "vc_hits": 2}
        assert (stats.write_misses, stats.read_misses) == (1, 2)
        assert stats.writebacks == 1

    @pytest.mark.parametrize("first_op, writebacks", [(1, 1), (0, 0)])
    def test_trim_writes_back_only_a_dirty_line(self, first_op, writebacks):
        trace = _ops_trace([(first_op, 0), (0, 4), (0, 8), (0, 12)])
        stats, extras = _assert_victim_parity(trace, CacheGeometry(64, 16), 2)
        assert extras["vc_hits"] == 0
        assert stats.writebacks == writebacks

    def test_no_flush_at_end_of_trace(self):
        # Dirty lines left in the cache and the buffer stay unwritten.
        trace = _ops_trace([(1, 0), (1, 4)])
        stats, _ = _assert_victim_parity(trace, CacheGeometry(64, 16), 4)
        assert stats.writebacks == 0

    def test_cold_set_inserts_nothing(self):
        # Set 1's first fill evicts nothing, so the one-entry buffer
        # still holds line 0 when it returns.
        trace = _ops_trace([(0, 0), (0, 4), (0, 1), (0, 0)])
        _, extras = _assert_victim_parity(trace, CacheGeometry(64, 16), 1)
        assert extras == {"dmc_hits": 0, "vc_hits": 1}

    def test_one_entry_ping_pong(self):
        # Two lines sharing a set swap on every access after the first
        # two misses.
        accesses = [(i % 3 == 0, 4 * (i % 2)) for i in range(40)]
        trace = _ops_trace([(int(op), line) for op, line in accesses])
        stats, extras = _assert_victim_parity(trace, CacheGeometry(64, 16), 1)
        assert extras == {"dmc_hits": 0, "vc_hits": 38}
        assert stats.misses == 2
        assert stats.writebacks == 0

    def test_empty_trace(self):
        stats, extras = _assert_victim_parity(
            Trace([], workload="syn"), CacheGeometry(4096, 16), 4
        )
        assert stats.accesses == 0
        assert extras == {"dmc_hits": 0, "vc_hits": 0}

    def test_declines(self, gcc_trace):
        assert victim_cell_replay(gcc_trace, CacheGeometry(4096, 32, 2), 4) is None
        assert victim_cell_replay(gcc_trace, CacheGeometry(4096, 32), 0) is None
        out_of_range = Trace([(0, 2**33, 0)], workload="syn")
        assert victim_cell_replay(out_of_range, CacheGeometry(4096, 16), 4) is None


def _assert_classify_parity(trace, geometry):
    """The kernel accepts the direct-mapped target and matches
    ``classify_misses`` on every count."""
    classes = dmc_classify(trace, geometry)
    assert classes is not None
    assert classes == classify_misses(trace.records, geometry)
    return classes


def _line_trace(lines, line_bytes=16):
    """Loads touching the given line numbers in order."""
    return Trace([(0, line * line_bytes, 0) for line in lines], workload="syn")


class TestClassifyParity:
    """The 3C kernel against the side-by-side oracle, count for count."""

    @pytest.mark.parametrize("line_bytes", [16, 32, 64])
    @pytest.mark.parametrize("size_kb", [1, 4, 16, 64])
    @pytest.mark.parametrize(
        "workload",
        ["go", "m88ksim", "gcc", "li", "perl", "vortex", "compress", "ijpeg"],
    )
    def test_workload(self, store, workload, size_kb, line_bytes):
        trace = store.get(workload, "test")
        _assert_classify_parity(
            trace, CacheGeometry(size_kb * 1024, line_bytes, ways=1)
        )

    # A 64-byte cache of 16-byte lines: four lines, one per set.  Line 0
    # returns after line 4 evicted it from set 0; the lines touched in
    # between decide whether a 4-line fully-associative LRU still holds
    # it.  A gap of at least four records takes the distinct-line count
    # (the last case sits exactly on that boundary), a shorter one the
    # gap shortcut.
    @pytest.mark.parametrize(
        "lines, expected",
        [
            ([0, 4, 1, 2, 1, 2, 1, 2, 0], (4, 0, 1)),
            ([0, 4, 1, 2, 3, 1, 2, 3, 0], (5, 1, 0)),
            ([0, 4, 1, 0], (3, 0, 1)),
            ([0, 4, 1, 2, 3, 0], (5, 1, 0)),
        ],
        ids=[
            "3-distinct-long-gap",
            "4-distinct-long-gap",
            "2-distinct-short-gap",
            "4-distinct-gap-of-4",
        ],
    )
    def test_reuse_at_the_capacity_boundary(self, lines, expected):
        geometry = CacheGeometry(64, 16, ways=1)
        assert geometry.num_lines == 4
        classes = _assert_classify_parity(_line_trace(lines), geometry)
        assert (classes.compulsory, classes.capacity, classes.conflict) == expected

    def test_empty_trace(self):
        classes = _assert_classify_parity(
            Trace([], workload="syn"), CacheGeometry(4096, 16, ways=1)
        )
        assert classes == MissClassification(0, 0, 0, 0)

    def test_single_line_trace(self):
        records = [(i % 2, 4 * (i % 4), i) for i in range(64)]
        classes = _assert_classify_parity(
            Trace(records, workload="syn"), CacheGeometry(4096, 16, ways=1)
        )
        assert classes == MissClassification(64, 1, 0, 0)


class TestHierarchyParity:
    def test_fresh_system_fast_forward(self, gcc_trace):
        l1 = CacheGeometry(8 * 1024, 32, ways=1)
        l2 = CacheGeometry(64 * 1024, 32, ways=4)
        fast = TwoLevelSystem(l1, l2)
        assert hierarchy_replay(fast, gcc_trace)
        oracle = TwoLevelSystem(l1, l2)
        oracle.simulate(gcc_trace.records)
        assert fast.stats.as_dict() == oracle.stats.as_dict()
        assert fast.l2_stats.as_dict() == oracle.l2_stats.as_dict()

    def test_declines_warm_system(self, gcc_trace):
        system = TwoLevelSystem(
            CacheGeometry(8 * 1024, 32, ways=1),
            CacheGeometry(64 * 1024, 32, ways=4),
        )
        system.simulate(gcc_trace.records[:64])
        assert hierarchy_replay(system, gcc_trace) is False

    def test_declines_setassoc_l1(self, gcc_trace):
        system = TwoLevelSystem(
            CacheGeometry(8 * 1024, 32, ways=2),
            CacheGeometry(64 * 1024, 32, ways=4),
        )
        assert hierarchy_replay(system, gcc_trace) is False


class TestDeclines:
    def test_value_inconsistent_trace(self):
        # A load observing a value other than the word's last store is
        # outside the FVC kernel's envelope (its FVC-hit reasoning
        # depends on value consistency).
        trace = Trace([(1, 0, 5), (0, 0, 7)], workload="syn")
        geometry = CacheGeometry(4096, 16, ways=1)
        encoder = FrequentValueEncoder((0, 1, 2), 2)
        assert fvc_cell_replay(trace, geometry, 64, encoder) is None

    def test_out_of_range_value(self):
        trace = Trace([(0, 0, 2**33)], workload="syn")
        geometry = CacheGeometry(4096, 16, ways=1)
        encoder = FrequentValueEncoder((0, 1, 2), 2)
        assert fvc_cell_replay(trace, geometry, 64, encoder) is None

    def test_non_power_of_two_fvc(self, gcc_trace):
        geometry = CacheGeometry(4096, 16, ways=1)
        encoder = encoder_for(gcc_trace, 3)
        assert fvc_cell_replay(gcc_trace, geometry, 96, encoder) is None
        assert fvc_cell_replay(gcc_trace, geometry, 768, encoder) is None

    def test_set_associative_main_cache_with_fvc(self, gcc_trace):
        # Fig. 14's 2-way main cache beside a 512-entry FVC is inside
        # the envelope.
        geometry = CacheGeometry(8 * 1024, 32, ways=2)
        encoder = encoder_for(gcc_trace, 7)
        _assert_fvc_parity(gcc_trace, geometry, 512, encoder)

    @pytest.mark.parametrize("ways", [16, 256])
    def test_main_cache_wider_than_eight_ways_with_fvc(self, gcc_trace, ways):
        # 256 ways: a fully associative 8 KB cache of 32-byte lines.
        geometry = CacheGeometry(8 * 1024, 32, ways=ways)
        encoder = encoder_for(gcc_trace, 7)
        assert fvc_cell_replay(gcc_trace, geometry, 512, encoder) is None

    def test_fvc_larger_than_set_count_is_accepted(self, gcc_trace):
        # One main-cache set owning several FVC slots: Fig. 12's
        # 512-entry FVC beside a 4 KB cache of 16-byte lines.
        geometry = CacheGeometry(4 * 1024, 16, ways=1)
        assert geometry.num_sets == 256
        encoder = encoder_for(gcc_trace, 7)
        _assert_fvc_parity(gcc_trace, geometry, 512, encoder)

    def test_set_associative_classify_target(self, gcc_trace):
        geometry = CacheGeometry(16 * 1024, 32, ways=2)
        assert dmc_classify(gcc_trace, geometry) is None

    def test_out_of_range_classify_record(self):
        trace = Trace([(0, 0, 0), (0, 2**33, 0)], workload="syn")
        assert dmc_classify(trace, CacheGeometry(4096, 16, ways=1)) is None

    def test_decompositions_are_compact(self, store, monkeypatch):
        # Guards the memory footprint: per-record index arrays are
        # int32, no per-record plain-list copy is memoised, and one FVC
        # cell with its access profile memoises at most 61 bytes per
        # record beside the trace's own columns.
        import numpy as np

        from repro.analysis import sanitize
        from repro.kernels import columnar
        from repro.trace.io import trace_from_bytes, trace_to_bytes

        # A decoded trace keeps its packed columns, as a trace-cache
        # load does, and holds no decomposition yet.
        monkeypatch.setenv(backend.ENV_VAR, "numpy")
        monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
        trace = trace_from_bytes(trace_to_bytes(store.get("gcc", "test")))
        assert trace.raw_columns is not None
        geometry = CacheGeometry(4 * 1024, 32, ways=1)
        encoder = encoder_for(trace, 7)
        assert fvc_cell_replay(trace, geometry, 512, encoder) is not None
        shift = geometry.line_shift
        wl = columnar.word_layer(trace)
        li = columnar.line_index(trace, shift)
        fl = columnar.freq_layer(trace, shift, encoder.values)
        so = columnar.set_order(trace, shift, geometry.num_sets)
        vr = columnar.value_ranking(trace)
        arrays = {
            "worder": wl.worder,
            "wid": wl.wid,
            "lines": li.lines,
            "lslot": li.lslot,
            "lorder": li.lorder,
            "rank": li.rank,
            "ns": li.ns,
            "nir": fl.nir,
            "fs_pos": fl.fs_pos,
            "fs_word": fl.fs_word,
            "sorder": so.sorder,
            "run_start": so.run_start,
            "run_line": so.run_line,
            "run_set": so.run_set,
            "run_id": so.run_id,
            "brk2": so.brk2,
            "codes": vr.codes,
        }
        for name, array in arrays.items():
            assert array.dtype.name == "int32", name
        assert fl.pref.dtype.name == "int64"
        assert wl.prevval.dtype.name == "uint32"
        n = len(trace)
        per_record = 0
        for key, value in trace._aggregates.items():
            if not key.startswith("kernel:"):
                continue
            if isinstance(value, list):
                assert len(value) < n, key
                continue
            if key == "kernel:columns":
                continue
            for name in type(value).__slots__:
                array = getattr(value, name)
                if isinstance(array, np.ndarray) and len(array) >= n:
                    per_record += array.nbytes
        assert per_record <= 61 * n


class TestProfileParity:
    def test_ranked_value_counts_match_oracle(self, gcc_trace):
        from repro.kernels.columnar import ranked_value_counts

        total, distinct, ranked = ranked_value_counts(gcc_trace, depth=32)
        oracle = profile_accessed_values(gcc_trace)
        assert total == oracle.total_accesses
        assert distinct == oracle.distinct_values
        assert tuple(ranked) == oracle.ranked
