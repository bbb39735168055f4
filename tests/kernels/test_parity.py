"""Kernel-vs-oracle parity: the exactness contract of repro.kernels.

Every kernel must reproduce its pure-Python oracle's statistics to the
last counter on any trace it accepts, and must decline (``None`` /
``False``) on anything outside its proven envelope so the caller falls
back to the oracle.
"""

from __future__ import annotations

import pytest

from repro.cache.direct import DirectMappedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import TwoLevelSystem
from repro.cache.setassoc import SetAssociativeCache
from repro.experiments.common import encoder_for
from repro.fvc.encoding import FrequentValueEncoder
from repro.fvc.system import FvcSystem
from repro.kernels import backend
from repro.kernels.dmc import dmc_stats
from repro.kernels.fvc import fvc_cell_replay
from repro.kernels.hierarchy import hierarchy_replay
from repro.kernels.setassoc import setassoc_stats
from repro.profiling.access import profile_accessed_values
from repro.trace.trace import Trace

pytestmark = pytest.mark.skipif(
    not backend.numpy_available(), reason="vectorized backend needs numpy"
)


def _fvc_oracle(trace, geometry, entries, encoder):
    system = FvcSystem(geometry, entries, encoder)
    system.simulate_batch(trace.records)
    extras = {
        "main_hits": system.main_hits,
        "fvc_hits": system.fvc_hits,
        "fvc_read_hits": system.fvc_read_hits,
        "fvc_write_hits": system.fvc_write_hits,
    }
    return system.stats.as_dict(), extras


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


class TestFvcParitySweep:
    """The FVC kernel against the oracle with the FVC smaller than,
    equal to and larger than the main cache's set count."""

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
        geometry = CacheGeometry(8 * 1024, 32, ways=2)
        encoder = encoder_for(gcc_trace, 7)
        assert fvc_cell_replay(gcc_trace, geometry, 512, encoder) is None

    def test_fvc_larger_than_set_count_is_accepted(self, gcc_trace):
        # One main-cache set owning several FVC slots: Fig. 12's
        # 512-entry FVC beside a 4 KB cache of 16-byte lines.
        geometry = CacheGeometry(4 * 1024, 16, ways=1)
        assert geometry.num_sets == 256
        encoder = encoder_for(gcc_trace, 7)
        _assert_fvc_parity(gcc_trace, geometry, 512, encoder)

    def test_decompositions_are_compact(self, store):
        # Guards the memory footprint: per-record index arrays are
        # int32 and no per-record plain-list copy is memoised.
        from repro.kernels import columnar

        trace = store.get("gcc", "test")
        geometry = CacheGeometry(4 * 1024, 32, ways=1)
        encoder = encoder_for(trace, 7)
        assert fvc_cell_replay(trace, geometry, 512, encoder) is not None
        shift = geometry.line_shift
        li = columnar.line_index(trace, shift)
        fl = columnar.freq_layer(trace, shift, encoder.values)
        so = columnar.set_order(trace, shift, geometry.num_sets)
        arrays = {
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
        }
        for name, array in arrays.items():
            assert array.dtype.name == "int32", name
        assert fl.pref.dtype.name == "int64"
        n = len(trace.records)
        for key, value in trace._aggregates.items():
            if key.startswith("kernel:") and isinstance(value, list):
                assert len(value) < n, key


class TestProfileParity:
    def test_ranked_value_counts_match_oracle(self, gcc_trace):
        from repro.kernels.columnar import ranked_value_counts

        total, distinct, ranked = ranked_value_counts(gcc_trace, depth=32)
        oracle = profile_accessed_values(gcc_trace)
        assert total == oracle.total_accesses
        assert distinct == oracle.distinct_values
        assert tuple(ranked) == oracle.ranked
