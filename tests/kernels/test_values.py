"""Column studies vs their pure-Python oracles (:mod:`repro.kernels.values`).

Each §2 study reads the value/address columns when the kernels are
active and walks the record tuples otherwise; both paths must agree on
every workload trace and on random traces built to stress the edges
(heavy count ties, lengths not divisible by the checkpoint count,
fewer records than checkpoints, repeated addresses).  The occurrence
snapshots are checked three ways: the program run that made the trace,
the replay oracle and the column path.
"""

from __future__ import annotations

import random
from itertools import islice

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from repro.analysis import sanitize
from repro.cache.geometry import CacheGeometry
from repro.experiments.common import INT_NAMES, access_profile
from repro.experiments.fig04_miss_attribution import attribute_misses
from repro.kernels import backend, values
from repro.profiling import access, constancy, stability, timeline
from repro.profiling.occurrence import (
    OccurrenceCollector,
    occurrence_profile,
    replay,
)
from repro.trace.synth import uniform_trace
from repro.trace.trace import Trace
from repro.workloads.registry import get_workload, workload_names

pytestmark = pytest.mark.skipif(
    not backend.numpy_available(), reason="vectorized backend needs numpy"
)


def _use(monkeypatch, backend_name: str) -> None:
    monkeypatch.setenv(backend.ENV_VAR, backend_name)
    monkeypatch.delenv(sanitize.ENV_VAR, raising=False)


def _both(monkeypatch, study, *args):
    """``study(*args)`` through the kernels, then through the oracle."""
    _use(monkeypatch, "numpy")
    columns = study(*args)
    _use(monkeypatch, "python")
    return columns, study(*args)


def _random_trace(seed: int, n: int, distinct_values: int, addresses: int) -> Trace:
    rng = random.Random(seed)
    return Trace(
        [
            (
                rng.randrange(2),
                4 * rng.randrange(addresses),
                rng.randrange(distinct_values),
            )
            for _ in range(n)
        ]
    )


def _round_robin_trace(n: int, distinct_values: int) -> Trace:
    """Every value equally often, in turn: each checkpoint is a tie."""
    return Trace([(0, 4 * i, i % distinct_values) for i in range(n)])


#: Random traces: (seed, records, distinct values, distinct addresses).
_RANDOM = (
    (1, 1051, 4, 64),
    (2, 37, 3, 8),
    (3, 5000, 12, 900),
    (4, 2999, 40, 5),
    (5, 1, 1, 1),
)


class TestRanking:
    @pytest.mark.slow
    @pytest.mark.parametrize("name", workload_names())
    def test_workload_traces(self, name, store, monkeypatch):
        trace = store.get(name, "test")
        columns, oracle = _both(monkeypatch, access.profile_accessed_values, trace)
        assert columns == oracle

    def test_ties_rank_by_value(self, monkeypatch):
        # 600 values, each accessed three times, in shuffled order.
        shuffled = [value for value in range(600) for _ in range(3)]
        random.Random(7).shuffle(shuffled)
        trace = Trace([(0, 4 * i, value) for i, value in enumerate(shuffled)])
        columns, oracle = _both(
            monkeypatch, access.profile_accessed_values, trace, 600
        )
        assert columns == oracle
        assert columns.top_values(600) == list(range(600))


class TestStability:
    @pytest.mark.slow
    @pytest.mark.parametrize("name", workload_names())
    def test_snapshots_match_the_oracle(self, name, store):
        trace = store.get(name, "test")
        for checkpoints in (1, 3, 100, 200):
            step = max(1, len(trace) // checkpoints)
            assert values.stability_snapshots(trace, step, 10) == (
                stability._snapshots(trace.records, step, 10)
            ), checkpoints

    @pytest.mark.parametrize("case", _RANDOM)
    @pytest.mark.parametrize("checkpoints", (1, 3, 100, 200))
    def test_random_traces(self, case, checkpoints, monkeypatch):
        trace = _random_trace(*case)
        columns, oracle = _both(
            monkeypatch, stability.profile_stability, trace, (1, 3, 7), checkpoints
        )
        assert columns == oracle

    @pytest.mark.parametrize("n, checkpoints", ((1000, 100), (1003, 7), (50, 200)))
    def test_ties_rank_by_value(self, n, checkpoints):
        trace = _round_robin_trace(n, 16)
        step = max(1, n // checkpoints)
        assert values.stability_snapshots(trace, step, 10) == (
            stability._snapshots(trace.records, step, 10)
        )

    def test_profile_matches_on_a_workload(self, li_trace, monkeypatch):
        columns, oracle = _both(
            monkeypatch, stability.profile_stability, li_trace, (1, 3, 7), 100
        )
        assert columns == oracle


class TestConstancy:
    @pytest.mark.slow
    @pytest.mark.parametrize("name", workload_names())
    def test_workload_traces(self, name, store, monkeypatch):
        trace = store.get(name, "test")
        columns, oracle = _both(monkeypatch, constancy.profile_constancy, trace)
        assert columns == oracle
        assert values.constancy_counts(trace) == (
            oracle.referenced_addresses,
            oracle.constant_addresses,
        )

    @pytest.mark.parametrize("case", _RANDOM)
    def test_random_traces_with_repeated_addresses(self, case, monkeypatch):
        trace = _random_trace(*case)
        columns, oracle = _both(monkeypatch, constancy.profile_constancy, trace)
        assert columns == oracle

    def test_extreme_words(self, monkeypatch):
        top = 0xFFFFFFFF
        trace = Trace(
            [(0, top - 3, top), (1, top - 3, top), (0, 0, 0), (1, 0, top),
             (0, 8, 5)]
        )
        columns, oracle = _both(monkeypatch, constancy.profile_constancy, trace)
        assert columns == oracle == constancy.ConstancyResult(3, 2)

    def test_out_of_range_records_fall_back(self, monkeypatch):
        trace = Trace([(0, 4, -1), (1, 4, -1), (0, 8, 1 << 40)])
        columns, oracle = _both(monkeypatch, constancy.profile_constancy, trace)
        assert columns == oracle == constancy.ConstancyResult(2, 2)


class TestTimeline:
    def test_gcc(self, gcc_trace, monkeypatch):
        occurrence = occurrence_profile(gcc_trace, max(1, len(gcc_trace) // 20))
        columns, oracle = _both(
            monkeypatch, timeline.profile_timeline, gcc_trace, occurrence
        )
        assert columns == oracle
        assert len(columns) >= 10

    @pytest.mark.parametrize("case", _RANDOM)
    def test_random_traces(self, case):
        trace = _random_trace(*case)
        rng = random.Random(case[0])
        n = len(trace)
        limits = sorted(
            [0, n, n] + [rng.randrange(n + 1) for _ in range(12)]
        )
        value_sets = [
            set(rng.sample(range(case[2] + 2), k)) for k in (0, 1, 3, case[2])
        ]
        assert values.timeline_counts(trace, value_sets, limits) == (
            timeline._access_counts(trace.records, value_sets, limits)
        )


class TestMissAttribution:
    @pytest.mark.slow
    @pytest.mark.parametrize("name", INT_NAMES)
    def test_int_traces(self, name, store, monkeypatch):
        trace = store.get(name, "test")
        value_sets = (
            set(access_profile(trace).top_values(10)),
            {0, 1, 0xFFFFFFFF},
        )
        for size_kb, line_bytes in ((1, 16), (4, 32), (16, 16), (64, 64)):
            geometry = CacheGeometry(size_kb * 1024, line_bytes)
            _use(monkeypatch, "python")
            oracle = attribute_misses(trace, geometry, value_sets)
            assert values.miss_attribution(trace, geometry, value_sets) == (
                oracle
            ), (size_kb, line_bytes)

    def test_kernel_declines_set_associative_caches(self, gcc_trace):
        geometry = CacheGeometry(16 * 1024, 16, ways=2)
        assert values.miss_attribution(gcc_trace, geometry, ({0},)) is None


def _program_samples(name: str, interval: int):
    """The snapshots of a sampled run of the program itself."""
    collector = OccurrenceCollector()
    get_workload(name).execute("test", sample_interval=interval, sampler=collector)
    return collector.build_profile()


def _oracle(trace: Trace, interval: int, depth: int = 32):
    collector = OccurrenceCollector()
    replay(trace, trace.dead_ranges, interval, collector)
    return collector.build_profile(depth)


def _as_columns(profile):
    return [
        (sample.access_count, sample.live_locations, sample.counts)
        for sample in profile.samples
    ], profile.ranked


def _oracle_live(trace: Trace, count: int):
    taken = []
    replay(
        islice(trace, count),
        trace.dead_ranges,
        count,
        lambda memory: taken.append(sorted(memory.live_items())),
    )
    return taken[0] if taken else []


class TestOccurrence:
    @pytest.mark.slow
    @pytest.mark.parametrize("name", workload_names())
    def test_program_run_oracle_and_columns_agree(self, name, store):
        trace = store.get(name, "test")
        # Fig. 1/2/4/5 and Table 1, Fig. 3 and build_report.
        for interval in (10_000, max(1, len(trace) // 20), max(1, len(trace) // 12)):
            program = _program_samples(name, interval)
            assert _oracle(trace, interval) == program, interval
            assert values.occurrence_samples(trace, interval, 32) == (
                _as_columns(program)
            ), interval
        # Fig. 5's midpoint snapshot.
        midpoint = max(1, len(trace) // 2)
        taken = []
        get_workload(name).execute(
            "test",
            sample_interval=midpoint,
            sampler=lambda memory: taken.append(sorted(memory.live_items())),
        )
        assert _oracle_live(trace, midpoint) == taken[0]
        assert values.live_words(trace, midpoint) == taken[0]

    @seed(2000)
    @settings(max_examples=60, deadline=None)
    @given(
        records=st.integers(min_value=0, max_value=120),
        footprint=st.integers(min_value=1, max_value=24),
        synth_seed=st.integers(min_value=0, max_value=7),
        ranges=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=125),
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=1, max_value=8),
            ),
            max_size=12,
        ),
        interval=st.integers(min_value=1, max_value=130),
        depth=st.integers(min_value=1, max_value=12),
    )
    # Death and re-access inside one interval.
    @example(records=60, footprint=4, synth_seed=0, ranges=[(5, 0, 4)],
             interval=40, depth=8)
    # A dead range over words the trace never touches.
    @example(records=60, footprint=4, synth_seed=1, ranges=[(9, 30, 8)],
             interval=20, depth=8)
    # Deaths at exactly sample positions.
    @example(records=60, footprint=6, synth_seed=2,
             ranges=[(10, 0, 3), (20, 2, 4), (20, 5, 1)], interval=10, depth=8)
    # An interval longer than the trace.
    @example(records=30, footprint=4, synth_seed=3, ranges=[(3, 1, 2)],
             interval=31, depth=8)
    def test_columns_equal_the_oracle(
        self, records, footprint, synth_seed, ranges, interval, depth
    ):
        made = uniform_trace(records, footprint_words=footprint, seed=synth_seed)
        trace = Trace(
            made.records,
            dead_ranges=[field for dead in ranges for field in dead],
        )
        assert values.occurrence_samples(trace, interval, depth) == (
            _as_columns(_oracle(trace, interval, depth))
        )
        count = max(1, min(interval, records))
        assert values.live_words(trace, count) == _oracle_live(trace, count)

    def test_misaligned_addresses_decline(self):
        trace = Trace([(1, 6, 1)])
        with pytest.raises(values.KernelUnsupported):
            values.occurrence_samples(trace, 1, 4)
