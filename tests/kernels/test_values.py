"""Column studies vs their pure-Python oracles (:mod:`repro.kernels.values`).

Each §2 study reads the value/address columns when the kernels are
active and walks the record tuples otherwise; both paths must agree on
every workload trace and on random traces built to stress the edges
(heavy count ties, lengths not divisible by the checkpoint count,
fewer records than checkpoints, repeated addresses).
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import sanitize
from repro.cache.geometry import CacheGeometry
from repro.experiments.common import INT_NAMES, access_profile
from repro.experiments.fig04_miss_attribution import attribute_misses
from repro.kernels import backend, values
from repro.profiling import access, constancy, stability, timeline
from repro.profiling.occurrence import OccurrenceCollector
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


def _occurrence(workload_name: str, interval: int):
    collector = OccurrenceCollector()
    get_workload(workload_name).execute(
        "test", sample_interval=interval, sampler=collector
    )
    return collector.build_profile()


class TestTimeline:
    def test_gcc(self, gcc_trace, monkeypatch):
        occurrence = _occurrence("gcc", max(1, len(gcc_trace) // 20))
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
