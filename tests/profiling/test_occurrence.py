"""Tests for the occurrence profiler (sampled live-memory snapshots)."""

from collections import Counter, OrderedDict
from pathlib import Path

import pytest

from repro.experiments.common import INT_NAMES
from repro.experiments.registry import run_experiment
from repro.experiments.render import dumps_canonical, experiment_payload
from repro.profiling import occurrence
from repro.profiling.occurrence import (
    OccurrenceCollector,
    OccurrenceProfile,
    OccurrenceSample,
    profile_occurring_values,
)
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload

GOLDEN_DIR = Path(__file__).parents[1] / "experiments" / "golden"


def _profile():
    samples = (
        OccurrenceSample(access_count=10, live_locations=4,
                         counts={0: 3, 5: 1}),
        OccurrenceSample(access_count=20, live_locations=8,
                         counts={0: 4, 5: 2, 9: 2}),
    )
    ranked = ((0, 7), (5, 3), (9, 2))
    return OccurrenceProfile(samples=samples, ranked=ranked)


class TestOccurrenceProfile:
    def test_top_values(self):
        assert _profile().top_values(2) == [0, 5]

    def test_coverage_averages_over_samples(self):
        profile = _profile()
        # top-1 = {0}: 3/4 and 4/8 -> mean 0.625
        assert abs(profile.coverage(1) - 0.625) < 1e-9

    def test_coverage_of_arbitrary_set(self):
        profile = _profile()
        # {5, 9}: 1/4 and 4/8 -> mean 0.375
        assert abs(profile.coverage_of([5, 9]) - 0.375) < 1e-9

    def test_mean_distinct(self):
        assert _profile().mean_distinct_values == 2.5

    def test_empty_profile(self):
        empty = OccurrenceProfile(samples=(), ranked=())
        assert empty.coverage(3) == 0.0
        assert empty.mean_distinct_values == 0.0


class TestCollector:
    def test_collects_against_workload(self):
        profile = profile_occurring_values(
            get_workload("go"), "test", sample_interval=5_000
        )
        assert len(profile.samples) >= 2
        # Board/feature arrays: zero dominates occupied locations.
        assert profile.top_values(1) == [0]
        assert profile.coverage(10) > 0.4

    def test_sample_count_property(self):
        collector = OccurrenceCollector()
        assert collector.sample_count == 0


def _count_runs(monkeypatch) -> Counter:
    runs: Counter = Counter()
    execute = Workload.execute

    def spy(self, *args, **kwargs):
        runs[self.name] += 1
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(Workload, "execute", spy)
    monkeypatch.setattr(occurrence, "_memo", OrderedDict())
    return runs


class TestMemo:
    def test_repeat_profiles_run_the_program_once(self, monkeypatch):
        runs = _count_runs(monkeypatch)
        first = profile_occurring_values(get_workload("go"), "test", 5_000)
        again = profile_occurring_values(get_workload("go"), "test", 5_000)
        assert again is first
        assert runs == {"go": 1}
        profile_occurring_values(get_workload("go"), "test", 4_000)
        profile_occurring_values(get_workload("go"), "test", 5_000, depth=8)
        assert runs == {"go": 3}

    def test_the_memo_is_bounded(self, monkeypatch):
        runs = _count_runs(monkeypatch)
        workload = get_workload("go")
        limit = occurrence._MEMO_PROFILES
        for interval in range(5_000, 5_000 + limit + 1):
            profile_occurring_values(workload, "test", interval)
        assert len(occurrence._memo) == limit
        profile_occurring_values(workload, "test", 5_000)  # evicted first
        assert runs == {"go": limit + 2}

    @pytest.mark.slow
    def test_fig1_fig4_table1_run_each_program_once(self, store, monkeypatch):
        for name in INT_NAMES:
            store.get(name, "test")  # trace synthesis runs the program too
        runs = _count_runs(monkeypatch)
        for experiment_id in ("fig1", "fig4", "table1"):
            result = run_experiment(experiment_id, store=store, fast=True)
            golden = (GOLDEN_DIR / f"{experiment_id}.json").read_text(
                encoding="utf-8"
            )
            assert dumps_canonical(experiment_payload(result)) == golden
        assert runs == {name: 1 for name in INT_NAMES}
