"""Tests for the occurrence profiler (sampled live-memory snapshots)."""

import json
from collections import Counter, OrderedDict
from pathlib import Path

import pytest

from repro.analysis import sanitize
from repro.engine.trace_cache import TraceCache
from repro.experiments.common import INT_NAMES
from repro.experiments.fig01_fvl import Fig01FrequentValues
from repro.experiments.registry import run_experiment
from repro.experiments.render import dumps_canonical, experiment_payload
from repro.kernels import backend
from repro.profiling.occurrence import (
    OccurrenceCollector,
    OccurrenceProfile,
    OccurrenceSample,
    live_snapshot,
    occurrence_profile,
    profile_occurring_values,
)
from repro.trace.trace import Trace
from repro.workloads.base import Workload, WorkloadInput
from repro.workloads.registry import get_workload, workload_names
from repro.workloads.store import TraceStore

GOLDEN_DIR = Path(__file__).parents[1] / "experiments" / "golden"

#: The twelve studies of one paper-studies benchmark pass.
PAPER_STUDIES = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig9", "fig11", "fig15",
    "table1", "table2", "table3", "table4",
)


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


class _FreeingWorkload(Workload):
    """An unregistered program that frees heap blocks and pops frames
    between samples."""

    name = "freeing"

    def inputs(self):
        return {"test": WorkloadInput("test", {}, 0)}

    def _run(self, space, inp):
        blocks = []
        for round_ in range(40):
            block = space.heap.alloc(4)
            space.store_block(block, [round_, 0, 7, round_ & 3])
            blocks.append(block)
            frame = space.stack.push_frame(3)
            space.store(frame, round_)
            space.load(block + 8)
            space.stack.pop_frame()
            if round_ % 3 == 0:
                space.heap.free(blocks.pop(0))


def _program_run(workload, input_name, interval, depth=32):
    collector = OccurrenceCollector()
    workload.execute(input_name, sample_interval=interval, sampler=collector)
    return collector.build_profile(depth)


class TestFromTheTrace:
    @pytest.mark.parametrize("kernels", ("numpy", "python"))
    @pytest.mark.parametrize("interval", (1, 7, 50, 1_000))
    def test_matches_the_program_run(self, kernels, interval, monkeypatch):
        if kernels == "numpy" and not backend.numpy_available():
            pytest.skip("the column path needs numpy")
        monkeypatch.setenv(backend.ENV_VAR, kernels)
        workload = _FreeingWorkload()
        trace = workload.generate_trace("test")
        assert len(trace.dead_ranges) // 3 == 54
        assert occurrence_profile(trace, interval) == _program_run(
            workload, "test", interval
        )

    def test_unregistered_workload_synthesises_its_trace(self, monkeypatch):
        runs = _count_runs(monkeypatch)
        workload = _FreeingWorkload()
        profile = profile_occurring_values(workload, "test", 25)
        assert runs == {"freeing": 1}  # generate_trace, no sampled run
        assert profile == _program_run(workload, "test", 25)

    def test_live_snapshot_matches_the_program_run(self):
        workload = _FreeingWorkload()
        trace = workload.generate_trace("test")
        for count in (1, 100, len(trace) // 2, len(trace)):
            taken = []
            workload.execute(
                "test",
                sample_interval=count,
                sampler=lambda memory: taken.append(sorted(memory.live_items())),
            )
            assert live_snapshot(trace, count) == taken[0]
        assert live_snapshot(trace, len(trace) + 1) == []

    def test_a_trace_without_dead_ranges_keeps_every_word_live(self):
        trace = Trace([(1, 0, 5), (1, 4, 5), (0, 8, 0), (1, 0, 6)])
        profile = occurrence_profile(trace, 2)
        assert [s.counts for s in profile.samples] == [{5: 2}, {6: 1, 5: 1, 0: 1}]
        freed = Trace(trace.records, dead_ranges=[2, 0, 2])
        assert [s.counts for s in occurrence_profile(freed, 2).samples] == [
            {5: 2}, {0: 1, 6: 1},
        ]

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            occurrence_profile(Trace([(0, 0, 0)]), 0)
        with pytest.raises(ValueError):
            live_snapshot(Trace([(0, 0, 0)]), 0)


def _count_runs(monkeypatch) -> Counter:
    runs: Counter = Counter()
    execute = Workload.execute

    def spy(self, *args, **kwargs):
        runs[self.name] += 1
        return execute(self, *args, **kwargs)

    monkeypatch.setattr(Workload, "execute", spy)
    return runs


class TestMemo:
    def test_profiles_are_memoised_on_the_trace(self, store, monkeypatch):
        trace = store.get("go", "test")
        runs = _count_runs(monkeypatch)
        first = occurrence_profile(trace, 5_000)
        assert occurrence_profile(trace, 5_000) is first
        assert occurrence_profile(trace, 4_000) is not first
        assert occurrence_profile(trace, 5_000, depth=8) is not first
        assert occurrence_profile(trace, 5_000, depth=8).ranked == (
            first.ranked[:8]
        )
        assert runs == {}

    @pytest.mark.parametrize("kernels", ("numpy", "python"))
    def test_one_span_per_study_naming_its_path(
        self, kernels, store, tmp_path, monkeypatch
    ):
        from repro.obs import tracing

        if kernels == "numpy" and not backend.numpy_available():
            pytest.skip("the column path needs numpy")
        monkeypatch.setenv(backend.ENV_VAR, kernels)
        monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
        trace = store.get("m88ksim", "test")
        interval = 3_001 if kernels == "numpy" else 3_002
        spans = tmp_path / "spans.jsonl"
        tracer = tracing.Tracer(str(spans))
        tracing.install(tracer)
        try:
            occurrence_profile(trace, interval)
            occurrence_profile(trace, interval)  # a memo hit: no span
        finally:
            tracing.reset()
            tracer.flush()
        found = [
            json.loads(line) for line in spans.read_text().splitlines()
        ]
        assert [(s["name"], s["attrs"]) for s in found] == [(
            "profiling.occurrence",
            {
                "trace": "m88ksim/test",
                "path": "columns" if kernels == "numpy" else "replay",
            },
        )]

    @pytest.mark.slow
    def test_paper_studies_run_no_program(self, tmp_path, monkeypatch):
        # The benchmark's set-up: every trace a pass reads is on disk
        # (synthesising it runs the program), behind an 8-trace LRU.
        cache = TraceCache(tmp_path)
        for name in workload_names():
            cache.ensure(name, "test")
        for name in INT_NAMES:
            cache.ensure(name, "train")
        store = TraceStore(max_traces=8, disk_cache=cache)
        runs = _count_runs(monkeypatch)
        for experiment_id in PAPER_STUDIES:
            result = run_experiment(experiment_id, store=store, fast=True)
            golden = (GOLDEN_DIR / f"{experiment_id}.json").read_text(
                encoding="utf-8"
            )
            assert dumps_canonical(experiment_payload(result)) == golden
        assert runs == {}

    def test_fig1_reads_the_store_it_is_given(self, monkeypatch):
        store = TraceStore(disk_cache=None)
        trace = store.get("go", "test")
        runs = _count_runs(monkeypatch)
        seen = []

        def spy(trace, *args, **kwargs):
            seen.append(trace)
            return occurrence_profile(trace, *args, **kwargs)

        monkeypatch.setattr(
            "repro.experiments.fig01_fvl.occurrence_profile", spy
        )
        result = Fig01FrequentValues(names=("go",)).run(store=store, fast=True)
        assert [t is trace for t in seen] == [True]
        assert runs == {}
        assert result.rows[0]["benchmark"] == "go"


class TestReport:
    def test_report_reads_the_trace(self, store, monkeypatch):
        from repro.profiling.report import build_report

        trace = store.get("li", "test")
        runs = _count_runs(monkeypatch)
        report = build_report(get_workload("li"), "test", trace=trace)
        assert runs == {}
        assert report.occurrence == _program_run(
            get_workload("li"), "test", max(1, len(trace) // 12)
        )

    def test_cli_report_runs_the_program_only_for_an_uncached_trace(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main
        from repro.workloads.store import shared_store

        monkeypatch.setattr(shared_store, "disk_cache", TraceCache(tmp_path))
        monkeypatch.setattr(shared_store, "_traces", OrderedDict())
        runs = _count_runs(monkeypatch)
        assert main(["report", "go", "--input", "test"]) == 0
        cold = capsys.readouterr().out
        assert runs == {"go": 1}
        shared_store.clear()
        assert main(["report", "go", "--input", "test"]) == 0
        assert capsys.readouterr().out == cold
        assert runs == {"go": 1}
