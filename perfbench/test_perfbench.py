"""Self-tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import layers
import passes
import run
import served
import spec
import speed
from stats import is_metric_name, tail_percentile

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "n, expected",
    [
        (4, (100.0, 4)),     # too few samples for any rung: the maximum
        (19, (100.0, 19)),
        (20, (50.0, 10)),    # rank 10, 10 samples beyond
        (99, (75.0, 75)),    # p90 would leave only 9 beyond
        (100, (90.0, 90)),
        (120, (90.0, 108)),
        (200, (95.0, 190)),
        (1000, (99.0, 990)),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    samples = list(range(n, 0, -1))  # order must not matter
    assert tail_percentile(samples) == expected


def _span(span_id, parent, name, start, duration, **attrs):
    return {
        "span_id": span_id, "parent_id": parent, "name": name, "key": span_id,
        "start_us": start, "duration_us": duration, "attrs": attrs,
    }


def test_self_time_counts_overlapping_children_once():
    tree = layers.SpanTree([
        _span("p", None, "bench.run", 0, 100),
        _span("a", "p", "engine.run_cell", 10, 30),   # 10..40
        _span("b", "p", "engine.run_cell", 30, 30),   # 30..60 overlaps a
        _span("c", "p", "engine.run_cell", 90, 30),   # clipped at 100
    ])
    parent = tree.by_id["p"]
    assert tree.self_us(parent) == 100 - (50 + 10)
    assert tree.self_us(tree.by_id["a"]) == 30


def test_layer_self_times_partition_the_timed_phase():
    spans = [
        _span("setup", None, "bench.setup", 0, 50),
        _span("acq", "setup", "trace_cache.acquire", 5, 40),
        _span("load", "acq", "trace_cache.load", 6, 38, outcome="disk_hit"),
        _span("run", None, "bench.run", 100, 1000),
        _span("dec", "run", "kernels.decompose", 110, 90),
        _span("prof", "run", "profiling.access_profile", 200, 50),
        _span("exp", "run", "experiments.fig13", 260, 800, experiment="fig13"),
        _span("cell1", "exp", "engine.run_cell", 270, 300, kind="fvc"),
        _span("eng1", "cell1", "engine.cell", 271, 298),
        _span("cell2", "exp", "engine.run_cell", 580, 200, kind="baseline"),
        _span("eng2", "cell2", "engine.cell", 581, 150),
        _span("ld2", "eng2", "trace_cache.load", 590, 100, outcome="disk_hit"),
        _span("rend", "exp", "experiments.render", 1000, 40),
    ]
    figures = layers.in_process_layers(
        layers.SpanTree(spans), lambda key: 2_000_000, kernel_replay_s=0.0001
    )
    assert sum(figures[name] for name in spec.SELF_TIMES) == pytest.approx(
        figures["obs.traced_run_s"]
    )
    assert figures["obs.traced_run_s"] == pytest.approx(0.001)
    assert figures["engine.run_cell.fvc_s"] == pytest.approx(300e-6)
    assert figures["engine.run_cell.baseline_s"] == pytest.approx(100e-6)
    assert figures["trace_cache.acquire_s"] == pytest.approx(100e-6)
    assert figures["trace_cache.setup_acquire_s"] == pytest.approx(40e-6)
    assert figures["experiments.fig13_s"] == pytest.approx(800e-6)
    assert figures["kernels.replay_share"] == pytest.approx(0.0001 / 500e-6)
    assert figures["trace_cache.mb_per_s"] == pytest.approx(4.0 / 138e-6)


def test_metric_names_follow_the_grammar():
    names = list(spec.END_TO_END) + list(spec.PER_LAYER)
    for name in names:
        assert is_metric_name(name), name
    for bad in ("", "_lead", ".lead", "has space", "x" * 65, "café", "a/b"):
        assert not is_metric_name(bad), bad
    assert len(set(names)) == len(names)


def test_sampler_times_the_loop_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    sampler = speed.Sampler().start()
    started = time.monotonic()
    try:
        while time.monotonic() - started < 0.4:
            sum(range(1000))
    finally:
        sampler.stop()
    assert len(sampler.samples) >= 3
    assert all(seconds > 0 for _, seconds in sampler.samples)
    assert sampler.slowdown() > 0
    assert 0 < sampler.cost_s(started) < 0.4
    assert sampler.slowdown(started + 1, started + 2) == sampler.slowdown()
    assert signal.getsignal(signal.SIGALRM) == before
    assert speed.Sampler().slowdown() == 1.0


def test_times_are_scaled_by_their_own_pass_slowdown():
    def record(run_s, slowdown, traced=False):
        return {
            "traced": traced, "setup_s": run_s / 10, "run_s": run_s,
            "peak_rss_mb": 100.0, "jobs": [run_s], "slowdown": slowdown,
            "setup_slowdown": slowdown,
        }

    # A pass on a host twice as slow takes twice as long: same figure.
    passes_ = [record(10.0, 1.0), record(20.0, 2.0), record(99.0, 1.0, True)]
    scaled = run.end_to_end(passes_, [])
    assert scaled["run_s"] == scaled["job_p50_s"] == pytest.approx(10.0)
    assert scaled["setup_s"] == pytest.approx(1.0)
    assert scaled["jobs_per_s"] == pytest.approx(2 / 20.0)
    unscaled = run.end_to_end(passes_, [], scaled=False)
    assert unscaled["run_s"] == pytest.approx(15.0)
    assert unscaled["peak_rss_mb"] == scaled["peak_rss_mb"] == 100.0


def test_benchmark_json_is_the_declared_contract():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.describe()


def test_submission_order_is_seeded_and_resubmits_completed_specs():
    order = served.submissions(7)
    assert order == served.submissions(7)
    assert order != served.submissions(8)
    assert len(order) == served.SUBMISSIONS
    keys = [json.dumps(s, sort_keys=True) for s in order]
    assert len(set(keys)) == len(served.distinct_specs()) == 84
    first = {}
    for position, key in enumerate(keys):
        if key in first:
            assert first[key] <= position - served.CLIENTS
        else:
            first[key] = position
    offsets = served.poll_offsets(7)
    assert offsets == served.poll_offsets(7) != served.poll_offsets(8)
    assert len(offsets) == served.SUBMISSIONS
    assert all(0 <= offset <= served.POLL_S for offset in offsets)


def test_injected_payload_mismatch_fails_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "traces"))
    golden = tmp_path / "golden"
    golden.mkdir()
    real = (passes.GOLDEN_DIR / "fig9.json").read_text(encoding="utf-8")
    (golden / "fig9.json").write_text(real.replace("1", "2", 1), encoding="utf-8")

    def one(golden_dir):
        record = passes.in_process_pass(
            "paper-studies", False, tmp_path / "spans.jsonl",
            golden_dir=golden_dir, experiment_ids=("fig9",),
        )
        record.update(traced=False, setup_s=0.0, slowdown=1.0, setup_slowdown=1.0)
        return record

    good = run.report(
        "paper-studies",
        {"passes": [one(passes.GOLDEN_DIR)], "probes": [], "error": None},
        traced=False,
    )
    bad = run.report(
        "paper-studies",
        {"passes": [one(golden)], "probes": [], "error": None},
        traced=False,
    )
    assert (good["correct"], good["failed"]) == (True, 0)
    assert (bad["correct"], bad["failed"], bad["attempted"]) == (False, 1, 1)
    assert "fail_ratio 1.000000" in capsys.readouterr().out

    monkeypatch.setattr(run, "repository_present", lambda: True)
    for result, code in ((good, 0), (bad, 1)):
        monkeypatch.setattr(run, "measure", lambda *args, r=result: r)
        assert run.main(["--workload", "paper-studies"]) == code
