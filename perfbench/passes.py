"""One pass of one workload, in the fresh interpreter ``run.py`` starts.

    python3 perfbench/passes.py WORKLOAD --out FILE [--trace] [--seed N]
        [--setup-only]

The environment (``PYTHONPATH``, ``REPRO_BACKEND``, the trace-cache
directory, ``REPRO_OBS`` for traced passes) comes from ``run.py``.  The
pass writes one JSON record to ``FILE``: its timings, the host's
slowdown over its set-up and its timed phase (``speed.py``), its
operations' outcomes and, when traced, its per-layer figures.
Payloads are checked after the timed phase.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List

import layers
import served
import spec
import speed
from stats import median, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_DIR = ROOT / "tests" / "experiments" / "golden"


def _check_backend(expected: str) -> None:
    from repro.kernels import active_backend

    actual = active_backend()
    if actual != expected:
        raise RuntimeError(f"backend is {actual!r}, workload needs {expected!r}")


def _registry_value(name: str, attribute: str = "value") -> float:
    from repro import obs

    metric = obs.registry().get(name)
    return getattr(metric, attribute) if metric is not None else 0


class Stepwise:
    """A grid experiment run call by call, each call in its layer's
    span: the same work ``repro.api.run_experiment`` does, with the
    per-trace profiles and kernel decompositions touched first."""

    def __init__(self, experiment_ids, backend: str) -> None:
        from repro.experiments.registry import get_experiment
        from repro.obs import tracing

        self.span = tracing.span
        self.experiments = {i: get_experiment(i) for i in experiment_ids}
        with self.span("experiments.plan"):
            self.plans = {
                i: exp.plan_cells(fast=True)
                for i, exp in self.experiments.items()
            }
        self.numpy = backend == "numpy"

    def prepare(self) -> None:
        from repro.experiments.common import access_profile
        from repro.workloads.store import get_trace

        shifts: Dict[str, set] = {}
        profiled = set()
        for plan in self.plans.values():
            for cell in plan:
                if cell.kind != "classify":
                    shifts.setdefault(cell.workload, set()).add(
                        cell.geometry().line_shift
                    )
                if cell.kind == "fvc":
                    profiled.add(cell.workload)
        for name in sorted(shifts):
            trace = get_trace(name, "test")
            if self.numpy:
                from repro.kernels import columnar

                with self.span("kernels.decompose", attrs={"trace": name}):
                    columnar.trace_columns(trace)
                    columnar.word_layer(trace)
                    for shift in sorted(shifts[name]):
                        columnar.line_index(trace, shift)
            if name in profiled:
                with self.span("profiling.access_profile", attrs={"trace": name}):
                    access_profile(trace)

    def run(self, experiment_id: str) -> Dict:
        from repro.engine.cells import run_cell
        from repro.experiments.render import experiment_payload

        plan = self.plans[experiment_id]
        results = []
        for cell in plan:
            with self.span("engine.run_cell", attrs={"kind": cell.kind}):
                results.append(run_cell(cell))
        result = self.experiments[experiment_id].merge_cells(
            plan, results, fast=True
        )
        return experiment_payload(result)


def in_process_pass(
    workload: str,
    traced: bool,
    span_file: Path,
    setup_only: bool = False,
    golden_dir: Path = GOLDEN_DIR,
    experiment_ids=None,
) -> Dict:
    """Set up, run the workload's experiments, then check every
    payload byte for byte against its golden file."""
    from repro import api
    from repro.engine.trace_cache import TraceCache
    from repro.experiments.render import dumps_canonical
    from repro.obs import tracing
    from repro.workloads.store import get_trace, shared_store

    backend, default_ids, _ = spec.WORKLOADS[workload]
    experiment_ids = experiment_ids or default_ids
    _check_backend(backend)
    tracer = None
    if traced:
        tracer = tracing.Tracer(str(span_file))
        tracing.install(tracer)
    grid = workload in spec.GRIDS
    with tracing.span("bench.setup"):
        if grid:
            for name in spec.GRID_TRACES:
                with tracing.span("trace_cache.acquire", attrs={"trace": name}):
                    get_trace(name, "test")
    timed_at = time.monotonic()
    record: Dict = {"timed_at": timed_at, "ops": 0, "failures": []}
    if setup_only:
        return record

    outputs: Dict[str, str] = {}
    with tracing.span("bench.run"):
        stepwise = None
        if traced and grid:
            stepwise = Stepwise(experiment_ids, backend)
            stepwise.prepare()
        for experiment_id in experiment_ids:
            try:
                with tracing.span(
                    f"experiments.{experiment_id}",
                    attrs={"experiment": experiment_id},
                ):
                    if stepwise is not None:
                        payload = stepwise.run(experiment_id)
                    else:
                        payload = api.run_experiment(experiment_id, fast=True)
                    with tracing.span("experiments.render"):
                        outputs[experiment_id] = dumps_canonical(payload)
            except Exception as exc:  # an operation failed: count it
                record["failures"].append(f"{experiment_id}: {exc!r}")
    record["run_s"] = time.monotonic() - timed_at
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    record["ops"] = len(experiment_ids)

    for experiment_id, text in outputs.items():
        golden = (golden_dir / f"{experiment_id}.json").read_text(encoding="utf-8")
        if text != golden:
            record["failures"].append(
                f"{experiment_id}: payload differs from its golden file"
            )
    # The store resolves its disk layer on its first miss.
    disk = shared_store.disk_cache
    on_disk = isinstance(disk, TraceCache)
    counts = {
        "trace_cache.disk_loads": disk.disk_hits if on_disk else 0,
        "trace_cache.lru_misses": shared_store.misses,
        "trace_cache.synthesised": disk.synthesised if on_disk else 0,
    }
    if counts["trace_cache.synthesised"]:
        record["failures"].append(
            f"{disk.synthesised} trace(s) synthesised: the trace cache was cold"
        )
    record["counts"] = counts
    # The pass is the in-process job: all of the workload's payloads.
    record["jobs"] = [] if record["failures"] else [record["run_s"]]

    if tracer is not None:
        tracing.install(None)
        tracer.flush()
        spans = [json.loads(line) for line in span_file.read_text().splitlines()]
        figures = layers.in_process_layers(
            layers.SpanTree(spans),
            lambda key: disk.path_for(*key.split("/")).stat().st_size,
            _registry_value("kernel_replay_seconds", "sum"),
        )
        figures.update(counts)
        figures.update({
            "kernels.replays": _registry_value("kernel_replays_total"),
            "kernels.declines": _registry_value("kernel_declines_total"),
            "engine.cells": _registry_value("engine_cells_total"),
            "engine.sim_refs": _registry_value("engine_cell_references_total"),
        })
        cell_s = sum(
            r["duration_us"] for r in spans if r["name"] == "engine.run_cell"
        ) / 1e6
        if cell_s:
            figures["engine.refs_per_s"] = figures["engine.sim_refs"] / cell_s
        record["layers"] = figures
    return record


def served_pass(traced: bool, seed: int, work: Path, span_file: Path,
                setup_only: bool = False) -> Dict:
    """Start a fresh server, run the closed loop, stop the server, then
    check every fetched payload against the in-process reference."""
    from repro import api
    from repro.obs import tracing

    _check_backend(spec.WORKLOADS[spec.SERVED][0])
    cache_dir = Path(os.environ["REPRO_TRACE_CACHE_DIR"])
    entries_before = served.trace_entries(cache_dir)
    order = served.submissions(seed)
    record: Dict = {"ops": 0, "failures": []}
    references = {} if setup_only else served.reference_payloads(
        served.distinct_specs()
    )

    # Job children would keep REPRO_OBS counters in their own address
    # space; arming them would only slow the traced pass down.
    server_env = dict(os.environ)
    server_env.pop("REPRO_OBS", None)
    server = served.Server(work, server_env, work / "server.log")
    tracer = None
    if traced:
        tracer = tracing.Tracer(str(span_file))
        tracing.install(tracer)
    try:
        record["setup_at"] = time.monotonic()
        record["setup_s"] = server.start()
        if setup_only:
            return record
        record["timed_at"] = time.monotonic()
        loop = served.closed_loop(server.url, order, served.poll_offsets(seed))
        with tracing.span("service.metrics"):
            server_metrics = api.connect(server.url).metrics()["metrics"]
    finally:
        server.stop()
    record["peak_rss_mb"] = served.peak_children_rss_mb()
    record["run_s"] = loop["wall"]
    record["ops"] = len(order)

    jobs: List[float] = []
    queue_waits: List[float] = []
    execs: List[float] = []
    for position, outcome in enumerate(loop["outcomes"]):
        if outcome is None or "error" in outcome:
            error = "never ran" if outcome is None else outcome["error"]
            record["failures"].append(f"submission {position}: {error}")
            continue
        view = outcome["view"]
        jobs.append(outcome["latency"])
        if references.get(view["result_key"]) != outcome["body"]:
            record["failures"].append(
                f"submission {position}: payload differs from its reference"
            )
        if not view.get("cached"):
            queue_waits.append(view["started"] - view["created"])
            execs.append(view["finished"] - view["started"])
    record["jobs"] = jobs
    if served.trace_entries(cache_dir) != entries_before:
        record["failures"].append("the server synthesised a trace")

    if tracer is not None:
        tracing.install(None)
        tracer.flush()
        spans = [json.loads(line) for line in span_file.read_text().splitlines()]
        figures = layers.served_layers(layers.SpanTree(spans))
        figures["obs.traced_run_s"] = loop["wall"]

        def counter(name: str) -> float:
            return server_metrics.get(name, {}).get("value", 0)

        figures.update({
            "service.memo_hits": counter("result_store_hits_total"),
            "service.attempts": counter("worker_attempts_total"),
            "service.journal_records": counter("journal_records_total"),
            "service.requests": counter("server_requests_total"),
        })
        for name, samples in (("queue_wait", queue_waits), ("exec", execs)):
            if samples:
                figures[f"service.{name}_p50_s"] = median(samples)
                figures[f"service.{name}_p90_s"] = tail_percentile(samples)[1]
        record["layers"] = figures
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    out = Path(args.out)
    span_file = out.with_suffix(".spans.jsonl")
    sampler = speed.Sampler().start()
    try:
        if args.workload == spec.SERVED:
            record = served_pass(
                args.trace, args.seed, out.parent, span_file, args.setup_only
            )
            setup = (record["setup_at"], record["setup_at"] + record["setup_s"])
        else:
            record = in_process_pass(
                args.workload, args.trace, span_file, args.setup_only
            )
            setup = (-math.inf, record["timed_at"])
    finally:
        sampler.stop()
    record["setup_slowdown"] = sampler.slowdown(*setup)
    if "run_s" in record:
        timed = (record["timed_at"], record["timed_at"] + record["run_s"])
        record["slowdown"] = sampler.slowdown(*timed)
        if args.workload != spec.SERVED:
            # The samples ran in the pass's main thread and lengthened
            # its timed phase, which is also its one job.
            cost = sampler.cost_s(*timed)
            record["run_s"] -= cost
            record["jobs"] = [seconds - cost for seconds in record["jobs"]]
    record["workload"] = args.workload
    record["traced"] = args.trace
    out.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
