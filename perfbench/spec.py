"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is :func:`describe` rendered
as JSON (``python3 perfbench/run.py --describe``); a self-test keeps
the two equal.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: Seconds one run measures for (``--seconds``).
RUN_SECONDS = 30

#: The FVL traces the grid experiments replay (fetched during set-up).
GRID_TRACES = ("go", "m88ksim", "gcc", "li", "perl", "vortex")

PAPER_GRIDS = ("fig10", "fig12", "fig13", "fig14")
ORACLE_GRIDS = ("fig10", "fig13", "fig14")
PAPER_STUDIES = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "fig9", "fig11", "fig15",
    "table1", "table2", "table3", "table4",
)

#: Every paper experiment, in registry order.
ALL_EXPERIMENTS = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "table1", "table2", "table3",
    "table4", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
)

#: name -> (backend, experiments or None for the service, why).
WORKLOADS: Dict[str, Tuple[str, Tuple[str, ...], str]] = {
    "paper-grids": (
        "numpy",
        PAPER_GRIDS,
        "134 cells over 6 shared traces: numpy kernels, the oracle "
        "behind 48 kernel declines and the 3C classifier; no trace loads",
    ),
    "oracle-grids": (
        "python",
        ORACLE_GRIDS,
        "62 cells on the pure-Python cache and FVC oracles: moves with "
        "the oracle path, predicted unchanged by kernel work",
    ),
    "paper-studies": (
        "numpy",
        PAPER_STUDIES,
        "12 value-profiling and oracle-only studies: program "
        "re-execution, profiling and 36 trace loads through the 8-trace LRU",
    ),
    "served-cells": (
        "numpy",
        (),
        "120 cell jobs from 2 closed-loop clients against serve "
        "--workers 2: per-job fork, trace reload, journal and result store",
    ),
}

#: The workload that goes through the HTTP service.
SERVED = "served-cells"

#: Workloads made of cell grids, which fetch their traces in set-up.
GRIDS = ("paper-grids", "oracle-grids")

#: End-to-end metrics (tracing off): name -> (unit, bound).  ``bound``
#: is the share of the parent's median a metric may worsen by.
END_TO_END: Dict[str, Tuple[str, float]] = {
    "setup_s": ("s", 0.25),
    "run_s": ("s", 0.25),
    "jobs_per_s": ("jobs/s", 0.25),
    "job_p50_s": ("s", 0.25),
    "job_p90_s": ("s", 0.25),
    "peak_rss_mb": ("MB", 0.1),
}

#: Metrics where a larger value is the better one.
HIGHER_IS_BETTER = (
    "jobs_per_s",
    "trace_cache.mb_per_s",
    "kernels.replays",
    "engine.refs_per_s",
    "service.memo_hits",
)


def _per_layer() -> Dict[str, str]:
    metrics = {
        "trace_cache.acquire_s": "s",
        "trace_cache.setup_acquire_s": "s",
        "trace_cache.disk_loads": "count",
        "trace_cache.lru_misses": "count",
        "trace_cache.synthesised": "count",
        "trace_cache.mb_per_s": "MB/s",
        "profiling.access_profile_s": "s",
        "kernels.decompose_s": "s",
        "kernels.replays": "count",
        "kernels.declines": "count",
        "kernels.replay_share": "fraction",
        "engine.run_cell.baseline_s": "s",
        "engine.run_cell.fvc_s": "s",
        "engine.run_cell.classify_s": "s",
        "engine.cells": "count",
        "engine.sim_refs": "count",
        "engine.refs_per_s": "refs/s",
        "engine.cell_p50_s": "s",
        "engine.cell_p90_s": "s",
    }
    for experiment_id in ALL_EXPERIMENTS:
        metrics[f"experiments.{experiment_id}_s"] = "s"
    metrics.update({
        "experiments.render_s": "s",
        "experiments.self_s": "s",
        "service.submit_p50_s": "s",
        "service.submit_p90_s": "s",
        "service.queue_wait_p50_s": "s",
        "service.queue_wait_p90_s": "s",
        "service.exec_p50_s": "s",
        "service.exec_p90_s": "s",
        "service.fetch_p50_s": "s",
        "service.http_s": "s",
        "service.memo_hits": "count",
        "service.attempts": "count",
        "service.journal_records": "count",
        "service.requests": "count",
        "bench.self_s": "s",
        "obs.traced_run_s": "s",
        "obs.trace_overhead": "ratio",
    })
    return metrics


#: Per-layer metrics (traced run): name -> unit.
PER_LAYER: Dict[str, str] = _per_layer()

#: Per-layer self times that partition the traced timed phase of an
#: in-process workload: they sum to ``obs.traced_run_s``.
SELF_TIMES = (
    "trace_cache.acquire_s",
    "profiling.access_profile_s",
    "kernels.decompose_s",
    "engine.run_cell.baseline_s",
    "engine.run_cell.fvc_s",
    "engine.run_cell.classify_s",
    "experiments.render_s",
    "experiments.self_s",
    "bench.self_s",
)


def describe() -> Dict[str, object]:
    """The ``BENCHMARK.json`` contract object."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why}
            for name, (_, _, why) in WORKLOADS.items()
        ],
        "end_to_end": [
            {
                "name": name,
                "unit": unit,
                "better": "higher" if name in HIGHER_IS_BETTER else "lower",
                "bound": bound,
            }
            for name, (unit, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {
                "name": name,
                "unit": unit,
                "better": "higher" if name in HIGHER_IS_BETTER else "lower",
            }
            for name, unit in PER_LAYER.items()
        ],
    }
