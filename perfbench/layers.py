"""Per-layer figures from one traced pass's span stream.

The traced pass installs a :class:`repro.obs.tracing.Tracer`, so the
spans the benchmark opens around its calls into each layer and the
spans the program opens itself (``engine.cell``, ``trace_cache.load``)
form one tree.  A span's *self time* is its duration minus the part of
it that its direct children cover, overlapping children counted once;
a layer's self time is the sum over its spans.  Inside one root the
self times partition the root's duration.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence

from stats import median, tail_percentile

#: Span-name prefix -> layer.  ``experiments.render`` is its own layer.
_LAYERS = (
    "bench", "trace_cache", "profiling", "kernels", "engine",
    "experiments", "service",
)


def layer_of(name: str) -> str:
    """The layer a span belongs to, by its name."""
    if name == "experiments.render":
        return "render"
    prefix = name.split(".", 1)[0]
    return prefix if prefix in _LAYERS else "other"


def covered_us(start: int, end: int, children: Iterable[Dict]) -> int:
    """Microseconds of ``[start, end)`` covered by the children's
    intervals, where they overlap counted once."""
    intervals = sorted(
        (max(child["start_us"], start),
         min(child["start_us"] + child["duration_us"], end))
        for child in children
    )
    covered = 0
    run_start: Optional[int] = None
    run_end = 0
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if run_start is None or lo > run_end:
            if run_start is not None:
                covered += run_end - run_start
            run_start, run_end = lo, hi
        else:
            run_end = max(run_end, hi)
    if run_start is not None:
        covered += run_end - run_start
    return covered


class SpanTree:
    """Span records of one process, indexed for self-time queries."""

    def __init__(self, records: Sequence[Dict]) -> None:
        self.records = list(records)
        self.by_id: Dict[str, Dict] = {}
        self.children: Dict[Optional[str], List[Dict]] = defaultdict(list)
        for record in self.records:
            self.by_id.setdefault(record["span_id"], record)
            self.children[record["parent_id"]].append(record)

    def self_us(self, record: Dict) -> int:
        """Duration minus the part the direct children cover."""
        start = record["start_us"]
        end = start + record["duration_us"]
        kids = self.children.get(record["span_id"], ())
        return record["duration_us"] - covered_us(start, end, kids)

    def ancestors(self, record: Dict):
        """The span's parent chain, innermost first."""
        parent_id = record["parent_id"]
        while parent_id is not None:
            parent = self.by_id.get(parent_id)
            if parent is None:
                return
            yield parent
            parent_id = parent["parent_id"]

    def roots(self, name: str) -> List[Dict]:
        """Root spans with ``name``."""
        return [r for r in self.children.get(None, ()) if r["name"] == name]

    def under(self, root: Dict) -> List[Dict]:
        """``root`` and every span below it."""
        found = [root]
        stack = [root["span_id"]]
        while stack:
            for child in self.children.get(stack.pop(), ()):
                found.append(child)
                stack.append(child["span_id"])
        return found

    def named(self, spans: Iterable[Dict], name: str) -> List[Dict]:
        return [r for r in spans if r["name"] == name]


def seconds(us: float) -> float:
    return us / 1_000_000


def in_process_layers(
    tree: SpanTree,
    entry_bytes: Callable[[str], int],
    kernel_replay_s: float,
) -> Dict[str, float]:
    """Per-layer metrics of one traced in-process pass.

    ``entry_bytes`` maps a ``trace_cache.load`` key (``workload/input``)
    to the size of the disk entry it read; ``kernel_replay_s`` is the
    program's own ``kernel_replay_seconds`` total.
    """
    (run_root,) = tree.roots("bench.run")
    timed = tree.under(run_root)
    setup: List[Dict] = []
    for root in tree.roots("bench.setup"):
        setup.extend(tree.under(root))

    by_layer: Dict[str, int] = defaultdict(int)
    by_kind: Dict[str, int] = defaultdict(int)
    for record in timed:
        layer = layer_of(record["name"])
        own = tree.self_us(record)
        by_layer[layer] += own
        if layer == "engine":
            cell = record
            if record["name"] != "engine.run_cell":
                cell = next(
                    (a for a in tree.ancestors(record)
                     if a["name"] == "engine.run_cell"),
                    record,
                )
            by_kind[cell["attrs"].get("kind", "")] += own
    setup_acquire = sum(
        tree.self_us(r) for r in setup if layer_of(r["name"]) == "trace_cache"
    )

    metrics: Dict[str, float] = {
        "trace_cache.acquire_s": seconds(by_layer["trace_cache"]),
        "trace_cache.setup_acquire_s": seconds(setup_acquire),
        "profiling.access_profile_s": seconds(by_layer["profiling"]),
        "kernels.decompose_s": seconds(by_layer["kernels"]),
        "engine.run_cell.baseline_s": seconds(by_kind["baseline"]),
        "engine.run_cell.fvc_s": seconds(by_kind["fvc"]),
        "engine.run_cell.classify_s": seconds(by_kind["classify"]),
        "experiments.render_s": seconds(by_layer["render"]),
        "experiments.self_s": seconds(
            by_layer["experiments"] + by_layer["other"]
        ),
        "bench.self_s": seconds(by_layer["bench"]),
        "obs.traced_run_s": seconds(run_root["duration_us"]),
    }

    for record in timed:
        experiment_id = record["attrs"].get("experiment")
        if experiment_id is not None:
            metrics[f"experiments.{experiment_id}_s"] = seconds(
                record["duration_us"]
            )

    cells = [seconds(r["duration_us"]) for r in tree.named(timed, "engine.run_cell")]
    if cells:
        metrics["engine.cell_p50_s"] = median(cells)
        metrics["engine.cell_p90_s"] = tail_percentile(cells)[1]
        metrics["kernels.replay_share"] = kernel_replay_s / sum(cells)

    loads = [
        r for r in tree.records
        if r["name"] == "trace_cache.load"
        and r["attrs"].get("outcome") == "disk_hit"
    ]
    load_us = sum(r["duration_us"] for r in loads)
    if load_us:
        megabytes = sum(entry_bytes(r["key"]) for r in loads) / 1e6
        metrics["trace_cache.mb_per_s"] = megabytes / seconds(load_us)
    return metrics


def served_layers(tree: SpanTree) -> Dict[str, float]:
    """Client-side per-layer metrics of one traced served pass."""
    metrics: Dict[str, float] = {}
    http = [r for r in tree.records if layer_of(r["name"]) == "service"]
    metrics["service.http_s"] = seconds(sum(tree.self_us(r) for r in http))
    metrics["bench.self_s"] = seconds(sum(
        tree.self_us(r) for r in tree.records if layer_of(r["name"]) == "bench"
    ))
    submits = [seconds(r["duration_us"]) for r in tree.named(http, "service.submit")]
    fetches = [seconds(r["duration_us"]) for r in tree.named(http, "service.fetch")]
    if submits:
        metrics["service.submit_p50_s"] = median(submits)
        metrics["service.submit_p90_s"] = tail_percentile(submits)[1]
    if fetches:
        metrics["service.fetch_p50_s"] = median(fetches)
    return metrics
