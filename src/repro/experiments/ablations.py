"""Ablations of the FVC design choices (DESIGN.md §5).

Each ablation runs the headline configuration (16 KB direct-mapped,
8-word lines, 512-entry top-7 FVC) with one design switch flipped:

* **write-allocate-frequent** — the paper's §3 exception (allocate a
  frequent-valued write miss straight into the FVC).  Quantifies why
  the reproduction defaults it off: on these traces it adds misses on
  freshly written mixed-value lines.
* **exclusive vs inclusive** — the paper's exclusivity rule (a line is
  never in both structures).
* **insert-empty-lines** — whether lines with no frequent words consume
  FVC entries on eviction.
* **dynamic value identification** — Space-Saving online profiling
  (the deployment story Table 3 motivates) vs the paper's offline
  profiling run.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import (
    FVL_NAMES,
    baseline_stats,
    encoder_for,
    fvc_miss_stats,
    fvc_replay,
    input_for,
    reduction_percent,
)
from repro.fvc.dynamic import DynamicFvcSystem
from repro.fvc.system import FvcSystemConfig
from repro.workloads.store import TraceStore

_GEOMETRY = CacheGeometry(16 * 1024, 32)


class _ConfigAblation(Experiment):
    """Compare the default configuration against one flipped switch."""

    flag_name = ""
    flipped_value = True

    def run(
        self, store: Optional[TraceStore] = None, fast: bool = False
    ) -> ExperimentResult:
        store = self._store(store)
        input_name = input_for(fast)
        flipped = FvcSystemConfig(**{self.flag_name: self.flipped_value})
        headers = ["benchmark", "base_miss_%", "default_red_%", "flipped_red_%"]
        rows = []
        for name in FVL_NAMES:
            trace = store.get(name, input_name)
            base = baseline_stats(trace, _GEOMETRY)
            default_stats = fvc_miss_stats(trace, _GEOMETRY, 512, top_values=7)
            flipped_stats = fvc_miss_stats(
                trace, _GEOMETRY, 512, top_values=7, config=flipped
            )
            rows.append(
                {
                    "benchmark": name,
                    "base_miss_%": round(100 * base.miss_rate, 3),
                    "default_red_%": round(
                        reduction_percent(base, default_stats), 1
                    ),
                    "flipped_red_%": round(
                        reduction_percent(base, flipped_stats), 1
                    ),
                }
            )
        result = self._result(headers, rows)
        result.notes.append(
            f"flipped switch: {self.flag_name} = {self.flipped_value}"
        )
        return result


class AblationWriteAllocate(_ConfigAblation):
    """The paper's write-allocate-frequent exception."""

    experiment_id = "ablation-waf"
    title = "Ablation: write-allocate-frequent (the paper's §3 exception)"
    paper_reference = "Section 3 (transfer rules)"
    flag_name = "write_allocate_frequent"
    flipped_value = True


class AblationInclusive(_ConfigAblation):
    """Dropping the exclusivity rule."""

    experiment_id = "ablation-exclusive"
    title = "Ablation: exclusive (default) vs inclusive FVC contents"
    paper_reference = "Section 3 (design goals)"
    flag_name = "exclusive"
    flipped_value = False


class AblationInsertEmpty(_ConfigAblation):
    """Inserting lines that carry no frequent words."""

    experiment_id = "ablation-insert-empty"
    title = "Ablation: insert all-infrequent lines into the FVC"
    paper_reference = "Section 3 (eviction path)"
    flag_name = "insert_empty_lines"
    flipped_value = True


class AblationDynamic(Experiment):
    """Online value identification vs offline profiling."""

    experiment_id = "ablation-dynamic"
    title = "Ablation: dynamic (Space-Saving) vs profiled value sets"
    paper_reference = "Section 2 (finding frequently accessed values)"

    def run(
        self, store: Optional[TraceStore] = None, fast: bool = False
    ) -> ExperimentResult:
        store = self._store(store)
        input_name = input_for(fast)
        headers = [
            "benchmark",
            "base_miss_%",
            "profiled_red_%",
            "dynamic_red_%",
            "values_overlap",
        ]
        rows = []
        for name in FVL_NAMES:
            trace = store.get(name, input_name)
            base = baseline_stats(trace, _GEOMETRY)
            profiled_stats, _ = fvc_replay(trace, _GEOMETRY, 512, top_values=7)
            warmup = max(1000, len(trace) // 20)
            dynamic = DynamicFvcSystem(
                _GEOMETRY, 512, code_bits=3, warmup_accesses=warmup
            )
            dynamic_stats = dynamic.simulate(trace)
            overlap = len(
                set(dynamic.frequent_values)
                & set(encoder_for(trace, 7).values)
            )
            rows.append(
                {
                    "benchmark": name,
                    "base_miss_%": round(100 * base.miss_rate, 3),
                    "profiled_red_%": round(
                        reduction_percent(base, profiled_stats), 1
                    ),
                    "dynamic_red_%": round(
                        reduction_percent(base, dynamic_stats), 1
                    ),
                    "values_overlap": f"{overlap}/7",
                }
            )
        result = self._result(headers, rows)
        result.notes.append(
            "dynamic = FVC idle for the first 5% of execution while a "
            "64-counter Space-Saving summary finds the values, then locked"
        )
        return result
