"""Fig. 3 — frequent value locality over the execution of gcc.

Tracks, at regular points of execution: total live locations and
cumulative accesses; how many are covered by the final top-1/3/7/10
values; and the distinct-value counts.  Paper shape: the coverage bands
hold steady across the whole run (the top ten cover ~50% of locations
and ~40-50% of accesses throughout), and the number of distinct values
stays far below the number of locations/accesses.
"""

from __future__ import annotations

from typing import Optional

from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import input_for
from repro.profiling.occurrence import occurrence_profile
from repro.profiling.timeline import profile_timeline
from repro.workloads.store import TraceStore


class Fig03Timeline(Experiment):
    """Coverage-over-time curves for the gcc analog."""

    experiment_id = "fig3"
    title = "Frequent value locality over execution (gcc analog)"
    paper_reference = "Figure 3"

    def __init__(self, workload_name: str = "gcc", points: int = 20) -> None:
        self.workload_name = workload_name
        self.points = points

    def run(
        self, store: Optional[TraceStore] = None, fast: bool = False
    ) -> ExperimentResult:
        store = self._store(store)
        input_name = input_for(fast)
        trace = store.get(self.workload_name, input_name)
        occurrence = occurrence_profile(
            trace, sample_interval=max(1, len(trace) // self.points)
        )
        points = profile_timeline(trace, occurrence)

        headers = [
            "accesses",
            "live_locs",
            "locs_top1",
            "locs_top3",
            "locs_top7",
            "locs_top10",
            "distinct_in_mem",
            "acc_top1",
            "acc_top3",
            "acc_top7",
            "acc_top10",
            "distinct_accessed",
        ]
        rows = []
        for point in points:
            rows.append(
                {
                    "accesses": point.cumulative_accesses,
                    "live_locs": point.live_locations,
                    "locs_top1": point.covered_locations[0],
                    "locs_top3": point.covered_locations[1],
                    "locs_top7": point.covered_locations[2],
                    "locs_top10": point.covered_locations[3],
                    "distinct_in_mem": point.distinct_values_in_memory,
                    "acc_top1": point.covered_accesses[0],
                    "acc_top3": point.covered_accesses[1],
                    "acc_top7": point.covered_accesses[2],
                    "acc_top10": point.covered_accesses[3],
                    "distinct_accessed": point.distinct_values_accessed,
                }
            )
        result = self._result(headers, rows)
        result.notes.append(
            "coverage uses the full-run top-k rankings, as the paper plots"
        )
        return result
