"""Fig. 4 — cache misses attributable to frequent values.

Replays each FVL analog through a 16 KB direct-mapped cache with
16-byte lines and counts the misses whose involved value is one of the
top-10 occurring / top-10 accessed values.  Paper shape: slightly under
50% for occurring, slightly over 50% for accessed — the motivation for
a value-centric cache.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set, Tuple

from repro.cache.direct import DirectMappedCache
from repro.cache.geometry import CacheGeometry
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import FVL_NAMES, access_profile, input_for
from repro.kernels import dispatch
from repro.profiling.occurrence import occurrence_profile
from repro.trace.trace import Trace
from repro.workloads.store import TraceStore


def attribute_misses(
    trace: Trace, geometry: CacheGeometry, value_sets: Sequence[Set[int]]
) -> Tuple[int, Tuple[int, ...]]:
    """The direct-mapped cache's misses over ``trace``, and how many of
    them carry a value of each set — through the kernel
    (:func:`repro.kernels.values.miss_attribution`) when it accepts the
    cache, else the oracle replay here."""
    attributed = dispatch.try_miss_attribution(trace, geometry, value_sets)
    if attributed is not None:
        return attributed
    cache = DirectMappedCache(geometry)
    access = cache.access
    misses = 0
    counts = [0] * len(value_sets)
    for op, address, value in trace:
        if access(op, address):
            continue
        misses += 1
        for index, wanted in enumerate(value_sets):
            if value in wanted:
                counts[index] += 1
    return misses, tuple(counts)


class Fig04MissAttribution(Experiment):
    """Share of DMC misses involving the top-10 values."""

    experiment_id = "fig4"
    title = "Misses attributable to the ten most frequent values"
    paper_reference = "Figure 4 (16KB DMC, 16-byte lines)"

    def run(
        self, store: Optional[TraceStore] = None, fast: bool = False
    ) -> ExperimentResult:
        store = self._store(store)
        input_name = input_for(fast)
        geometry = CacheGeometry(16 * 1024, 16)
        headers = [
            "benchmark",
            "miss_rate_%",
            "miss_top10_accessed_%",
            "miss_top10_occurring_%",
        ]
        rows = []
        for name in FVL_NAMES:
            trace = store.get(name, input_name)
            accessed = set(access_profile(trace).top_values(10))
            occurrence = occurrence_profile(
                trace, sample_interval=10_000 if fast else 40_000
            )
            occurring = set(occurrence.top_values(10))
            misses, (miss_accessed, miss_occurring) = attribute_misses(
                trace, geometry, (accessed, occurring)
            )
            rows.append(
                {
                    "benchmark": name,
                    "miss_rate_%": round(100 * misses / len(trace), 3),
                    "miss_top10_accessed_%": round(
                        100 * miss_accessed / misses, 1
                    ) if misses else 0.0,
                    "miss_top10_occurring_%": round(
                        100 * miss_occurring / misses, 1
                    ) if misses else 0.0,
                }
            )
        return self._result(headers, rows)
