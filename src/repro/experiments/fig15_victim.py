"""Fig. 15 — victim cache vs frequent value cache.

4 KB DMC with 8-word lines.  Two pairings, as in the paper:

* **equal storage** — a 16-entry fully-associative victim cache against
  a 128-entry top-7 FVC (tags included, the two take nearly the same
  SRAM);
* **equal access time** — a 4-entry victim cache (~9 ns, CAM search)
  against a 512-entry FVC (~6 ns, direct-mapped plus decode).

Paper shape: the VC wins the equal-storage comparison, the FVC wins the
equal-time comparison; both structures help a small DMC substantially.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.victim import VictimCacheSystem
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import (
    FVL_NAMES,
    baseline_stats,
    fvc_miss_stats,
    input_for,
    reduction_percent,
    victim_replay,
)
from repro.fvc.cache import FrequentValueCacheArray
from repro.timing.cacti import DEFAULT_MODEL
from repro.workloads.store import TraceStore


class Fig15Victim(Experiment):
    """Victim cache vs FVC at equal storage and at equal access time."""

    experiment_id = "fig15"
    title = "Victim cache vs FVC (4KB DMC, 8 words/line, top 7)"
    paper_reference = "Figure 15"

    def run(
        self, store: Optional[TraceStore] = None, fast: bool = False
    ) -> ExperimentResult:
        store = self._store(store)
        input_name = input_for(fast)
        geometry = CacheGeometry(4 * 1024, 32)
        headers = [
            "benchmark",
            "base_miss_%",
            "vc16_red_%",
            "fvc128_red_%",
            "vc4_red_%",
            "fvc512_red_%",
        ]
        rows = []
        for name in FVL_NAMES:
            trace = store.get(name, input_name)
            base = baseline_stats(trace, geometry)
            row = {
                "benchmark": name,
                "base_miss_%": round(100 * base.miss_rate, 3),
            }
            for label, victim_entries in (("vc16", 16), ("vc4", 4)):
                stats, _ = victim_replay(trace, geometry, victim_entries)
                row[f"{label}_red_%"] = round(reduction_percent(base, stats), 1)
            for label, entries in (("fvc128", 128), ("fvc512", 512)):
                stats = fvc_miss_stats(trace, geometry, entries, top_values=7)
                row[f"{label}_red_%"] = round(reduction_percent(base, stats), 1)
            rows.append(row)
        result = self._result(headers, rows)

        # Document the pairings with the actual storage/time numbers.
        encoder_bits = 3
        fvc128 = FrequentValueCacheArray(128, 8, _dummy_encoder())
        vc16_bytes = VictimCacheSystem(geometry, 16).storage_bytes()
        result.notes.append(
            "equal storage: 16-entry VC = "
            f"{vc16_bytes} bytes vs 128-entry FVC = "
            f"{(fvc128.storage_bits() + 7) // 8} bytes (tags included)"
        )
        result.notes.append(
            "equal access time: 4-entry VC = "
            f"{DEFAULT_MODEL.fully_associative_access_ns(4, 32):.1f} ns vs "
            "512-entry FVC = "
            f"{DEFAULT_MODEL.fvc_access_ns(512, encoder_bits, 8):.1f} ns"
        )
        return result


def _dummy_encoder():
    """A top-7 encoder used only for storage accounting."""
    from repro.fvc.encoding import FrequentValueEncoder

    return FrequentValueEncoder(list(range(7)), 3)
