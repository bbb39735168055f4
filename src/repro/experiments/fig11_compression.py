"""Fig. 11 — effectiveness of the FVC's data compression.

Time-averaged fraction of frequent-coded words in valid FVC lines
(512-entry top-7 FVC next to a 16 KB 8-word-line DMC), and the derived
storage-efficiency factor: a 32-byte DMC line compresses to 3 bytes in
the FVC, so at frequent-word fraction f the FVC stores cached values in
``(32/3) * f`` times less storage than a DMC would need.  Paper shape:
over 40% frequent content for most programs, i.e. a factor above ~4.
"""

from __future__ import annotations

from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import FVL_NAMES, fvc_replay, input_for
from repro.workloads.store import TraceStore


class Fig11Compression(Experiment):
    """Frequent value content of the FVC and its storage advantage."""

    experiment_id = "fig11"
    title = "Frequent value content of FVC (512 entries, top 7)"
    paper_reference = "Figure 11"

    def run(
        self, store: Optional[TraceStore] = None, fast: bool = False
    ) -> ExperimentResult:
        store = self._store(store)
        input_name = input_for(fast)
        geometry = CacheGeometry(16 * 1024, 32)
        headers = [
            "benchmark",
            "frequent_content_%",
            "storage_factor_x",
            "fvc_read_hits",
            "fvc_write_hits",
        ]
        rows = []
        for name in FVL_NAMES:
            trace = store.get(name, input_name)
            _, extras = fvc_replay(
                trace, geometry, 512, top_values=7, occupancy_interval=512
            )
            content = extras["mean_fvc_frequent_fraction"]
            # 32-byte line compressed to a 3-byte code field (8 words x
            # 3 bits), scaled by how much of it holds real values.
            factor = (32 / 3) * content
            rows.append(
                {
                    "benchmark": name,
                    "frequent_content_%": round(100 * content, 1),
                    "storage_factor_x": round(factor, 2),
                    "fvc_read_hits": extras["fvc_read_hits"],
                    "fvc_write_hits": extras["fvc_write_hits"],
                }
            )
        result = self._result(headers, rows)
        result.notes.append(
            "paper: >40% content for most programs => the FVC stores "
            "cached values in ~4.27x less storage than a DMC"
        )
        return result
