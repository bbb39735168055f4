"""Fig. 10 — miss-rate reduction vs FVC size.

16 KB DMC with 8-word (32 B) lines, top-7 FVC swept from 64 to 4096
entries.  Paper shape: m88ksim and perl saturate with the very smallest
FVC (conflict pairs need only a few entries); go, gcc and vortex grow
steadily with FVC size (compressed capacity); li shows the smallest
reduction.

The grid is the ``fig10`` spec in :mod:`repro.sweeps.catalog` (per
workload, one baseline then one cell per FVC size): the plan is its
expansion and the merge reads its axes, so ``--jobs N`` fans the grid
across cores and a sequential run executes the identical cells in
order.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.engine.cells import CellResult, SimCell
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import reduction_percent


class Fig10FvcSize(Experiment):
    """Reduction in miss rate as the FVC grows."""

    experiment_id = "fig10"
    title = "Miss rate reduction vs FVC size (16KB DMC, 8 words/line, top 7)"
    paper_reference = "Figure 10"

    def plan_cells(self, fast: bool = False) -> List[SimCell]:
        return self._plan_from_sweep(fast)

    def merge_cells(
        self,
        cells: Sequence[SimCell],
        results: Sequence[CellResult],
        fast: bool = False,
    ) -> ExperimentResult:
        axes = self.sweep_backing(fast)["axes"]
        sizes = axes["fvc_entries"]
        headers = ["benchmark", "base_miss_%"] + [
            f"red_{entries}e_%" for entries in sizes
        ]
        rows = []
        stride = 1 + len(sizes)
        for block, name in enumerate(axes["workload"]):
            base = results[block * stride].cache_stats()
            row = {
                "benchmark": name,
                "base_miss_%": round(100 * base.miss_rate, 3),
            }
            for offset, entries in enumerate(sizes, start=1):
                stats = results[block * stride + offset].cache_stats()
                row[f"red_{entries}e_%"] = round(
                    reduction_percent(base, stats), 1
                )
            rows.append(row)
        return self._result(headers, rows)
