"""Table 1 — the ten most frequently occurring and accessed values.

For each FVL analog, the top-10 value lists (hex), occurrence- and
access-ranked.  Paper shape: dominated by 0, small integers, -1,
pointers, and (for perl) packed ASCII; large overlap between the two
rankings.
"""

from __future__ import annotations

from typing import Optional

from repro.common.words import word_to_hex
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import FVL_NAMES, access_profile, input_for
from repro.profiling.occurrence import occurrence_profile
from repro.workloads.store import TraceStore


class Table1TopValues(Experiment):
    """Top-10 occurring and accessed values per benchmark."""

    experiment_id = "table1"
    title = "Frequently occurring and accessed values (hex)"
    paper_reference = "Table 1"

    def run(
        self, store: Optional[TraceStore] = None, fast: bool = False
    ) -> ExperimentResult:
        store = self._store(store)
        input_name = input_for(fast)
        headers = ["rank"] + [
            f"{name}_{kind}"
            for name in FVL_NAMES
            for kind in ("accessed", "occurring")
        ]
        columns = {}
        overlaps = []
        for name in FVL_NAMES:
            trace = store.get(name, input_name)
            accessed = access_profile(trace).top_values(10)
            occurrence = occurrence_profile(
                trace, sample_interval=10_000 if fast else 40_000
            )
            occurring = occurrence.top_values(10)
            columns[f"{name}_accessed"] = [word_to_hex(v) for v in accessed]
            columns[f"{name}_occurring"] = [word_to_hex(v) for v in occurring]
            overlaps.append(len(set(accessed) & set(occurring)))
        rows = []
        for rank in range(10):
            row = {"rank": rank + 1}
            for key, values in columns.items():
                row[key] = values[rank] if rank < len(values) else ""
            rows.append(row)
        result = self._result(headers, rows)
        result.notes.append(
            "occurring/accessed top-10 overlap per benchmark: "
            + ", ".join(
                f"{name}={overlap}" for name, overlap in zip(FVL_NAMES, overlaps)
            )
        )
        return result
