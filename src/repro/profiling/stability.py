"""Stability of the frequent value set over execution (paper Table 3).

Two measurements, both taken at regular checkpoints over the trace:

* **order stability** — the first point of execution after which the
  *ordered* top-k list never changes again (the paper's table);
* **membership stability** — the first point after which the final
  top-k values all appear in the running top-10 and never leave (the
  paper's relaxation for m88ksim: identity suffices to configure an
  FVC, ordering does not matter).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.trace.trace import Trace


@dataclass(frozen=True)
class StabilityResult:
    """Stability points as fractions of execution (0.0–1.0).

    ``order_stable_at[k]`` / ``membership_stable_at[k]`` give the
    earliest execution fraction from which the top-``k`` ordering (resp.
    membership in the top-10) is final.  A value of 0.0 means the very
    first checkpoint already matched.
    """

    checkpoints: int
    order_stable_at: Dict[int, float]
    membership_stable_at: Dict[int, float]


def profile_stability(
    trace: Trace,
    ks: Sequence[int] = (1, 3, 7),
    checkpoints: int = 200,
    membership_window: int = 10,
) -> StabilityResult:
    """Measure when each top-``k`` ranking stabilises over ``trace``.

    With the kernels active the checkpoint rankings come from the value
    columns (:func:`repro.kernels.values.stability_snapshots`); the
    loop here is the oracle.
    """
    if checkpoints <= 0:
        raise ValueError("need at least one checkpoint")
    total = len(trace)
    if not total:
        raise ValueError("cannot measure stability of an empty trace")
    ks = sorted(set(ks))
    deepest = max(max(ks), membership_window)
    step = max(1, total // checkpoints)

    from repro.kernels import dispatch, values

    snapped = dispatch.try_study(
        values.stability_snapshots, trace, step, deepest
    )
    if snapped is not None:
        snapshots, positions = snapped
    else:
        snapshots, positions = _snapshots(trace.records, step, deepest)

    final = snapshots[-1]
    order_stable: Dict[int, float] = {}
    membership_stable: Dict[int, float] = {}
    for k in ks:
        final_order = final[:k]
        final_set = set(final[:k])
        # Scan backwards to the last checkpoint that breaks the property.
        order_from = 0
        membership_from = 0
        for index in range(len(snapshots) - 1, -1, -1):
            snapshot = snapshots[index]
            if order_from == 0 and snapshot[:k] != final_order:
                order_from = index + 1
            if membership_from == 0 and not final_set.issubset(
                set(snapshot[:membership_window])
            ):
                membership_from = index + 1
            if order_from and membership_from:
                break
        order_stable[k] = (
            positions[order_from - 1] / total if order_from else 0.0
        )
        membership_stable[k] = (
            positions[membership_from - 1] / total if membership_from else 0.0
        )
    return StabilityResult(
        checkpoints=len(snapshots),
        order_stable_at=order_stable,
        membership_stable_at=membership_stable,
    )


def _snapshots(
    records: List[Tuple[int, int, int]], step: int, depth: int
) -> Tuple[List[Tuple[int, ...]], List[int]]:
    """Per checkpoint (every ``step`` records, and the end): the ordered
    ``depth``-prefix of the running (-count, value) ranking, and the
    record count it covers."""
    counts: Counter = Counter()
    snapshots: List[Tuple[int, ...]] = []
    positions: List[int] = []
    for start in range(0, len(records), step):
        for record in records[start : start + step]:
            counts[record[2]] += 1
        ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
        snapshots.append(tuple(value for value, _ in ranked[:depth]))
        positions.append(min(start + step, len(records)))
    return snapshots, positions
