"""Frequently *occurring* values (paper §2).

Occurrence is a property of memory contents, not of the access stream:
every ``sample_interval`` accesses the profiler snapshots the values of
all *live* locations (referenced and not deallocated — the paper's
locations of "interest") and averages across snapshots, standing in for
the paper's every-10M-instructions sampling.
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class OccurrenceSample:
    """One snapshot of live memory."""

    access_count: int
    live_locations: int
    counts: Dict[int, int]


@dataclass(frozen=True)
class OccurrenceProfile:
    """All snapshots plus the aggregate occurrence ranking."""

    samples: Tuple[OccurrenceSample, ...]
    ranked: Tuple[Tuple[int, int], ...]

    def top_values(self, k: int) -> List[int]:
        """The ``k`` most frequently occurring values (aggregate)."""
        return [value for value, _ in self.ranked[:k]]

    def coverage(self, k: int) -> float:
        """Mean fraction of live locations occupied by the aggregate
        top-``k`` values (the left-hand bars of Fig. 1)."""
        return self.coverage_of(self.top_values(k))

    def coverage_of(self, values: Sequence[int]) -> float:
        """Mean fraction of live locations holding any of ``values``."""
        wanted = set(values)
        fractions = []
        for sample in self.samples:
            if not sample.live_locations:
                continue
            held = sum(sample.counts.get(value, 0) for value in wanted)
            fractions.append(held / sample.live_locations)
        if not fractions:
            return 0.0
        return sum(fractions) / len(fractions)

    def coverage_profile(self, ks: Sequence[int] = (1, 3, 7, 10)) -> List[float]:
        """Coverage at each requested depth."""
        return [self.coverage(k) for k in ks]

    @property
    def mean_distinct_values(self) -> float:
        """Mean number of distinct values per snapshot (the bottom curve
        of Fig. 3's locations graph)."""
        if not self.samples:
            return 0.0
        return sum(len(s.counts) for s in self.samples) / len(self.samples)


class OccurrenceCollector:
    """The sampler hook handed to :class:`WordMemory`.

    Collects one :class:`OccurrenceSample` per invocation; attach via
    ``AddressSpace(sample_interval=..., sampler=collector)``.
    """

    def __init__(self) -> None:
        self._samples: List[OccurrenceSample] = []

    def __call__(self, memory) -> None:
        counts = Counter(memory.live_values())
        self._samples.append(
            OccurrenceSample(
                access_count=memory.access_count,
                live_locations=memory.live_count,
                counts=dict(counts),
            )
        )

    def build_profile(self, depth: int = 32) -> OccurrenceProfile:
        """Aggregate the snapshots into an :class:`OccurrenceProfile`."""
        aggregate: Counter = Counter()
        for sample in self._samples:
            aggregate.update(sample.counts)
        ranked = sorted(aggregate.items(), key=lambda item: (-item[1], item[0]))
        return OccurrenceProfile(
            samples=tuple(self._samples),
            ranked=tuple(ranked[:depth]),
        )

    @property
    def sample_count(self) -> int:
        """Snapshots collected so far."""
        return len(self._samples)


#: Occurrence profiles each process keeps, least recently used first
#: out: one per SPECint95 analog, so Fig. 1's profiles serve Fig. 4,
#: Fig. 5 and Table 1 without re-executing the programs.
_MEMO_PROFILES = 8

_memo: "OrderedDict[tuple, OccurrenceProfile]" = OrderedDict()
_memo_lock = threading.Lock()


def profile_occurring_values(
    workload, input_name: str, sample_interval: int = 50_000, depth: int = 32
) -> OccurrenceProfile:
    """Run ``workload`` while sampling live memory every
    ``sample_interval`` accesses.

    ``workload`` is any object with the
    :meth:`repro.workloads.base.Workload.execute` signature.  A program
    run is a pure function of the workload, its input and the interval,
    so the last :data:`_MEMO_PROFILES` profiles are memoised per
    process, keyed by the workload's class and name, the input, the
    interval and the depth.
    """
    key = (type(workload), workload.name, input_name, sample_interval, depth)
    with _memo_lock:
        cached = _memo.get(key)
        if cached is not None:
            _memo.move_to_end(key)
            return cached
    collector = OccurrenceCollector()
    workload.execute(
        input_name,
        record=None,
        sample_interval=sample_interval,
        sampler=collector,
    )
    profile = collector.build_profile(depth)
    with _memo_lock:
        _memo[key] = profile
        while len(_memo) > _MEMO_PROFILES:
            _memo.popitem(last=False)
    return profile
