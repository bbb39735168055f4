"""Frequently *occurring* values (paper §2).

Occurrence is a property of memory contents, not of the access stream:
every ``sample_interval`` accesses the profiler snapshots the values of
all *live* locations (referenced and not deallocated — the paper's
locations of "interest") and averages across snapshots, standing in for
the paper's every-10M-instructions sampling.

The snapshots come from the trace, so no study re-executes a program:
the records give every word's value, and the dead ranges the program
run recorded beside them (:attr:`repro.trace.trace.Trace.dead_ranges`)
give liveness.  :func:`occurrence_profile` reads the columns when the
kernels are active (:func:`repro.kernels.values.occurrence_samples`)
and otherwise replays the records and dead ranges through a
:class:`~repro.mem.memory.WordMemory` with the sampler attached
(:func:`replay`, the oracle), which takes its snapshots exactly where
the program run would have.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.mem.memory import WordMemory
from repro.trace.trace import Record, Trace


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


def replay(
    records: Iterable[Record],
    dead_ranges: Sequence[int],
    sample_interval: int,
    sampler: Callable[[WordMemory], None],
) -> None:
    """Replay ``records`` and their dead ranges (flat ``(position, base
    word, nwords)`` triples) through a :class:`WordMemory`, calling
    ``sampler(memory)`` every ``sample_interval`` records.

    Every record writes its traced value, so a word holds its last
    access's value (on a value-consistent trace a load's write changes
    nothing), and a range dies just before the record at its position
    — where the program's free or stack pop happened.
    """
    memory = WordMemory(sample_interval=sample_interval, sampler=sampler)
    store = memory.store
    mark_dead = memory.mark_dead
    deaths = iter(sorted(zip(
        dead_ranges[0::3], dead_ranges[1::3], dead_ranges[2::3]
    )))
    due = next(deaths, None)
    for position, (_, address, value) in enumerate(records):
        while due is not None and due[0] <= position:
            mark_dead(due[1] << 2, due[2])
            due = next(deaths, None)
        store(address, value)


def _snapshot_span(trace: Trace, key: str):
    from repro.obs import tracing

    return tracing.span(
        "profiling.occurrence",
        key=f"{trace.workload}/{trace.input_name}/{key}",
        attrs={"trace": f"{trace.workload}/{trace.input_name}"},
    )


def _name_path(span, columns) -> None:
    """Label the span with the path that served it."""
    if span is not None:
        span.attrs["path"] = "replay" if columns is None else "columns"


def _occurrence(trace: Trace, sample_interval: int, depth: int) -> OccurrenceProfile:
    from repro.kernels import dispatch, values

    with _snapshot_span(trace, f"{sample_interval}") as span:
        columns = dispatch.try_study(
            values.occurrence_samples, trace, sample_interval, depth
        )
        if columns is not None:
            samples, ranked = columns
            profile = OccurrenceProfile(
                samples=tuple(OccurrenceSample(*sample) for sample in samples),
                ranked=ranked,
            )
        else:
            collector = OccurrenceCollector()
            replay(trace, trace.dead_ranges, sample_interval, collector)
            profile = collector.build_profile(depth)
        _name_path(span, columns)
    return profile


def occurrence_profile(
    trace: Trace, sample_interval: int, depth: int = 32
) -> OccurrenceProfile:
    """Live-memory snapshots of ``trace`` every ``sample_interval``
    records, and the ``depth`` most occurring values over them
    (memoised on the trace).

    The snapshot after ``c`` records holds each word whose last access
    ``i`` is below ``c`` and that no dead range covering it freed at a
    position between ``i`` and ``c``; its value is the value at ``i``.
    A trace no program made has no dead ranges, so every word it
    references stays live.
    """
    if sample_interval < 1:
        raise ValueError("sample_interval must be at least 1")
    return trace.memo(
        f"occurrence:{sample_interval}:{depth}",
        lambda t: _occurrence(t, sample_interval, depth),
    )


def live_snapshot(trace: Trace, count: int) -> List[Tuple[int, int]]:
    """The ``(byte address, value)`` pairs, by address, of the words
    live in the snapshot after ``count`` records — what a sampler
    firing there sees (nothing when the trace is shorter)."""
    if count < 1:
        raise ValueError("a snapshot follows at least one record")
    from repro.kernels import dispatch, values

    with _snapshot_span(trace, f"live@{count}") as span:
        items = dispatch.try_study(values.live_words, trace, count)
        _name_path(span, items)
        if items is None:
            taken: List[List[Tuple[int, int]]] = []
            replay(
                islice(trace, count),
                trace.dead_ranges,
                count,
                lambda memory: taken.append(sorted(memory.live_items())),
            )
            items = taken[0] if taken else []
    return items


def _registered(workload) -> bool:
    from repro.workloads.registry import get_workload, workload_names

    return workload.name in workload_names() and (
        type(get_workload(workload.name)) is type(workload)
    )


def profile_occurring_values(
    workload, input_name: str, sample_interval: int = 50_000, depth: int = 32
) -> OccurrenceProfile:
    """The :func:`occurrence_profile` of ``workload``'s trace for
    ``input_name``.

    A registered workload's trace comes from the shared trace store
    (:data:`repro.workloads.store.shared_store`, backed by the disk
    cache); any other object with the
    :meth:`repro.workloads.base.Workload.generate_trace` signature
    synthesises its trace.
    """
    if _registered(workload):
        from repro.workloads.store import shared_store

        trace = shared_store.get(workload.name, input_name)
    else:
        trace = workload.generate_trace(input_name)
    return occurrence_profile(trace, sample_interval, depth)
