"""3C miss classification: compulsory / capacity / conflict.

Used to explain the set-associativity results (Fig. 14): the FVC removes
a mix of conflict and capacity misses, so benchmarks whose FVC gains were
mostly conflict misses (m88ksim, perl, li) lose the benefit once the base
cache becomes set-associative, while capacity-bound benchmarks (vortex,
gcc, go) keep it.

Classification follows Hill's standard definitions:

* **compulsory** — first-ever reference to the line;
* **capacity** — non-compulsory miss that a fully-associative LRU cache
  of the same total size would also take;
* **conflict** — the remainder (hit in the fully-associative cache, miss
  in the actual one).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Tuple

from repro.cache.geometry import CacheGeometry
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.direct import DirectMappedCache


@dataclass(frozen=True)
class MissClassification:
    """Counts of each miss class plus the totals they came from."""

    accesses: int
    compulsory: int
    capacity: int
    conflict: int

    @property
    def misses(self) -> int:
        """Total misses classified."""
        return self.compulsory + self.capacity + self.conflict

    @property
    def miss_rate(self) -> float:
        """Misses / accesses."""
        return self.misses / self.accesses if self.accesses else 0.0

    def fraction(self, kind: str) -> float:
        """Fraction of all misses of the given kind
        (``"compulsory"``/``"capacity"``/``"conflict"``)."""
        total = self.misses
        return getattr(self, kind) / total if total else 0.0


class LineLRU:
    """A fully-associative, write-allocate LRU cache of ``num_lines``
    lines that answers only hit or miss — all the 3C split needs.

    Such a cache hits exactly when the line is among the ``num_lines``
    most recently used, so it is kept as an LRU-ordered dict of line
    addresses rather than a one-set :class:`SetAssociativeCache`, whose
    every access scans a list of up to ``num_lines`` entries.
    """

    def __init__(self, num_lines: int) -> None:
        self.num_lines = num_lines
        self._lines: "OrderedDict[int, None]" = OrderedDict()

    def access(self, line_addr: int) -> bool:
        """Touch one line; returns True on a hit."""
        lines = self._lines
        if line_addr in lines:
            lines.move_to_end(line_addr)
            return True
        lines[line_addr] = None
        if len(lines) > self.num_lines:
            lines.popitem(last=False)
        return False


def classify_misses(
    records: Iterable[Tuple[int, int, int]], geometry: CacheGeometry
) -> MissClassification:
    """Classify every miss the ``geometry`` cache takes on the trace.

    Runs the target cache and a same-size fully-associative LRU cache
    (:class:`LineLRU`) side by side in a single pass.
    """
    if geometry.ways == 1:
        target = DirectMappedCache(geometry)
    else:
        target = SetAssociativeCache(geometry)
    ideal = LineLRU(geometry.num_lines)
    seen_lines = set()
    line_shift = geometry.line_shift
    accesses = compulsory = capacity = conflict = 0
    for op, byte_addr, _ in records:
        accesses += 1
        target_hit = target.access(op, byte_addr)
        line_addr = byte_addr >> line_shift
        ideal_hit = ideal.access(line_addr)
        first_touch = line_addr not in seen_lines
        if first_touch:
            seen_lines.add(line_addr)
        if target_hit:
            continue
        if first_touch:
            compulsory += 1
        elif ideal_hit:
            conflict += 1
        else:
            capacity += 1
    return MissClassification(
        accesses=accesses,
        compulsory=compulsory,
        capacity=capacity,
        conflict=conflict,
    )
