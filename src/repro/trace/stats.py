"""Summary statistics over a trace."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.trace.trace import Trace


@dataclass(frozen=True)
class TraceStats:
    """One-pass summary of a trace.

    ``top_values`` holds the most frequently *accessed* values with their
    access counts, mirroring the headline measurement of the paper's §2.
    """

    accesses: int
    loads: int
    stores: int
    footprint_words: int
    footprint_bytes: int
    distinct_values: int
    top_values: Tuple[Tuple[int, int], ...]

    @property
    def load_fraction(self) -> float:
        """Fraction of accesses that are loads."""
        return self.loads / self.accesses if self.accesses else 0.0

    def top_value_access_fraction(self, k: int) -> float:
        """Fraction of all accesses involving the top ``k`` values."""
        if not self.accesses:
            return 0.0
        covered = sum(count for _, count in self.top_values[:k])
        return covered / self.accesses

    def format(self) -> str:
        """Human-readable multi-line rendering."""
        lines = [
            f"accesses        : {self.accesses}",
            f"  loads         : {self.loads} ({100 * self.load_fraction:.1f}%)",
            f"  stores        : {self.stores}",
            f"footprint       : {self.footprint_words} words"
            f" ({self.footprint_bytes / 1024:.1f} KB)",
            f"distinct values : {self.distinct_values}",
            "top accessed values:",
        ]
        for rank, (value, count) in enumerate(self.top_values, start=1):
            share = 100 * count / self.accesses if self.accesses else 0.0
            lines.append(f"  {rank:2d}. {value:>10x}  {count:>9} ({share:.1f}%)")
        return "\n".join(lines)


def compute_stats(trace: Trace, top_k: int = 10) -> TraceStats:
    """Compute :class:`TraceStats` for ``trace``.

    The top values are the access profile's
    (:func:`repro.profiling.access.profile_accessed_values`): ranked by
    (-count, value), so tied values list in the order the studies and
    the encoders use.
    """
    from repro.profiling.access import profile_accessed_values

    profile = profile_accessed_values(trace, depth=top_k)
    loads = trace.load_count
    footprint = trace.footprint_words()
    return TraceStats(
        accesses=len(trace),
        loads=loads,
        stores=len(trace) - loads,
        footprint_words=footprint,
        footprint_bytes=footprint * 4,
        distinct_values=profile.distinct_values,
        top_values=profile.ranked,
    )
