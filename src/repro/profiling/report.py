"""Consolidated frequent-value-locality report for one workload.

Bundles the §2 measurements (access coverage, occurrence coverage,
constancy, stability) into one text report — the CLI's ``report``
command and a convenient one-call API for notebook use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.common.words import word_to_hex
from repro.profiling.access import AccessProfile, profile_accessed_values
from repro.profiling.constancy import ConstancyResult, profile_constancy
from repro.profiling.occurrence import OccurrenceProfile, occurrence_profile
from repro.profiling.stability import StabilityResult, profile_stability
from repro.trace.trace import Trace
from repro.workloads.base import Workload


@dataclass(frozen=True)
class FvlReport:
    """All §2 measurements for one (workload, input) pair."""

    workload_name: str
    input_name: str
    accesses: int
    access: AccessProfile
    occurrence: Optional[OccurrenceProfile]
    constancy: ConstancyResult
    stability: StabilityResult

    @property
    def exhibits_fvl(self) -> bool:
        """The paper's informal criterion: a handful of values covering
        a large share of accesses."""
        return self.access.coverage(10) > 0.25

    def format(self) -> str:
        """Multi-line text rendering of the whole study."""
        lines: List[str] = [
            f"frequent value locality report: {self.workload_name} "
            f"({self.input_name} input, {self.accesses:,} accesses)",
            "",
            "top accessed values (rank, value, share):",
        ]
        for rank, (value, count) in enumerate(self.access.ranked[:10], 1):
            share = 100 * count / max(1, self.access.total_accesses)
            lines.append(f"  {rank:2d}. {word_to_hex(value):>10s}  {share:5.1f}%")
        lines.append("")
        lines.append(
            "access coverage  : "
            + "  ".join(
                f"top{k}={100 * self.access.coverage(k):.1f}%"
                for k in (1, 3, 7, 10)
            )
        )
        if self.occurrence is not None:
            lines.append(
                "location coverage: "
                + "  ".join(
                    f"top{k}={100 * self.occurrence.coverage(k):.1f}%"
                    for k in (1, 3, 7, 10)
                )
            )
        lines.append(
            f"constant addrs   : {100 * self.constancy.constant_fraction:.1f}% "
            f"of {self.constancy.referenced_addresses:,} referenced"
        )
        stable = self.stability.membership_stable_at
        lines.append(
            "values found     : "
            + "  ".join(
                f"top{k}@{100 * stable[k]:.0f}%" for k in sorted(stable)
            )
            + " of execution (membership in the running top-10)"
        )
        lines.append("")
        verdict = "exhibits" if self.exhibits_fvl else "does NOT exhibit"
        lines.append(f"verdict: {self.workload_name} {verdict} frequent "
                     "value locality")
        return "\n".join(lines)


def build_report(
    workload: Workload,
    input_name: str = "ref",
    trace: Optional[Trace] = None,
    include_occurrence: bool = True,
) -> FvlReport:
    """Run every §2 measurement for one workload input.

    ``trace`` may be supplied to avoid regenerating it (the CLI passes
    the cached one); otherwise the program runs once to make it.  The
    occurrence study samples live memory from the trace and its dead
    ranges (:func:`~repro.profiling.occurrence.occurrence_profile`), so
    a trace without them — derived or hand-made — counts every
    referenced word live.  ``include_occurrence=False`` skips it.
    """
    if trace is None:
        trace = workload.generate_trace(input_name)
    occurrence = None
    if include_occurrence:
        occurrence = occurrence_profile(
            trace, sample_interval=max(1, len(trace) // 12)
        )
    return FvlReport(
        workload_name=workload.name,
        input_name=input_name,
        accesses=len(trace),
        access=profile_accessed_values(trace),
        occurrence=occurrence,
        constancy=profile_constancy(trace),
        stability=profile_stability(trace, ks=(1, 3, 7), checkpoints=100),
    )
