"""Backend dispatch: the one place oracle call sites try a kernel.

A kernel runs only when all three gates open:

* the resolved backend is ``numpy`` (:mod:`repro.kernels.backend`);
* the runtime sanitizer is off — its checks audit the oracle's
  per-access behaviour, which a bulk kernel never exhibits, so
  ``REPRO_SANITIZE=1`` always replays the oracle;
* the kernel supports the configuration and trace (otherwise it
  returns ``None``/``False`` itself).

Every decline falls back to the oracle, so the backend switch changes
time, never numbers.  Dispatch outcomes feed the opt-in metrics
registry (``kernel_replays_total`` / ``kernel_declines_total`` /
``kernel_replay_seconds``) so a run can show which path served it.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Sequence, Set, Tuple, TypeVar

from repro.cache.classify import MissClassification
from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.fvc.encoding import FrequentValueEncoder
from repro.fvc.system import FvcSystemConfig
from repro.kernels.backend import backend_is_numpy
from repro.trace.trace import Trace

T = TypeVar("T")


def kernels_active() -> bool:
    """Whether this process should attempt vectorized kernels."""
    from repro.analysis import sanitize

    return backend_is_numpy() and not sanitize.enabled()


def _record(outcome: str, elapsed: Optional[float] = None) -> None:
    from repro import obs

    if not obs.enabled():
        return
    registry = obs.registry()
    if outcome == "replay":
        registry.counter("kernel_replays_total").inc()
        if elapsed is not None:
            registry.histogram("kernel_replay_seconds").observe(elapsed)
    else:
        registry.counter("kernel_declines_total").inc()


def try_baseline_stats(
    trace: Trace, geometry: CacheGeometry
) -> Optional[CacheStats]:
    """Kernel statistics for a conventional cache, or ``None``."""
    if not kernels_active():
        return None
    from repro.kernels.dmc import dmc_stats
    from repro.kernels.setassoc import setassoc_stats

    started = time.perf_counter()
    if geometry.ways == 1:
        stats = dmc_stats(trace, geometry)
    else:
        stats = setassoc_stats(trace, geometry)
    if stats is None:
        _record("decline")
        return None
    _record("replay", time.perf_counter() - started)
    return stats


def try_fvc_replay(
    trace: Trace,
    geometry: CacheGeometry,
    fvc_entries: int,
    encoder: FrequentValueEncoder,
    occupancy_interval: int = 0,
    config: Optional[FvcSystemConfig] = None,
) -> Optional[Tuple[CacheStats, dict]]:
    """Kernel statistics + extras for a DMC+FVC cell, or ``None``;
    a non-zero ``occupancy_interval`` adds the Fig. 11 occupancy mean,
    and a ``config`` with a non-default switch is declined."""
    if not kernels_active():
        return None
    from repro.kernels.fvc import fvc_cell_replay

    started = time.perf_counter()
    result = fvc_cell_replay(
        trace, geometry, fvc_entries, encoder, occupancy_interval, config
    )
    if result is None:
        _record("decline")
        return None
    _record("replay", time.perf_counter() - started)
    return result


def try_victim_replay(
    trace: Trace, geometry: CacheGeometry, victim_entries: int
) -> Optional[Tuple[CacheStats, dict]]:
    """Kernel statistics + hit split for a DMC with a victim buffer, or
    ``None``."""
    if not kernels_active():
        return None
    from repro.kernels.victim import victim_cell_replay

    started = time.perf_counter()
    result = victim_cell_replay(trace, geometry, victim_entries)
    if result is None:
        _record("decline")
        return None
    _record("replay", time.perf_counter() - started)
    return result


def try_classify(
    trace: Trace, geometry: CacheGeometry
) -> Optional[MissClassification]:
    """Kernel 3C miss classification for a cache, or ``None``."""
    if not kernels_active():
        return None
    from repro.kernels.classify import dmc_classify

    started = time.perf_counter()
    classes = dmc_classify(trace, geometry)
    if classes is None:
        _record("decline")
        return None
    _record("replay", time.perf_counter() - started)
    return classes


def try_miss_attribution(
    trace: Trace, geometry: CacheGeometry, value_sets: Sequence[Set[int]]
) -> Optional[Tuple[int, Tuple[int, ...]]]:
    """Kernel Fig. 4 attribution — a direct-mapped cache's misses, and
    how many carry a value of each set — or ``None``."""
    if not kernels_active():
        return None
    from repro.kernels.values import miss_attribution

    started = time.perf_counter()
    attributed = miss_attribution(trace, geometry, value_sets)
    if attributed is None:
        _record("decline")
        return None
    _record("replay", time.perf_counter() - started)
    return attributed


def try_study(study: Callable[..., T], trace: Trace, *args) -> Optional[T]:
    """The column path of a §2 value study (:mod:`repro.kernels.columnar`
    rankings, :mod:`repro.kernels.values`), or ``None`` when the kernels
    are off or the study raises :class:`KernelUnsupported`.  Studies
    are profiles, not replays, so they are not counted."""
    if not kernels_active():
        return None
    from repro.kernels.columnar import KernelUnsupported

    try:
        return study(trace, *args)
    except KernelUnsupported:
        return None


def try_hierarchy_replay(system, trace: Trace) -> bool:
    """Fast-forward a fresh two-level system; ``False`` = use oracle."""
    if not kernels_active():
        return False
    from repro.kernels.hierarchy import hierarchy_replay

    started = time.perf_counter()
    if not hierarchy_replay(system, trace):
        _record("decline")
        return False
    _record("replay", time.perf_counter() - started)
    return True
