"""Shared experiment plumbing: encoders, simulations, configuration
lists.

Centralising these keeps every experiment honest: all of them profile
values, build encoders, and replay caches exactly the same way.
:func:`baseline_stats`, :func:`fvc_replay`, :func:`victim_replay` and
:func:`classify_replay` are the one replay path per model — the kernel
when it accepts the configuration, otherwise the oracle, audited by the
runtime sanitizer (``REPRO_SANITIZE=1``) — for simulation cells
(:func:`repro.engine.cells.run_cell`), the CLI and direct callers
alike.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.analysis import sanitize
from repro.cache.classify import MissClassification, classify_misses
from repro.cache.direct import DirectMappedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.cache.victim import VictimCacheSystem
from repro.fvc.encoding import FrequentValueEncoder
from repro.fvc.system import FvcSystem, FvcSystemConfig
from repro.kernels import dispatch
from repro.profiling.access import AccessProfile, profile_accessed_values
from repro.trace.trace import Trace

#: The six FVL benchmarks, paper presentation order.
FVL_NAMES: Tuple[str, ...] = ("go", "m88ksim", "gcc", "li", "perl", "vortex")
#: All eight SPECint95 analogs.
INT_NAMES: Tuple[str, ...] = FVL_NAMES + ("compress", "ijpeg")
#: The SPECfp95 analogs.
FP_NAMES: Tuple[str, ...] = ("swim", "tomcatv", "mgrid", "applu", "su2cor", "hydro2d")

#: Code widths and the value counts they exploit (paper: top 1 / 3 / 7).
CODE_BITS_BY_COUNT: Dict[int, int] = {1: 1, 3: 2, 7: 3}

#: DMC sizes (KB) and line sizes (bytes) swept in the evaluation.
DMC_SIZES_KB: Tuple[int, ...] = (4, 8, 16, 32, 64)
LINE_SIZES: Tuple[int, ...] = (16, 32, 64)

def access_profile(trace: Trace) -> AccessProfile:
    """Memoised access-value profile for a trace object.

    The memo lives on the trace itself (:meth:`repro.trace.trace.Trace
    .memo`), so it shares the trace's lifetime and invalidation — an
    external ``id()``-keyed table could serve another trace's profile
    once ids are recycled.  The profile ranks by ``(-count, value)`` on
    either backend, so every encoder derived from it is equal
    object-for-object regardless of backend.
    """
    return trace.memo("access_profile", profile_accessed_values)


def encoder_for(trace: Trace, top_values: int) -> FrequentValueEncoder:
    """The paper's configuration flow: profile the run, take the top
    ``top_values`` accessed values, encode them in the matching width."""
    code_bits = CODE_BITS_BY_COUNT[top_values]
    profile = access_profile(trace)
    return FrequentValueEncoder.for_top_values(
        profile.top_values(top_values), code_bits
    )


def _checked(kind: str, trace: Trace, check, *args) -> None:
    """Run one sanitizer check, prefixing violations with the replay's
    context."""
    try:
        check(*args)
    except sanitize.SanitizeViolation as exc:
        raise sanitize.SanitizeViolation(
            f"{kind} cell {trace.workload}/{trace.input_name}: {exc}"
        ) from exc


def baseline_stats(trace: Trace, geometry: CacheGeometry) -> CacheStats:
    """Miss statistics of the conventional cache alone."""
    stats = dispatch.try_baseline_stats(trace, geometry)
    if stats is not None:
        return stats
    if geometry.ways == 1:
        cache = DirectMappedCache(geometry)
    else:
        cache = SetAssociativeCache(geometry)
    stats = cache.simulate_batch(trace)
    if sanitize.enabled():
        _checked(
            "baseline", trace, sanitize.check_baseline, cache, len(trace)
        )
    return stats


def classify_replay(trace: Trace, geometry: CacheGeometry) -> MissClassification:
    """3C (compulsory / capacity / conflict) classification of the
    conventional cache's misses."""
    classes = dispatch.try_classify(trace, geometry)
    if classes is not None:
        return classes
    classes = classify_misses(trace, geometry)
    if sanitize.enabled():
        _checked(
            "classify",
            trace,
            sanitize.check_access_count,
            classes.accesses,
            len(trace),
        )
    return classes


def fvc_replay(
    trace: Trace,
    geometry: CacheGeometry,
    fvc_entries: int,
    top_values: int,
    occupancy_interval: int = 0,
    config: Optional[FvcSystemConfig] = None,
    encoder: Optional[FrequentValueEncoder] = None,
) -> Tuple[CacheStats, Dict[str, float]]:
    """Miss statistics and hit breakdown of the cache + FVC system.

    A non-zero ``occupancy_interval`` samples the FVC's frequent-word
    fraction every that many accesses (Fig. 11) and adds the mean as
    the ``mean_fvc_frequent_fraction`` extra.  ``config`` flips the
    system's behavioural switches (the ablations; the kernel declines
    any non-default one).  ``encoder`` replaces the trace's own
    top-``top_values`` encoder, e.g. with values profiled on another
    input.
    """
    if encoder is None:
        encoder = encoder_for(trace, top_values)
    replayed = dispatch.try_fvc_replay(
        trace, geometry, fvc_entries, encoder, occupancy_interval, config
    )
    if replayed is not None:
        return replayed
    config = config or FvcSystemConfig()
    if occupancy_interval:
        config = dataclasses.replace(
            config, occupancy_sample_interval=occupancy_interval
        )
    sanitizing = sanitize.enabled()
    if sanitizing:
        config = sanitize.sanitized_fvc_config(config)
    system = FvcSystem(geometry, fvc_entries, encoder, config=config)
    audit = sanitize.attach_fvc_system(system) if sanitizing else None
    stats = system.simulate_batch(trace)
    if sanitizing:
        _checked(
            "fvc",
            trace,
            sanitize.check_fvc_system,
            system,
            len(trace),
            audit,
        )
    extras: Dict[str, float] = {
        "main_hits": system.main_hits,
        "fvc_hits": system.fvc_hits,
        "fvc_read_hits": system.fvc_read_hits,
        "fvc_write_hits": system.fvc_write_hits,
    }
    if occupancy_interval:
        extras["mean_fvc_frequent_fraction"] = system.mean_fvc_frequent_fraction
    return stats, extras


def victim_replay(
    trace: Trace, geometry: CacheGeometry, victim_entries: int
) -> Tuple[CacheStats, Dict[str, int]]:
    """Miss statistics and hit split (``dmc_hits`` / ``vc_hits``) of a
    direct-mapped cache backed by a ``victim_entries``-line victim
    buffer."""
    replayed = dispatch.try_victim_replay(trace, geometry, victim_entries)
    if replayed is not None:
        return replayed
    system = VictimCacheSystem(geometry, victim_entries)
    stats = system.simulate(trace)
    if sanitize.enabled():
        _checked(
            "victim",
            trace,
            sanitize.check_stats_conservation,
            stats,
            len(trace),
        )
    return stats, {"dmc_hits": system.dmc_hits, "vc_hits": system.vc_hits}


def fvc_miss_stats(
    trace: Trace,
    geometry: CacheGeometry,
    fvc_entries: int,
    top_values: int,
    config: Optional[FvcSystemConfig] = None,
) -> CacheStats:
    """Miss statistics of the cache + FVC system when its hit breakdown
    is not needed (:func:`fvc_replay`)."""
    stats, _ = fvc_replay(
        trace, geometry, fvc_entries, top_values, config=config
    )
    return stats


def reduction_percent(base: CacheStats, improved: CacheStats) -> float:
    """Percentage reduction in miss rate (the paper's headline metric)."""
    if base.miss_rate == 0:
        return 0.0
    return 100.0 * (base.miss_rate - improved.miss_rate) / base.miss_rate


def input_for(fast: bool) -> str:
    """Reference inputs for real runs, test inputs for the fast mode."""
    return "test" if fast else "ref"
