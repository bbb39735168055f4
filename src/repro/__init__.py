"""Frequent value locality and the value-centric frequent value cache.

A complete reproduction of *"Frequent Value Locality and Value-Centric
Data Cache Design"* (Zhang, Yang, Gupta — ASPLOS 2000): the frequent
value cache (FVC) and its DMC+FVC protocol, the frequent-value
profilers of the characterisation study, a trace-driven cache simulator
substrate, a CACTI-style timing model, a suite of SPEC95 analog
workloads, and one experiment runner per paper table/figure.

Quickstart::

    from repro import (
        get_workload, profile_accessed_values,
        CacheGeometry, DirectMappedCache,
        FrequentValueEncoder, FvcSystem,
    )

    trace = get_workload("gcc").generate_trace("ref")
    profile = profile_accessed_values(trace)
    encoder = FrequentValueEncoder.for_top_values(profile.top_values(7), 3)

    geometry = CacheGeometry(size_bytes=16 * 1024, line_bytes=32)
    baseline = DirectMappedCache(geometry).simulate(trace)
    system = FvcSystem(geometry, fvc_entries=512, encoder=encoder)
    augmented = system.simulate(trace)
    print(baseline.miss_rate, augmented.miss_rate)
"""

from repro.cache.classify import MissClassification, classify_misses
from repro.cache.direct import DirectMappedCache
from repro.engine import (
    SimCell,
    TraceCache,
    default_trace_cache,
    run_cell,
    run_cells,
)
from repro.cache.geometry import CacheGeometry
from repro.cache.setassoc import SetAssociativeCache
from repro.cache.stats import CacheStats
from repro.cache.victim import VictimCacheSystem
from repro.fvc.cache import FrequentValueCacheArray
from repro.fvc.compression import CompressedCache
from repro.fvc.dynamic import DynamicFvcSystem
from repro.fvc.hybrid import HybridFvcVictimSystem
from repro.fvc.encoding import FrequentValueEncoder
from repro.fvc.system import FvcSystem, FvcSystemConfig
from repro.profiling.access import AccessProfile, profile_accessed_values
from repro.profiling.constancy import profile_constancy
from repro.profiling.occurrence import OccurrenceProfile, profile_occurring_values
from repro.profiling.stability import profile_stability
from repro.timing.cacti import CactiModel, DEFAULT_MODEL
from repro.trace.io import read_trace, write_trace
from repro.trace.stats import compute_stats
from repro.trace.trace import Trace
from repro.workloads.registry import (
    ALL_WORKLOADS,
    FVL_WORKLOADS,
    get_workload,
)
from repro.workloads.store import TraceStore, get_trace, shared_store

__version__ = "1.0.0"

#: Top-level re-exports retired after their one deprecated release:
#: name → the stable replacement named in the AttributeError, so old
#: callers get an actionable message instead of a bare failure.
_RETIRED_EXPORTS = {
    "EXPERIMENTS": "repro.api.list_experiments()",
    "get_experiment": "repro.api.run_experiment()",
}

#: Submodules resolved lazily so ``import repro`` stays light and
#: circular-import-free (``repro.api`` pulls the experiment stack).
_LAZY_SUBMODULES = ("api", "obs")


def __getattr__(name: str):
    if name in _LAZY_SUBMODULES:
        import importlib

        return importlib.import_module(f"repro.{name}")
    replacement = _RETIRED_EXPORTS.get(name)
    if replacement is not None:
        raise AttributeError(
            f"'repro.{name}' was deprecated and has been removed; use "
            f"{replacement} (the stable facade is repro.api)"
        )
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "CacheGeometry",
    "CacheStats",
    "DirectMappedCache",
    "SetAssociativeCache",
    "VictimCacheSystem",
    "MissClassification",
    "classify_misses",
    "FrequentValueEncoder",
    "FrequentValueCacheArray",
    "FvcSystem",
    "FvcSystemConfig",
    "DynamicFvcSystem",
    "CompressedCache",
    "HybridFvcVictimSystem",
    "AccessProfile",
    "profile_accessed_values",
    "OccurrenceProfile",
    "profile_occurring_values",
    "profile_constancy",
    "profile_stability",
    "CactiModel",
    "DEFAULT_MODEL",
    "Trace",
    "read_trace",
    "write_trace",
    "compute_stats",
    "ALL_WORKLOADS",
    "FVL_WORKLOADS",
    "get_workload",
    "TraceStore",
    "get_trace",
    "shared_store",
    "TraceCache",
    "default_trace_cache",
    "SimCell",
    "run_cell",
    "run_cells",
    "__version__",
]
