"""Extension experiments beyond the paper's figures.

Each follows a thread the paper opens but does not evaluate:

* **write-through traffic** — §1 dismisses write-through caches for
  their traffic; this measures the factor.
* **energy** — §1 argues traffic reductions translate to power; this
  applies the calibrated energy model to the headline configuration.
* **cross-input deployment** — Table 2 shows the frequent value set is
  only partially input-sensitive; this measures what an FVC configured
  by profiling the *train* input achieves on the *reference* run (the
  realistic deployment of the paper's profiling flow).
* **FVC associativity** — the paper's FVC is direct-mapped; this asks
  whether making the FVC itself set-associative helps (its conflict
  pairs contend for single FVC entries).
"""

from __future__ import annotations

from typing import Optional

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import TwoLevelFvcSystem, TwoLevelSystem
from repro.cache.writethrough import WriteThroughCache
from repro.experiments.base import Experiment, ExperimentResult
from repro.experiments.common import (
    FVL_NAMES,
    access_profile,
    baseline_stats,
    encoder_for,
    fvc_miss_stats,
    fvc_replay,
    input_for,
    reduction_percent,
    victim_replay,
)
from repro.fvc.encoding import FrequentValueEncoder
from repro.fvc.compression import CompressedCache
from repro.fvc.hybrid import HybridFvcVictimSystem
from repro.fvc.system import FvcSystem
from repro.kernels.dispatch import try_hierarchy_replay
from repro.timing.energy import DEFAULT_ENERGY_MODEL
from repro.timing.performance import DEFAULT_PERFORMANCE_MODEL
from repro.workloads.store import TraceStore

_GEOMETRY = CacheGeometry(16 * 1024, 32)


class ExtWriteThroughTraffic(Experiment):
    """Write-through vs write-back traffic (the paper's §1 premise)."""

    experiment_id = "ext-writethrough"
    title = "Write-through vs write-back traffic"
    paper_reference = "Section 1 (policy choice)"

    def run(
        self, store: Optional[TraceStore] = None, fast: bool = False
    ) -> ExperimentResult:
        store = self._store(store)
        input_name = input_for(fast)
        headers = ["benchmark", "wb_traffic_words", "wt_traffic_words",
                   "traffic_factor_x"]
        rows = []
        for name in FVL_NAMES:
            trace = store.get(name, input_name)
            write_back = baseline_stats(trace, _GEOMETRY)
            write_through = WriteThroughCache(_GEOMETRY).simulate(trace)
            rows.append(
                {
                    "benchmark": name,
                    "wb_traffic_words": write_back.traffic_words,
                    "wt_traffic_words": write_through.traffic_words,
                    "traffic_factor_x": round(
                        write_through.traffic_words
                        / max(1, write_back.traffic_words),
                        2,
                    ),
                }
            )
        result = self._result(headers, rows)
        result.notes.append(
            "paper: write-through 'known to generate much higher levels "
            "of traffic' — the factor column quantifies it on the analogs"
        )
        return result


class ExtEnergy(Experiment):
    """Energy of baseline vs DMC+FVC vs doubled DMC."""

    experiment_id = "ext-energy"
    title = "Energy: 16KB DMC vs 16KB+FVC vs 32KB DMC"
    paper_reference = "Section 1 (power motivation)"

    def run(
        self, store: Optional[TraceStore] = None, fast: bool = False
    ) -> ExperimentResult:
        store = self._store(store)
        input_name = input_for(fast)
        model = DEFAULT_ENERGY_MODEL
        double = CacheGeometry(32 * 1024, 32)
        headers = [
            "benchmark",
            "base_uJ",
            "fvc_uJ",
            "double_uJ",
            "fvc_saving_%",
        ]
        rows = []
        for name in FVL_NAMES:
            trace = store.get(name, input_name)
            base = baseline_stats(trace, _GEOMETRY)
            doubled = baseline_stats(trace, double)
            augmented = fvc_miss_stats(trace, _GEOMETRY, 512, top_values=7)
            base_nj = model.baseline_total_nj(base, _GEOMETRY)
            fvc_nj = model.fvc_system_total_nj(augmented, _GEOMETRY, 3)
            double_nj = model.baseline_total_nj(doubled, double)
            rows.append(
                {
                    "benchmark": name,
                    "base_uJ": round(base_nj / 1000, 1),
                    "fvc_uJ": round(fvc_nj / 1000, 1),
                    "double_uJ": round(double_nj / 1000, 1),
                    "fvc_saving_%": round(100 * (base_nj - fvc_nj) / base_nj, 1),
                }
            )
        result = self._result(headers, rows)
        result.notes.append(
            "energy = per-access SRAM array costs + off-chip word traffic "
            "(calibrated model; relative ordering is the claim)"
        )
        return result


class ExtCrossInput(Experiment):
    """Deploying a train-profiled value set on the reference run."""

    experiment_id = "ext-cross-input"
    title = "FVC with train-profiled values on the reference input"
    paper_reference = "Table 2 (input sensitivity) applied"

    def run(
        self, store: Optional[TraceStore] = None, fast: bool = False
    ) -> ExperimentResult:
        store = self._store(store)
        run_input = "train" if fast else "ref"
        profile_input = "test" if fast else "train"
        headers = [
            "benchmark",
            "base_miss_%",
            "self_profiled_red_%",
            "cross_profiled_red_%",
            "retained_%",
        ]
        rows = []
        for name in FVL_NAMES:
            trace = store.get(name, run_input)
            profile_trace = store.get(name, profile_input)
            base = baseline_stats(trace, _GEOMETRY)
            self_stats = fvc_miss_stats(trace, _GEOMETRY, 512, top_values=7)
            cross_encoder = FrequentValueEncoder.for_top_values(
                access_profile(profile_trace).top_values(7), 3
            )
            cross_stats, _ = fvc_replay(
                trace, _GEOMETRY, 512, 7, encoder=cross_encoder
            )
            self_red = reduction_percent(base, self_stats)
            cross_red = reduction_percent(base, cross_stats)
            rows.append(
                {
                    "benchmark": name,
                    "base_miss_%": round(100 * base.miss_rate, 3),
                    "self_profiled_red_%": round(self_red, 1),
                    "cross_profiled_red_%": round(cross_red, 1),
                    "retained_%": round(100 * cross_red / self_red, 1)
                    if self_red > 0
                    else 0.0,
                }
            )
        result = self._result(headers, rows)
        result.notes.append(
            f"values profiled on the {profile_input} input, cache "
            f"evaluated on the {run_input} input"
        )
        return result


class ExtFvcAssociativity(Experiment):
    """Direct-mapped vs set-associative FVC arrays."""

    experiment_id = "ext-fvc-assoc"
    title = "FVC associativity: direct vs 2-way vs 4-way (512 entries)"
    paper_reference = "Section 3 (FVC organisation, extension)"

    def run(
        self, store: Optional[TraceStore] = None, fast: bool = False
    ) -> ExperimentResult:
        store = self._store(store)
        input_name = input_for(fast)
        headers = ["benchmark", "base_miss_%", "red_direct_%", "red_2way_%",
                   "red_4way_%"]
        rows = []
        for name in FVL_NAMES:
            trace = store.get(name, input_name)
            base = baseline_stats(trace, _GEOMETRY)
            direct, _ = fvc_replay(trace, _GEOMETRY, 512, top_values=7)
            row = {
                "benchmark": name,
                "base_miss_%": round(100 * base.miss_rate, 3),
                "red_direct_%": round(reduction_percent(base, direct), 1),
            }
            for label, ways in (("2way", 2), ("4way", 4)):
                system = FvcSystem(
                    _GEOMETRY, 512, encoder_for(trace, 7), fvc_ways=ways
                )
                stats = system.simulate(trace)
                row[f"red_{label}_%"] = round(reduction_percent(base, stats), 1)
            rows.append(row)
        return self._result(headers, rows)


class ExtHybrid(Experiment):
    """FVC + victim cache with content-routed evictions."""

    experiment_id = "ext-hybrid"
    title = "Hybrid: content-routed FVC + victim buffer vs each alone"
    paper_reference = "Conclusions (exploiting FVL in creative ways)"

    def run(
        self, store: Optional[TraceStore] = None, fast: bool = False
    ) -> ExperimentResult:
        store = self._store(store)
        input_name = input_for(fast)
        geometry = CacheGeometry(4 * 1024, 32)
        headers = [
            "benchmark",
            "base_miss_%",
            "fvc_only_red_%",
            "vc_only_red_%",
            "hybrid_red_%",
            "to_fvc_%",
        ]
        rows = []
        for name in FVL_NAMES:
            trace = store.get(name, input_name)
            base = baseline_stats(trace, geometry)
            fvc_only, _ = fvc_replay(trace, geometry, 256, top_values=7)
            vc_only, _ = victim_replay(trace, geometry, 8)
            hybrid = HybridFvcVictimSystem(
                geometry, 256, 8, encoder_for(trace, 7)
            )
            hybrid_stats = hybrid.simulate(trace)
            routed = hybrid.routed_to_fvc + hybrid.routed_to_victim
            rows.append(
                {
                    "benchmark": name,
                    "base_miss_%": round(100 * base.miss_rate, 3),
                    "fvc_only_red_%": round(
                        reduction_percent(base, fvc_only), 1
                    ),
                    "vc_only_red_%": round(
                        reduction_percent(base, vc_only), 1
                    ),
                    "hybrid_red_%": round(
                        reduction_percent(base, hybrid_stats), 1
                    ),
                    "to_fvc_%": round(
                        100 * hybrid.routed_to_fvc / routed, 1
                    ) if routed else 0.0,
                }
            )
        result = self._result(headers, rows)
        result.notes.append(
            "4KB DMC; hybrid = 256-entry FVC + 8-entry victim buffer, "
            "evictions routed by frequent-word fraction (threshold 0.5)"
        )
        return result


class ExtCompressionCache(Experiment):
    """Frequent-value compression cache (the paper's reference [11])."""

    experiment_id = "ext-compression"
    title = "FV compression cache: 2 compressed lines per slot vs DMC/FVC"
    paper_reference = "Reference [11] (the spawned compression line)"

    def run(
        self, store: Optional[TraceStore] = None, fast: bool = False
    ) -> ExperimentResult:
        store = self._store(store)
        input_name = input_for(fast)
        geometry = CacheGeometry(8 * 1024, 32)
        headers = [
            "benchmark",
            "base_miss_%",
            "fvc_red_%",
            "compression_red_%",
            "compressible_%",
            "resident_lines",
        ]
        rows = []
        for name in FVL_NAMES:
            trace = store.get(name, input_name)
            base = baseline_stats(trace, geometry)
            fvc = fvc_miss_stats(trace, geometry, 256, top_values=7)
            compressed = CompressedCache(geometry, encoder_for(trace, 7))
            compressed_stats = compressed.simulate(trace)
            rows.append(
                {
                    "benchmark": name,
                    "base_miss_%": round(100 * base.miss_rate, 3),
                    "fvc_red_%": round(reduction_percent(base, fvc), 1),
                    "compression_red_%": round(
                        reduction_percent(base, compressed_stats), 1
                    ),
                    "compressible_%": round(
                        100 * compressed.compression_ratio(), 1
                    ),
                    "resident_lines": compressed.resident_lines(),
                }
            )
        result = self._result(headers, rows)
        result.notes.append(
            "8KB physical cache; the compression cache holds up to two "
            "compressed lines per slot (effective capacity up to 2x); "
            "FVC column = same DMC + a 256-entry top-7 FVC"
        )
        return result


class ExtHierarchy(Experiment):
    """Does the FVC's benefit survive behind a unified L2?"""

    experiment_id = "ext-hierarchy"
    title = "Two-level hierarchy: L1 FVC vs plain L1, 64KB 4-way L2"
    paper_reference = "Section 4 extended (hierarchy composition)"

    def run(
        self, store: Optional[TraceStore] = None, fast: bool = False
    ) -> ExperimentResult:
        store = self._store(store)
        input_name = input_for(fast)
        l1 = CacheGeometry(16 * 1024, 32)
        l2 = CacheGeometry(64 * 1024, 32, ways=4)
        headers = [
            "benchmark",
            "l1_red_%",
            "plain_global_miss_%",
            "fvc_global_miss_%",
            "l2_read_traffic_saved_%",
        ]
        rows = []
        for name in FVL_NAMES:
            trace = store.get(name, input_name)
            plain = TwoLevelSystem(l1, l2)
            if not try_hierarchy_replay(plain, trace):
                plain.simulate(trace)
            fvc = TwoLevelFvcSystem(l1, l2, 512, encoder_for(trace, 7))
            fvc.simulate(trace)
            saved = 0.0
            if plain.l2_stats.accesses:
                saved = 100 * (
                    plain.l2_stats.accesses - fvc.l2_stats.accesses
                ) / plain.l2_stats.accesses
            rows.append(
                {
                    "benchmark": name,
                    "l1_red_%": round(
                        reduction_percent(plain.stats, fvc.stats), 1
                    ),
                    "plain_global_miss_%": round(
                        100 * plain.global_miss_rate, 3
                    ),
                    "fvc_global_miss_%": round(
                        100 * fvc.global_miss_rate, 3
                    ),
                    "l2_read_traffic_saved_%": round(saved, 1),
                }
            )
        result = self._result(headers, rows)
        result.notes.append(
            "the FVC's first-order effect behind an L2 is removing L1-L2 "
            "traffic (and with it L2 energy); the global miss rate is "
            "bounded by the L2"
        )
        return result


class ExtPerformance(Experiment):
    """Execution-time estimate: the paper's closing performance claim."""

    experiment_id = "ext-performance"
    title = "Estimated memory access time: DMC vs DMC+FVC vs 2x DMC"
    paper_reference = "Section 1 (execution-time claim), quantified"

    def run(
        self, store: Optional[TraceStore] = None, fast: bool = False
    ) -> ExperimentResult:
        store = self._store(store)
        input_name = input_for(fast)
        model = DEFAULT_PERFORMANCE_MODEL
        geometry = CacheGeometry(16 * 1024, 32)
        double = CacheGeometry(32 * 1024, 32)
        headers = [
            "benchmark",
            "base_amat_ns",
            "fvc_amat_ns",
            "double_amat_ns",
            "fvc_speedup_%",
        ]
        rows = []
        for name in FVL_NAMES:
            trace = store.get(name, input_name)
            base = baseline_stats(trace, geometry)
            doubled = baseline_stats(trace, double)
            augmented = fvc_miss_stats(trace, geometry, 512, top_values=7)
            base_amat = model.amat_ns(base, geometry)
            fvc_amat = model.amat_ns(augmented, geometry, fvc_entries=512)
            double_amat = model.amat_ns(doubled, double)
            rows.append(
                {
                    "benchmark": name,
                    "base_amat_ns": round(base_amat, 2),
                    "fvc_amat_ns": round(fvc_amat, 2),
                    "double_amat_ns": round(double_amat, 2),
                    "fvc_speedup_%": round(
                        100 * (base_amat - fvc_amat) / base_amat, 1
                    ),
                }
            )
        result = self._result(headers, rows)
        result.notes.append(
            "AMAT = cycle time (slower of DMC and FVC paths, CACTI model) "
            "+ miss rate x (60ns memory + 5ns/word transfer); the doubled "
            "DMC also pays a longer cycle time"
        )
        return result
