"""Tests for the shared experiment plumbing."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.stats import CacheStats
from repro.cache.victim import VictimCacheSystem
from repro.experiments.common import (
    CODE_BITS_BY_COUNT,
    FVL_NAMES,
    INT_NAMES,
    access_profile,
    baseline_stats,
    encoder_for,
    fvc_replay,
    input_for,
    reduction_percent,
    victim_replay,
)
from repro import obs
from repro.fvc.encoding import FrequentValueEncoder
from repro.fvc.system import FvcSystem, FvcSystemConfig
from repro.kernels import backend
from repro.trace.synth import zipf_value_trace

#: The backends this process can run.
_BACKENDS = ["python"] + (["numpy"] if backend.numpy_available() else [])


class TestConstants:
    def test_name_groups(self):
        assert len(FVL_NAMES) == 6
        assert set(INT_NAMES) - set(FVL_NAMES) == {"compress", "ijpeg"}

    def test_code_bits_match_paper(self):
        assert CODE_BITS_BY_COUNT == {1: 1, 3: 2, 7: 3}

    def test_input_for(self):
        assert input_for(True) == "test"
        assert input_for(False) == "ref"


class TestProfiles:
    def test_access_profile_memoised(self):
        trace = zipf_value_trace(2000, seed=5)
        first = access_profile(trace)
        assert access_profile(trace) is first

    def test_encoder_for_uses_top_values(self):
        trace = zipf_value_trace(
            4000, values=(7, 8, 9), frequent_fraction=0.95, seed=1
        )
        encoder = encoder_for(trace, 3)
        assert encoder.code_bits == 2
        assert {7, 8, 9} & set(encoder.values)

    def test_encoder_width_by_count(self):
        trace = zipf_value_trace(1000, seed=2)
        assert encoder_for(trace, 1).code_bits == 1
        assert encoder_for(trace, 7).code_bits == 3


class TestSimulationHelpers:
    def test_baseline_dispatches_on_ways(self):
        trace = zipf_value_trace(2000, seed=3)
        direct = baseline_stats(trace, CacheGeometry(4096, 32))
        assoc = baseline_stats(trace, CacheGeometry(4096, 32, ways=2))
        assert direct.accesses == assoc.accesses == len(trace)

    @pytest.mark.parametrize("name", _BACKENDS)
    def test_fvc_replay_adds_occupancy_only_when_asked(
        self, store, monkeypatch, name
    ):
        monkeypatch.setenv(backend.ENV_VAR, name)
        trace = store.get("go", "test")
        geometry = CacheGeometry(16 * 1024, 32)
        stats, extras = fvc_replay(trace, geometry, 512, 7)
        sampled_stats, sampled = fvc_replay(
            trace, geometry, 512, 7, occupancy_interval=512
        )
        assert "mean_fvc_frequent_fraction" not in extras
        system = FvcSystem(
            geometry, 512, encoder_for(trace, 7),
            config=FvcSystemConfig(occupancy_sample_interval=512),
        )
        system.simulate_batch(trace)
        assert (
            sampled.pop("mean_fvc_frequent_fraction")
            == system.mean_fvc_frequent_fraction
        )
        assert sampled == extras
        assert sampled_stats.as_dict() == stats.as_dict()

    @pytest.mark.parametrize("name", _BACKENDS)
    def test_fvc_replay_takes_a_config_and_an_encoder(
        self, store, monkeypatch, name
    ):
        # A flipped switch is declined by the kernel, another input's
        # encoder is not; both equal the oracle.
        monkeypatch.setenv(backend.ENV_VAR, name)
        monkeypatch.setenv(obs.ENV_VAR, "1")
        trace = store.get("li", "test")
        geometry = CacheGeometry(16 * 1024, 32)
        inclusive = FvcSystemConfig(exclusive=False)
        cross = FrequentValueEncoder.for_top_values(
            access_profile(store.get("li", "train")).top_values(7), 3
        )
        declines = obs.registry().counter("kernel_declines_total")
        before = declines.value
        flipped, _ = fvc_replay(trace, geometry, 512, 7, config=inclusive)
        declined = declines.value - before
        crossed, extras = fvc_replay(trace, geometry, 512, 7, encoder=cross)
        assert declines.value - before == declined == (name == "numpy")
        oracle = FvcSystem(
            geometry, 512, encoder_for(trace, 7), config=inclusive
        )
        oracle.simulate_batch(trace)
        assert flipped.as_dict() == oracle.stats.as_dict()
        oracle = FvcSystem(geometry, 512, cross)
        oracle.simulate_batch(trace)
        assert crossed.as_dict() == oracle.stats.as_dict()
        assert extras["fvc_hits"] == oracle.fvc_hits

    @pytest.mark.parametrize("name", _BACKENDS)
    def test_victim_replay_matches_the_oracle(self, store, monkeypatch, name):
        monkeypatch.setenv(backend.ENV_VAR, name)
        trace = store.get("go", "test")
        geometry = CacheGeometry(4 * 1024, 32)
        stats, extras = victim_replay(trace, geometry, 16)
        system = VictimCacheSystem(geometry, 16)
        system.simulate(trace)
        assert stats.as_dict() == system.stats.as_dict()
        assert extras == {"dmc_hits": system.dmc_hits, "vc_hits": system.vc_hits}

    def test_reduction_percent(self):
        base = CacheStats()
        base.read_misses = 10
        base.read_hits = 90
        improved = CacheStats()
        improved.read_misses = 5
        improved.read_hits = 95
        assert reduction_percent(base, improved) == pytest.approx(50.0)
        assert reduction_percent(CacheStats(), CacheStats()) == 0.0
