"""The runtime sanitizer: invariant checks hold on real simulations,
round-trips hold across every code width, corruption is detected, and a
sanitized parallel run stays bit-identical to an unsanitized sequential
one."""

from __future__ import annotations

import pytest

from repro.analysis import sanitize
from repro.analysis.sanitize import (
    MemoryAudit,
    SanitizeViolation,
    attach_fvc_system,
    check_baseline,
    check_codes_roundtrip,
    check_fvc_system,
    check_stats_conservation,
    sanitized_fvc_config,
)
from repro.cache.direct import DirectMappedCache
from repro.cache.geometry import CacheGeometry
from repro.cache.mainmem import MainMemory
from repro.cache.stats import CacheStats
from repro.fvc.encoding import FrequentValueEncoder
from repro.fvc.system import FvcSystem


@pytest.fixture(autouse=True)
def _fresh_counters():
    sanitize.reset_counters()
    yield
    sanitize.reset_counters()


class TestEnableDisable:
    def test_env_round_trip(self, monkeypatch):
        monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
        assert not sanitize.enabled()
        sanitize.enable()
        assert sanitize.enabled()
        sanitize.disable()
        assert not sanitize.enabled()

    def test_truthy_spellings(self, monkeypatch):
        for value in ("1", "true", "YES", " on "):
            monkeypatch.setenv(sanitize.ENV_VAR, value)
            assert sanitize.enabled()
        for value in ("", "0", "off", "no"):
            monkeypatch.setenv(sanitize.ENV_VAR, value)
            assert not sanitize.enabled()


class TestRoundTrip:
    """Property: for every code width and line width, every code an
    encoder can emit survives decode→encode unchanged."""

    @pytest.mark.parametrize("code_bits", (1, 2, 3))
    @pytest.mark.parametrize("words_per_line", (1, 2, 4, 8))
    def test_all_codes_round_trip(self, code_bits, words_per_line):
        capacity = FrequentValueEncoder.capacity(code_bits)
        values = [i * 0x1111 for i in range(capacity)]
        encoder = FrequentValueEncoder(values, code_bits)
        # Lines cycling through every frequent code plus the
        # infrequent code (which round-trip skips by definition).
        all_codes = [encoder.encode(v) for v in values] + [
            encoder.infrequent_code
        ]
        for start in range(len(all_codes)):
            line = [
                all_codes[(start + i) % len(all_codes)]
                for i in range(words_per_line)
            ]
            check_codes_roundtrip(encoder, line)
        assert sanitize.counters()["fvc_code_roundtrip"] > 0

    def test_corrupt_code_detected(self):
        encoder = FrequentValueEncoder([0, 1, 2], 2)
        out_of_range = encoder.infrequent_code + 1
        with pytest.raises(SanitizeViolation, match="does not decode"):
            check_codes_roundtrip(encoder, [out_of_range])


class TestMemoryAudit:
    def test_transparent_and_counted(self):
        memory = MainMemory()
        audit = MemoryAudit(memory)
        audit.write_word(0x40, 7)
        assert memory.read_word(0x40) == 7
        assert audit.read_word(0x40) == 7
        audit.write_line(2, [1, 2, 3, 4])
        assert audit.read_line(2, 4) == [1, 2, 3, 4]
        assert audit.words_written == 5
        assert audit.words_read == 5
        assert len(audit) == len(memory)


class TestStatsConservation:
    def test_holds(self):
        stats = CacheStats()
        stats.read_hits = 3
        stats.read_misses = 2
        check_stats_conservation(stats, accesses=5)

    def test_access_count_mismatch(self):
        stats = CacheStats()
        stats.read_hits = 3
        with pytest.raises(SanitizeViolation, match="3 accesses recorded"):
            check_stats_conservation(stats, accesses=4)


class TestBaselineInvariants:
    def test_real_simulation_passes(self, store):
        trace = store.get("compress", "test")
        cache = DirectMappedCache(CacheGeometry(4 * 1024, 32))
        cache.simulate_batch(trace.records)
        check_baseline(cache, len(trace.records))
        assert sanitize.counters()["baseline_conservation"] == 1

    def test_fill_drift_detected(self, store):
        trace = store.get("compress", "test")
        cache = DirectMappedCache(CacheGeometry(4 * 1024, 32))
        cache.simulate_batch(trace.records)
        cache.stats.fills += 1
        with pytest.raises(SanitizeViolation, match="fill conservation"):
            check_baseline(cache, len(trace.records))


class TestFvcSystemInvariants:
    def _system(self, store, **config_kwargs):
        trace = store.get("compress", "test")
        encoder = FrequentValueEncoder([0, 1, 0xFFFFFFFF], 2)
        config = sanitized_fvc_config()
        if config_kwargs:
            import dataclasses

            config = dataclasses.replace(config, **config_kwargs)
        system = FvcSystem(
            CacheGeometry(4 * 1024, 32), 256, encoder, config=config
        )
        return system, trace

    def test_real_simulation_passes(self, store):
        system, trace = self._system(store)
        audit = attach_fvc_system(system)
        system.simulate_batch(trace.records)
        check_fvc_system(system, len(trace.records), audit)
        counts = sanitize.counters()
        assert counts["dmc_fvc_exclusion"] == 1
        assert counts["fvc_occupancy"] == 1
        assert counts["writeback_conservation"] == 1
        assert counts["fvc_code_roundtrip"] > 0

    def test_audit_is_observational(self, store):
        plain, trace = self._system(store)
        plain.simulate_batch(trace.records)
        audited, _ = self._system(store)
        attach_fvc_system(audited)
        audited.simulate_batch(trace.records)
        assert audited.stats.as_dict() == plain.stats.as_dict()
        assert audited.fvc_hits == plain.fvc_hits

    def test_conservation_identities(self, store):
        system, trace = self._system(store)
        audit = attach_fvc_system(system)
        system.simulate_batch(trace.records)
        assert audit.words_read == system.stats.fill_words
        assert audit.words_written == system.stats.writeback_words

    def test_exclusion_violation_detected(self, store):
        system, trace = self._system(store)
        system.simulate_batch(trace.records)
        # Force a double residency: install an FVC entry for a line the
        # main cache already holds.
        resident = system.main_resident_lines()[0]
        codes = system.encoder.encode_line([0] * 8)
        system.fvc.install(resident, codes)
        with pytest.raises(SanitizeViolation, match="exclusion broken"):
            check_fvc_system(system, len(trace.records))

    def test_occupancy_violation_detected(self, store):
        system, trace = self._system(store)
        system.simulate_batch(trace.records)
        assert system.fvc.valid_entries > 0
        system.fvc.frequent_words += 1
        with pytest.raises(SanitizeViolation, match="occupancy broken"):
            check_fvc_system(system, len(trace.records))

    def test_corrupt_installation_detected(self, store):
        system, trace = self._system(store)
        attach_fvc_system(system)
        with pytest.raises(SanitizeViolation, match="round-trip|does not decode"):
            system.fvc.install(0x40, [system.encoder.infrequent_code + 1] * 8)

    def test_wrong_width_installation_detected(self, store):
        system, trace = self._system(store)
        attach_fvc_system(system)
        with pytest.raises(SanitizeViolation, match="codes"):
            system.fvc.install(0x40, [0, 0])

    def test_sanitized_config_only_flips_verify(self):
        from repro.fvc.system import FvcSystemConfig

        base = FvcSystemConfig()
        armed = sanitized_fvc_config()
        assert armed.verify_values and not base.verify_values
        assert armed.exclusive == base.exclusive
        assert (
            armed.occupancy_sample_interval == base.occupancy_sample_interval
        )


class TestRunCellIntegration:
    def test_cells_pass_with_sanitizer_on(self, store, monkeypatch):
        from repro.engine.cells import SimCell, run_cell

        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        for kind in ("baseline", "fvc", "classify"):
            run_cell(
                SimCell(workload="compress", input_name="test", kind=kind),
                store=store,
            )
        counts = sanitize.counters()
        assert counts["baseline_conservation"] == 1
        assert counts["writeback_conservation"] == 1
        assert counts["access_count"] == 1

    def test_cell_results_identical_with_and_without(self, store, monkeypatch):
        from repro.engine.cells import SimCell, run_cell

        cell = SimCell(workload="compress", input_name="test", kind="fvc")
        monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
        plain = run_cell(cell, store=store)
        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        checked = run_cell(cell, store=store)
        assert checked.stats == plain.stats
        assert checked.extras == plain.extras


class TestExperimentHelpers:
    def test_helpers_are_audited(self, store, monkeypatch):
        """The helpers fig15 and the ablation/extension studies call
        directly replay through the same audited path as ``run_cell``."""
        from repro.experiments.common import baseline_stats, fvc_miss_stats

        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        trace = store.get("go", "test")
        geometry = CacheGeometry(4 * 1024, 32)
        baseline_stats(trace, geometry)
        fvc_miss_stats(trace, geometry, 512, top_values=7)
        counts = sanitize.counters()
        for kind in (
            "baseline_conservation",
            "fvc_occupancy",
            "writeback_conservation",
        ):
            assert counts.get(kind) == 1, kind

    @pytest.mark.parametrize(
        "switch",
        (
            {"write_allocate_frequent": True},
            {"exclusive": False},
            {"insert_empty_lines": True},
        ),
        ids=("waf", "inclusive", "insert-empty"),
    )
    def test_flipped_configs_are_audited(self, store, monkeypatch, switch):
        """The ablations' flipped columns replay the audited oracle too,
        every loaded value cross-checked against the trace."""
        from repro.experiments.common import fvc_miss_stats
        from repro.fvc.system import FvcSystemConfig

        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        trace = store.get("vortex", "test")
        fvc_miss_stats(
            trace, CacheGeometry(16 * 1024, 32), 512, top_values=7,
            config=FvcSystemConfig(**switch),
        )
        counts = sanitize.counters()
        for kind in ("fvc_occupancy", "writeback_conservation"):
            assert counts.get(kind) == 1, kind

    def test_victim_helper_is_audited(self, store, monkeypatch):
        """Fig. 15's victim caches replay the oracle under the
        sanitizer, and their statistics are checked for conservation."""
        from repro.experiments.common import victim_replay

        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        trace = store.get("go", "test")
        stats, extras = victim_replay(trace, CacheGeometry(4 * 1024, 32), 4)
        assert sanitize.counters().get("stats_conservation") == 1
        assert stats.hits == extras["dmc_hits"] + extras["vc_hits"]

    def test_violation_names_the_replay(self, store, monkeypatch):
        from repro.experiments import common

        monkeypatch.setenv(sanitize.ENV_VAR, "1")

        def broken(cache, accesses):
            raise SanitizeViolation("fill conservation broken")

        monkeypatch.setattr(common.sanitize, "check_baseline", broken)
        with pytest.raises(SanitizeViolation, match="baseline cell go/test"):
            common.baseline_stats(
                store.get("go", "test"), CacheGeometry(4 * 1024, 32)
            )


@pytest.mark.slow
class TestBitIdentityRegression:
    def test_fig13_parallel_sanitized_equals_sequential_plain(self, store):
        """The acceptance contract: `run fig13 --jobs 2 --sanitize` is
        bit-identical to an unsanitized sequential run."""
        from repro.experiments.registry import run_experiment
        from repro.experiments.render import (
            dumps_canonical,
            experiment_payload,
        )

        plain = run_experiment("fig13", store, fast=True)
        try:
            sanitize.enable()
            checked = run_experiment("fig13", store, fast=True, jobs=2)
        finally:
            sanitize.disable()
        assert dumps_canonical(experiment_payload(checked)) == dumps_canonical(
            experiment_payload(plain)
        )
