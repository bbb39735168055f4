"""Tests for trace summary statistics."""

import pytest

from repro.analysis import sanitize
from repro.kernels import backend
from repro.profiling.access import profile_accessed_values
from repro.trace.stats import compute_stats
from repro.trace.trace import Trace
from repro.workloads.registry import workload_names

_BACKENDS = ["python"] + (["numpy"] if backend.numpy_available() else [])


def _trace() -> Trace:
    # value 7 accessed 3 times, value 1 twice, value 9 once.
    return Trace(
        [
            (0, 0x10, 7),
            (1, 0x14, 7),
            (0, 0x18, 7),
            (0, 0x10, 1),
            (1, 0x20, 1),
            (0, 0x24, 9),
        ]
    )


class TestComputeStats:
    def test_counts(self):
        stats = compute_stats(_trace())
        assert stats.accesses == 6
        assert stats.loads == 4
        assert stats.stores == 2
        assert stats.footprint_words == 5
        assert stats.footprint_bytes == 20
        assert stats.distinct_values == 3

    def test_top_values_ranked(self):
        stats = compute_stats(_trace())
        assert stats.top_values[0] == (7, 3)
        assert stats.top_values[1] == (1, 2)

    def test_coverage(self):
        stats = compute_stats(_trace())
        assert stats.top_value_access_fraction(1) == 3 / 6
        assert stats.top_value_access_fraction(2) == 5 / 6

    def test_load_fraction(self):
        assert compute_stats(_trace()).load_fraction == 4 / 6

    def test_empty_trace(self):
        stats = compute_stats(Trace())
        assert stats.accesses == 0
        assert stats.top_value_access_fraction(5) == 0.0
        assert stats.load_fraction == 0.0

    def test_format_is_readable(self):
        text = compute_stats(_trace()).format()
        assert "accesses" in text
        assert "top accessed values" in text

    @pytest.mark.parametrize("backend_name", _BACKENDS)
    def test_ties_rank_by_value(self, backend_name, monkeypatch):
        # 9 is accessed first, but 9 and 2 tie at two accesses each.
        monkeypatch.setenv(backend.ENV_VAR, backend_name)
        monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
        trace = Trace([(0, 0, 9), (0, 4, 9), (0, 8, 2), (0, 12, 2), (0, 4, 5)])
        assert compute_stats(trace).top_values == ((2, 2), (9, 2), (5, 1))


class TestTopValuesAreTheStudiesRanking:
    @pytest.mark.slow
    @pytest.mark.parametrize("backend_name", _BACKENDS)
    @pytest.mark.parametrize("name", workload_names())
    def test_top_ten_equals_the_access_profile(
        self, name, backend_name, store, monkeypatch
    ):
        monkeypatch.setenv(backend.ENV_VAR, backend_name)
        monkeypatch.delenv(sanitize.ENV_VAR, raising=False)
        trace = store.get(name, "test")
        assert compute_stats(trace).top_values == (
            profile_accessed_values(trace).ranked[:10]
        )
