"""``REPRO_BACKEND`` resolution and the dispatch gates.

The pure-Python functional tests run with numpy *blocked* (the module
made unimportable for the duration), proving the toolchain stands alone
without the optional ``fast`` extra — the same configuration the CI
test matrix exercises, where numpy is never installed.
"""

from __future__ import annotations

import sys

import pytest

from repro.analysis import sanitize
from repro.cache.geometry import CacheGeometry
from repro.common.errors import ConfigurationError
from repro.kernels import backend, dispatch
from repro.trace.trace import Trace


@pytest.fixture
def no_numpy(monkeypatch):
    """A process in which ``import numpy`` raises ImportError."""
    monkeypatch.setitem(sys.modules, "numpy", None)
    monkeypatch.setattr(backend, "_numpy_probe", None)


@pytest.fixture
def _clean_env(monkeypatch):
    monkeypatch.delenv(backend.ENV_VAR, raising=False)
    monkeypatch.delenv(sanitize.ENV_VAR, raising=False)


class TestResolution:
    def test_auto_is_the_default(self, _clean_env):
        expected = "numpy" if backend.numpy_available() else "python"
        assert backend.resolve_backend() == expected
        assert backend.active_backend() == expected

    def test_explicit_python_always_works(self):
        assert backend.resolve_backend("python") == "python"

    def test_case_and_whitespace_are_forgiven(self):
        assert backend.resolve_backend(" PYTHON ") == "python"

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            backend.resolve_backend("cython")

    def test_auto_without_numpy_is_python(self, no_numpy):
        assert not backend.numpy_available()
        assert backend.resolve_backend("auto") == "python"

    def test_numpy_without_numpy_is_an_error(self, no_numpy):
        # A requested backend must never silently fall back.
        with pytest.raises(ConfigurationError):
            backend.resolve_backend("numpy")

    def test_env_var_is_read_per_call(self, monkeypatch):
        monkeypatch.setenv(backend.ENV_VAR, "python")
        assert backend.active_backend() == "python"
        assert not backend.backend_is_numpy()
        monkeypatch.setenv(backend.ENV_VAR, "no-such-backend")
        with pytest.raises(ConfigurationError):
            backend.active_backend()


class TestDispatchGates:
    def test_python_backend_disables_kernels(self, _clean_env, monkeypatch):
        monkeypatch.setenv(backend.ENV_VAR, "python")
        assert not dispatch.kernels_active()

    def test_sanitizer_disables_kernels(self, _clean_env, monkeypatch):
        monkeypatch.setenv(sanitize.ENV_VAR, "1")
        assert not dispatch.kernels_active()

    @pytest.mark.skipif(
        not backend.numpy_available(), reason="vectorized backend needs numpy"
    )
    def test_numpy_backend_enables_kernels(self, _clean_env, monkeypatch):
        monkeypatch.setenv(backend.ENV_VAR, "numpy")
        assert dispatch.kernels_active()

    def test_try_helpers_decline_when_gated(self, _clean_env, monkeypatch):
        monkeypatch.setenv(backend.ENV_VAR, "python")
        trace = Trace([(0, 16, 1)], workload="syn")
        geometry = CacheGeometry(4096, 16)
        assert dispatch.try_baseline_stats(trace, geometry) is None
        assert dispatch.try_classify(trace, geometry) is None
        assert dispatch.try_victim_replay(trace, geometry, 4) is None
        assert dispatch.try_hierarchy_replay(object(), trace) is False


class TestPurePythonFunctional:
    """The toolchain must be whole without numpy installed."""

    def test_cells_run_without_numpy(self, no_numpy, _clean_env, store):
        from repro.engine.cells import SimCell, run_cell

        assert backend.active_backend() == "python"
        trace = store.get("go", "test")
        baseline = SimCell(
            workload="go", input_name="test", kind="baseline",
            size_bytes=4 * 1024,
        )
        fvc = SimCell(
            workload="go", input_name="test", kind="fvc",
            size_bytes=4 * 1024, fvc_entries=128, top_values=3,
        )
        results = [run_cell(baseline, store), run_cell(fvc, store)]
        for result in results:
            assert result.stats["accesses"] == len(trace)
        assert results[1].extras["fvc_hits"] >= 0

    def test_columnar_io_round_trips_without_numpy(self, no_numpy, tmp_path):
        from repro.trace.io import read_trace, write_trace

        trace = Trace(
            [(0, 16, 1), (1, 0xFFFFFFF0, 0xFFFFFFFF), (0, 32, 7)],
            workload="syn",
            input_name="test",
        )
        path = tmp_path / "t.trcb"
        write_trace(trace, path)
        assert read_trace(path) == trace
