"""Injection sites: the catalog, the active plan, and how each fault
action lands at a :func:`repro.faults.sites.fault_point`."""

import pickle

import pytest

from repro.common.errors import FaultInjected
from repro.faults import install, reset
from repro.faults.plan import FaultPlan
from repro.faults.sites import (
    SITE_CATALOG,
    InjectedIOError,
    apply_child_fault,
    decide_child_fault,
    fault_point,
)


@pytest.fixture(autouse=True)
def _clean_plan():
    reset()
    yield
    reset()


class TestCatalog:
    def test_data_sites_carry_data(self):
        data_sites = {
            name for name, site in SITE_CATALOG.items() if site.carries_data
        }
        assert data_sites == {
            "trace_cache.read",
            "trace_cache.write",
            "result_store.read",
            "result_store.write",
            "journal.append",
            "journal.snapshot",
            "journal.replay",
        }

    def test_every_site_documented(self):
        for site in SITE_CATALOG.values():
            assert site.description


class TestFaultPoint:
    def test_no_plan_is_a_no_op(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        payload = b"payload"
        assert fault_point("engine.cell") is None
        assert fault_point("trace_cache.read", data=payload) == payload

    def test_io_error_is_an_oserror(self):
        install(FaultPlan.parse("engine.cell:io_error@1"))
        with pytest.raises(InjectedIOError) as excinfo:
            fault_point("engine.cell")
        assert isinstance(excinfo.value, OSError)
        assert "engine.cell" in str(excinfo.value)
        fault_point("engine.cell")  # the @1 clause is spent

    def test_raise_is_typed(self):
        install(FaultPlan.parse("engine.cell:raise@1"))
        with pytest.raises(FaultInjected):
            fault_point("engine.cell")

    def test_truncate_halves_payload(self):
        install(FaultPlan.parse("trace_cache.read:truncate@1"))
        assert fault_point("trace_cache.read", data=b"12345678") == b"1234"

    def test_bitflip_flips_exactly_one_bit_deterministically(self):
        def flip():
            reset()
            install(FaultPlan.parse("trace_cache.read:bitflip@1;seed=3"))
            return fault_point("trace_cache.read", data=b"\x00" * 32)

        first, second = flip(), flip()
        assert first == second
        assert first != b"\x00" * 32
        assert sum(bin(byte).count("1") for byte in first) == 1

    def test_delay_passes_data_through(self):
        install(FaultPlan.parse("trace_cache.read:delay(0.001)@1"))
        assert fault_point("trace_cache.read", data=b"x") == b"x"

    def test_env_plan_resolves_lazily(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "engine.cell:raise@1")
        reset()  # as a fresh (child) process would start
        with pytest.raises(FaultInjected):
            fault_point("engine.cell")


class TestChildFaults:
    def test_decision_is_picklable(self):
        install(FaultPlan.parse("worker.child:raise@1"))
        decision = decide_child_fault()
        assert decision is not None
        clause, ordinal = pickle.loads(pickle.dumps(decision))
        assert clause.action == "raise" and ordinal == 1
        # The parent's counter advanced: the @1 clause is spent, so the
        # retry attempt runs clean.
        assert decide_child_fault() is None

    def test_no_plan_decides_nothing(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert decide_child_fault() is None

    def test_apply_none_is_a_noop(self):
        apply_child_fault(None)

    def test_apply_raises_in_the_child(self):
        install(FaultPlan.parse("worker.child:io_error@1"))
        with pytest.raises(InjectedIOError):
            apply_child_fault(decide_child_fault())
