"""Integrity envelopes, crash-safe publication, and quarantine."""

import pytest

from repro.common.errors import IntegrityError
from repro.common.integrity import (
    CORRUPT_SUFFIX,
    MAGIC,
    is_enveloped,
    quarantine,
    read_enveloped,
    unwrap,
    wrap,
    write_enveloped,
)
from repro.faults import install, reset
from repro.faults.plan import FaultPlan
from repro.faults.sites import InjectedIOError


@pytest.fixture(autouse=True)
def _clean_plan():
    reset()
    yield
    reset()


class TestEnvelope:
    @pytest.mark.parametrize(
        "payload", [b"", b"x", b"payload " * 1000, bytes(range(256))]
    )
    def test_round_trip(self, payload):
        blob = wrap(payload)
        assert is_enveloped(blob)
        assert unwrap(blob) == payload

    def test_not_an_envelope(self):
        with pytest.raises(IntegrityError, match="not an integrity envelope"):
            unwrap(b"random bytes")

    def test_truncated_header(self):
        with pytest.raises(IntegrityError, match="truncated"):
            unwrap(MAGIC + b"abcdef")

    def test_malformed_header(self):
        with pytest.raises(IntegrityError, match="malformed"):
            unwrap(MAGIC + b"nodigest\npayload")

    def test_truncated_payload(self):
        blob = wrap(b"full payload")
        with pytest.raises(IntegrityError, match="declares"):
            unwrap(blob[:-3])

    def test_single_flipped_bit_detected(self):
        blob = bytearray(wrap(b"sensitive payload"))
        blob[-1] ^= 0x40
        with pytest.raises(IntegrityError, match="checksum mismatch"):
            unwrap(bytes(blob))


class TestWriteRead:
    def test_round_trip_and_no_temp_debris(self, tmp_path):
        path = tmp_path / "entry.bin"
        assert write_enveloped(path, b"data") == path
        assert read_enveloped(path) == b"data"
        assert list(tmp_path.glob("*.tmp")) == []

    def test_overwrite_replaces_whole_entry(self, tmp_path):
        path = tmp_path / "entry.bin"
        write_enveloped(path, b"first")
        write_enveloped(path, b"second")
        assert read_enveloped(path) == b"second"

    def test_fsync_optional(self, tmp_path):
        path = tmp_path / "entry.bin"
        write_enveloped(path, b"data", fsync=False)
        assert read_enveloped(path) == b"data"

    def test_injected_publish_fault_leaves_no_partial_entry(self, tmp_path):
        install(FaultPlan.parse("result_store.write.publish:io_error@1"))
        path = tmp_path / "entry.bin"
        with pytest.raises(InjectedIOError):
            write_enveloped(path, b"data", site="result_store.write")
        assert not path.exists()
        assert list(tmp_path.glob("*.tmp")) == []
        # A retry publishes cleanly: the clause was spent on call #1.
        write_enveloped(path, b"data", site="result_store.write")
        assert read_enveloped(path) == b"data"

    def test_trace_cache_publish_fault_leaves_no_partial_entry(self, tmp_path):
        # Same crash-safety contract at the trace cache's site: a fault
        # between temp write and rename publishes nothing and leaves no
        # droppings.
        install(FaultPlan.parse("trace_cache.write.publish:io_error@1"))
        path = tmp_path / "entry.trcbe"
        with pytest.raises(InjectedIOError):
            write_enveloped(path, b"entry payload", site="trace_cache.write")
        assert not path.exists()
        assert list(tmp_path.glob("*.tmp")) == []
        write_enveloped(path, b"entry payload", site="trace_cache.write")
        assert read_enveloped(path) == b"entry payload"

    def test_injected_bitflip_is_detected_on_read(self, tmp_path):
        install(FaultPlan.parse("result_store.write:bitflip@1"))
        path = tmp_path / "entry.json"
        write_enveloped(path, b"entry payload", site="result_store.write")
        with pytest.raises(IntegrityError):
            read_enveloped(path)

    def test_injected_truncate_is_detected_on_read(self, tmp_path):
        install(FaultPlan.parse("result_store.write:truncate@1"))
        path = tmp_path / "entry.json"
        write_enveloped(path, b"entry payload", site="result_store.write")
        with pytest.raises(IntegrityError):
            read_enveloped(path)

    def test_injected_read_fault_then_clean_retry(self, tmp_path):
        path = tmp_path / "entry.bin"
        write_enveloped(path, b"data")
        install(FaultPlan.parse("result_store.read:io_error@1"))
        with pytest.raises(InjectedIOError):
            read_enveloped(path, site="result_store.read")
        assert read_enveloped(path, site="result_store.read") == b"data"


class TestQuarantine:
    def test_moves_entry_aside(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"junk")
        target = quarantine(path)
        assert target == tmp_path / ("bad.bin" + CORRUPT_SUFFIX)
        assert not path.exists()
        assert target.read_bytes() == b"junk"

    def test_missing_entry_is_tolerated(self, tmp_path):
        assert quarantine(tmp_path / "gone") is None

    def test_requarantine_replaces_older_capture(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"old")
        quarantine(path)
        path.write_bytes(b"new")
        target = quarantine(path)
        assert target.read_bytes() == b"new"
