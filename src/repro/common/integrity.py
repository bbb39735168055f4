"""Integrity-checked envelopes and crash-safe file publication.

Every durable entry the reproduction persists — trace-cache traces,
result-store payloads (``run --checkpoint`` cells among them) — is
wrapped in a small self-describing envelope::

    FVCE1\\n
    <sha256-hex> <payload-length>\\n
    <payload bytes>

so a reader can prove, before parsing a single payload byte, that the
entry on disk is exactly the entry that was written.  Truncation (a
crash mid-write that escaped the atomic-rename discipline), bit rot,
and manual tampering all surface as :class:`IntegrityError` — never as
silently-wrong simulation results.  This is the write/read discipline
persistent key-value caches apply to flash entries (cf. Flashield),
applied to the repo's on-disk stores.

Writes go through :func:`write_enveloped`: private temp file, flush +
``fsync``, atomic ``os.replace``, directory ``fsync`` — so a power
loss can publish either the old entry or the new one, never a partial
one.  Both helpers thread a named fault-injection site
(:mod:`repro.faults.sites`) through the payload path, which is how the
chaos suite provokes exactly the failures this module defends against.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Optional, Union

from repro.common.errors import IntegrityError

PathLike = Union[str, "os.PathLike[str]"]

#: Envelope magic; bump the digit on any layout change.
MAGIC = b"FVCE1\n"

#: Quarantined entries get this appended to their file name.
CORRUPT_SUFFIX = ".corrupt"


def wrap(payload: bytes) -> bytes:
    """``payload`` wrapped in a checksummed envelope."""
    digest = hashlib.sha256(payload).hexdigest()
    header = f"{digest} {len(payload)}\n".encode("ascii")
    return MAGIC + header + payload


def is_enveloped(blob: bytes) -> bool:
    """Whether ``blob`` starts like an envelope (no verification)."""
    return blob.startswith(MAGIC)


def unwrap(blob: bytes, source: str = "envelope") -> bytes:
    """Verify and strip the envelope; raises :class:`IntegrityError`
    on bad magic, truncation, length mismatch, or digest mismatch."""
    if not blob.startswith(MAGIC):
        raise IntegrityError(f"{source}: not an integrity envelope")
    end = blob.find(b"\n", len(MAGIC))
    if end < 0:
        raise IntegrityError(f"{source}: truncated envelope header")
    try:
        digest_hex, length_text = blob[len(MAGIC):end].decode("ascii").split(" ")
        declared = int(length_text)
    except (UnicodeDecodeError, ValueError):
        raise IntegrityError(f"{source}: malformed envelope header") from None
    payload = blob[end + 1:]
    if len(payload) != declared:
        raise IntegrityError(
            f"{source}: payload is {len(payload)} bytes, envelope "
            f"declares {declared}"
        )
    actual = hashlib.sha256(payload).hexdigest()
    if actual != digest_hex:
        raise IntegrityError(
            f"{source}: checksum mismatch (entry is corrupt: "
            f"{actual[:12]} != {digest_hex[:12]})"
        )
    return payload


def _fsync_directory(directory: Path) -> None:
    # Persist the rename itself where the platform allows it; failure
    # here only weakens the power-loss guarantee, never correctness.
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_enveloped(
    path: PathLike,
    payload: bytes,
    site: Optional[str] = None,
    fsync: bool = True,
) -> Path:
    """Atomically publish ``payload`` (enveloped) at ``path``.

    Discipline: mkstemp in the destination directory, write, flush,
    ``fsync`` the file, consult the ``<site>.publish`` fault point,
    ``os.replace``, ``fsync`` the directory.  ``site`` names the
    fault-injection site for the write (``None`` = maintenance path,
    no injection).
    """
    path = Path(path)
    blob = wrap(payload)
    if site is not None:
        from repro.faults.sites import fault_point

        injected = fault_point(site, data=blob)
        blob = blob if injected is None else injected
    fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(blob)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        if site is not None:
            from repro.faults.sites import fault_point

            fault_point(site + ".publish")
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if fsync:
        _fsync_directory(path.parent)
    return path


def read_enveloped(path: PathLike, site: Optional[str] = None) -> bytes:
    """Read, verify and unwrap one enveloped file.

    Raises :class:`OSError` when the file cannot be read and
    :class:`IntegrityError` when its envelope does not verify.
    ``site`` names the fault-injection site for the read.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        blob = handle.read()
    if site is not None:
        from repro.faults.sites import fault_point

        injected = fault_point(site, data=blob)
        blob = blob if injected is None else injected
    return unwrap(blob, source=str(path))


def quarantine(path: PathLike) -> Optional[Path]:
    """Move a corrupt entry aside as ``<name>.corrupt`` for post-mortem
    inspection (replacing any earlier quarantine of the same entry).

    Returns the quarantine path, or ``None`` when the entry could only
    be unlinked (or had already vanished).  Either way the original
    path no longer resolves, so readers regenerate instead of
    re-parsing the same corrupt bytes forever.
    """
    path = Path(path)
    target = path.with_name(path.name + CORRUPT_SUFFIX)
    try:
        os.replace(path, target)
        return target
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass
        return None
