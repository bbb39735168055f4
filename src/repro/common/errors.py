"""Exception hierarchy for the reproduction library.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch everything from this package with a single except clause.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An invalid cache, FVC, workload, or experiment configuration.

    Raised eagerly at construction time (e.g. a cache size that is not a
    power of two, an FVC code width outside 1..3 bits) so that simulation
    loops never have to validate per access.
    """


class MemoryError_(ReproError):
    """An invalid access to the simulated word memory.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`MemoryError` (which means the host ran out of RAM, an entirely
    different condition).
    """


class TraceFormatError(ReproError):
    """A trace file or stream is malformed or truncated."""


class IntegrityError(ReproError):
    """A persisted entry failed its integrity check.

    Raised when an on-disk envelope (trace cache entry, result-store
    entry) is truncated, bit-flipped, or otherwise
    does not match its embedded SHA-256 digest.  Callers quarantine the
    entry and regenerate; they never serve the corrupt payload.
    """


class StorageExhausted(ReproError):
    """The control plane cannot durably record new work.

    Raised at journal-append time when the serve state directory is out
    of space (real ``ENOSPC`` or the configured ``--state-quota-bytes``
    budget).  The service maps it to typed degradation — new
    submissions are shed with ``503`` + ``Retry-After`` while reads and
    already-accepted work keep being served — never to a crash.  The
    condition self-heals as soon as an append succeeds again (snapshot
    compaction or freed disk).
    """


class FaultInjected(ReproError):
    """A deterministic fault-injection plan fired at this point.

    Only ever raised when ``REPRO_FAULTS`` (or ``run --faults``) armed
    an injection site — never during normal operation.  Typed so chaos
    tests can assert a *clean* failure rather than silent corruption.
    """


class WorkloadError(ReproError):
    """A synthetic workload was misconfigured or failed internally."""


class SimulatedMachineError(ReproError):
    """The simulated RISC machine (m88ksim analog) hit an illegal state."""
