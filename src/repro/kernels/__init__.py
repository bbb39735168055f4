"""Vectorized simulation kernels behind the ``REPRO_BACKEND`` switch.

The pure-Python simulators in :mod:`repro.cache` and :mod:`repro.fvc`
are the *oracle*: they define the semantics, record by record.  This
package provides numpy-vectorized kernels for the hot models — the
direct-mapped baseline, the set-associative baseline, the DMC+FVC
system (with Fig. 11's occupancy samples), the DMC with a victim
buffer, the two-level hierarchy's L1 filter, and the 3C miss
classification of a direct-mapped cache — that produce
**byte-identical statistics** to the oracle while replaying traces as
columnar array operations instead of per-record tuple dispatch.

Backend selection (:mod:`repro.kernels.backend`):

* ``REPRO_BACKEND=python`` — always the oracle;
* ``REPRO_BACKEND=numpy`` — kernels where supported (error if numpy is
  not importable);
* ``REPRO_BACKEND=auto`` / unset — kernels when numpy is importable,
  oracle otherwise.

Kernels never change results: every kernel either reproduces the
oracle's counters exactly for the configuration it supports, or
declines (returns ``None``) and the caller replays the oracle.  The
dual-run regression suite (``tests/kernels/``) holds that contract for
every experiment payload; ``docs/PERFORMANCE.md`` documents it.
"""

from __future__ import annotations

from repro.kernels.backend import (
    active_backend,
    backend_is_numpy,
    numpy_available,
    numpy_or_none,
    resolve_backend,
)

__all__ = [
    "active_backend",
    "backend_is_numpy",
    "numpy_available",
    "numpy_or_none",
    "resolve_backend",
]
