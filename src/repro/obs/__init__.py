"""``repro.obs`` — the zero-dependency observability layer.

Three pillars, all observational (they watch the system; they never
feed results, result keys, or any persisted payload):

* **metrics** (:mod:`repro.obs.metrics`) — a typed registry of
  counters, gauges and fixed-bucket histograms with two expositions:
  the versioned ``metrics/v1`` JSON payload and Prometheus-style text;
* **tracing** (:mod:`repro.obs.tracing`) — deterministic, parent-linked
  spans around engine cells, trace-cache lookups, checkpoint loads,
  worker job attempts and served requests, dumped as canonical JSONL
  (``run --trace-out`` / ``REPRO_OBS_TRACE``);
* **profiling** (:mod:`repro.obs.profiling`) — per-cell reference
  throughput and flamegraph-compatible collapsed stacks
  (``repro-fvc profile-run``).

Enablement mirrors the sanitizer (:mod:`repro.analysis.sanitize`):
``REPRO_OBS=1`` (or :func:`enable`) arms metric recording on the hot
engine paths; ``REPRO_OBS_TRACE=<file>`` independently arms span
collection.  Both travel through the environment so pool workers and
service children inherit them.  With both off — the default for bare
library use — every experiment output and result-store key is
byte-identical to an observability-free build; a regression test
enforces exactly that.
"""

from __future__ import annotations

import os

from repro.obs.metrics import (
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    metrics_payload,
    prometheus_text,
)
from repro.obs.names import METRIC_NAMES, is_metric_name
from repro.obs.tracing import SPAN_SCHEMA, Tracer, event, span

#: Environment flag arming metric recording (``1``/``true``/``yes``/``on``).
ENV_VAR = "REPRO_OBS"

_TRUE_VALUES = ("1", "true", "yes", "on")

#: The process-global registry the engine records into.
_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global metrics registry."""
    return _registry


def enabled() -> bool:
    """Whether metric recording is armed in this process."""
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUE_VALUES


def enable() -> None:
    """Arm metric recording for this process and every child it spawns
    (worker pools inherit the environment)."""
    os.environ[ENV_VAR] = "1"


def disable() -> None:
    """Disarm metric recording for this process."""
    os.environ.pop(ENV_VAR, None)


__all__ = [
    "METRICS_SCHEMA",
    "METRIC_NAMES",
    "SPAN_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "event",
    "is_metric_name",
    "metrics_payload",
    "prometheus_text",
    "registry",
    "span",
]
