"""Observability layer: work counters, timers, and metrics plumbing.

Public surface:

* :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges,
  histograms, and accumulating timers behind get-or-create accessors.
* :func:`~repro.obs.registry.metrics` /
  :func:`~repro.obs.registry.set_registry` /
  :func:`~repro.obs.registry.use_registry` — the process-wide active
  registry (a no-op :data:`~repro.obs.registry.NULL_REGISTRY` unless a
  real one is installed).
* :class:`~repro.obs.timers.Timer` — the wall-clock context manager.

See ``docs/observability.md`` for the instrumented metric names, the
JSON schema, and how the CI benchmark-regression gate consumes it.
"""

from repro.obs.registry import (
    NULL_REGISTRY,
    SCHEMA_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    metrics,
    set_registry,
    use_registry,
)
from repro.obs.timers import NULL_TIMER, NullTimer, Timer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NULL_REGISTRY",
    "NULL_TIMER",
    "NullTimer",
    "SCHEMA_VERSION",
    "Timer",
    "metrics",
    "set_registry",
    "use_registry",
]
