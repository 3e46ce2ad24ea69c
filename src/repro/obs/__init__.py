"""Observability: spans, metrics and profiling for the simulated platform.

* :mod:`repro.obs.span` — the simulator's one event model: enter/exit
  spans with cycle, per-domain, world-switch and energy attribution, and
  events as zero-length spans (``tracer.emit``); JSONL and Chrome
  ``trace_event`` export.
* :mod:`repro.obs.metrics` — counters, gauges and mergeable bucketed
  histograms (exact p50/p95/p99 under their sample cap).
* :mod:`repro.obs.context` — the per-machine bundle (``machine.obs``).
* :mod:`repro.obs.profile` — per-stage secure-vs-baseline cost profiles
  backing ``repro profile`` and the T10 benchmark.
* :mod:`repro.obs.export` — OpenMetrics / Prometheus-text and JSONL
  registry exporters.
* :mod:`repro.obs.fleet` — N simulated devices merged into one fleet
  report (``repro fleet``, T11).
* :mod:`repro.obs.health` — declarative SLO rules, a span-heartbeat
  watchdog and the violation-triggered flight recorder
  (``repro health``).

The layer is strictly read-only with respect to the simulation: it never
charges cycles or consumes randomness, so enabling or disabling it leaves
every pipeline decision byte-identical.
"""

from repro.obs.context import Observability
from repro.obs.health import FlightRecorder, HealthMonitor, SloRule
from repro.obs.metrics import (
    BucketHistogram,
    Counter,
    Gauge,
    MetricsRegistry,
)
from repro.obs.span import Span, SpanTracer

__all__ = [
    "BucketHistogram",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "HealthMonitor",
    "MetricsRegistry",
    "Observability",
    "SloRule",
    "Span",
    "SpanTracer",
]
