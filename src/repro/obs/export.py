"""Registry exporters: OpenMetrics / Prometheus text, timelines.

The fleet tier needs metrics to leave the process: the OpenMetrics text
format (``repro fleet --metrics-out``) feeds any Prometheus-compatible
scraper or pushgateway.  Full-fidelity registry state (every histogram's
bucket state) is :meth:`~repro.obs.metrics.MetricsRegistry.to_doc`.

Metric names are sanitized to the Prometheus grammar (dots become
underscores); :class:`~repro.obs.metrics.BucketHistogram` metrics export
as native Prometheus histograms with cumulative ``le`` buckets at the
log-spaced bucket upper bounds.

Trace correlation exporters: a fleet run that collected trace-stamped
spans (``run_fleet(collect_traces=True)``) exports a fleet-wide
correlated timeline — :func:`fleet_trace_jsonl` (one span per line, each
carrying its ``device`` and ``trace_id``) and :func:`fleet_chrome_trace`
(Chrome ``trace_event`` JSON with one track per device), so one utterance
can be followed through its stages; its ``relay`` span's ``dialog_id``
joins it to the cloud's record of the same ``(device, dialog)`` pair.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.fleet import FleetReport

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_name(name: str) -> str:
    """Map a dotted metric name onto the Prometheus name grammar."""
    out = _NAME_OK.sub("_", name)
    if not out or out[0].isdigit():
        out = "_" + out
    return out


def _format_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def to_openmetrics(registry: MetricsRegistry) -> str:
    """The registry in OpenMetrics / Prometheus text exposition format.

    Every metric is named ``repro_<sanitized name>``; the only label is
    a histogram bucket's numeric ``le`` bound, which needs no escaping.
    The output ends with ``# EOF`` per the OpenMetrics spec.
    """
    lines: list[str] = []
    for name, value in registry.counters().items():
        metric = f"repro_{sanitize_name(name)}"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}_total {_format_value(float(value))}")
    for name, value in registry.gauges().items():
        metric = f"repro_{sanitize_name(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(float(value))}")
    for name, hist in registry.histograms().items():
        metric = f"repro_{sanitize_name(name)}"
        lines.append(f"# TYPE {metric} histogram")
        cum = hist._zero
        if hist._zero:
            lines.append(f'{metric}_bucket{{le="0"}} {cum}')
        for idx in sorted(hist._buckets):
            cum += hist._buckets[idx]
            bound = hist.gamma ** idx
            lines.append(f'{metric}_bucket{{le="{bound!r}"}} {cum}')
        lines.append(f'{metric}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{metric}_sum {_format_value(float(hist.total))}")
        lines.append(f"{metric}_count {hist.count}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def fleet_trace_jsonl(report: "FleetReport") -> str:
    """Fleet-wide correlated timeline: one span document per line.

    Each line is a span doc (from :meth:`Span.to_doc`) extended with the
    owning ``device`` id, so a reader can follow a single ``trace_id``
    through its stages, and from its ``relay`` span's ``dialog_id`` to
    the cloud record and any drained re-send of it.  Requires the fleet
    to have been run with ``collect_traces=True``; devices that collected
    no trace spans contribute nothing.
    """
    lines = []
    for dev in report.devices:
        for doc in dev.trace_spans:
            lines.append(json.dumps({"device": dev.spec.device_id, **doc},
                                    sort_keys=True))
    return "\n".join(lines)


def fleet_chrome_trace(report: "FleetReport") -> str:
    """Chrome ``trace_event`` JSON for the fleet: one track per device.

    Timestamps convert device cycles to microseconds at the fleet clock
    rate; ``pid`` is the fleet, ``tid`` indexes the device roster so
    ``chrome://tracing`` / Perfetto renders one horizontal track per
    device with the trace id attached to each slice's args.
    """
    scale = 1e6 / float(report.freq_hz)
    events: list[dict[str, Any]] = []
    for tid, dev in enumerate(report.devices, start=1):
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tid,
            "args": {"name": dev.spec.device_id},
        })
        for doc in dev.trace_spans:
            events.append({
                "name": doc["name"],
                "cat": doc.get("category", "span"),
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": doc["start"] * scale,
                "dur": max(doc["end"] - doc["start"], 0) * scale,
                "args": dict(doc.get("attrs", {})),
            })
    return json.dumps({"traceEvents": events, "displayTimeUnit": "ms"},
                      sort_keys=True)
