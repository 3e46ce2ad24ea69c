"""T15 — adaptive telemetry sampling vs burn-rate detection latency.

Quantifies the observability pillar's three-way trade and guards its
contracts:

* telemetry bytes shipped per device — the metrics registry JSONL
  (including the snapshot ring and the latency histogram) and the kept
  trace spans — unsampled vs ``--sample-rate auto``, with the reduction
  ratio gated in CI;
* the fleet p99 latency error that weighted 1-in-k sampling introduces,
  asserted within one DDSketch bucket of the unsampled estimate (the
  unbiasedness contract of the weighted merge);
* decision identity: the sampled fleet's per-device decision fields are
  byte-identical to the unsampled fleet's — sampling drops telemetry,
  never behaviour;
* burn-rate detection latency on a synthetic degrading event stream, at
  snapshot ring cadence 1 and 8 — the simulated hours between a relay
  brown-out starting and the multi-window alarm firing, which is the
  cost side of the bytes saved by a coarser ring.

The headline numbers land in ``extra_info`` and are gated in CI against
``benchmarks/baselines/t15_burnrate_baseline.json`` the same way the
T13/T14 gates work.
"""

from __future__ import annotations

import json
import math

from benchmarks.conftest import write_result
from repro.obs.export import to_jsonl
from repro.obs.fleet import LATENCY_METRIC, run_fleet
from repro.obs.health import SloRule, evaluate_burn_rates
from repro.obs.metrics import MetricsRegistry
from repro.sim.clock import DEFAULT_FREQ_HZ

DEVICES = 4
#: Long enough to amortize the registry's fixed per-metric doc lines —
#: the telemetry floor that no sampler can remove — so the measured
#: reduction reflects the per-utterance stream a deployment actually
#: ships, not the one-time schema overhead.
UTTERANCES = 32

#: Synthetic degradation timeline: one relay event every 2 simulated
#: seconds; a brown-out that fails 7 of every 10 deliveries starts at
#: event 600 (20 simulated minutes in).
EVENT_PERIOD_S = 2.0
ONSET_EVENT = 600
TOTAL_EVENTS = 2400

_BURN_RULE = SloRule(
    name="relay_success",
    metric="fleet.relay.sent",
    op=">=",
    threshold=0.9,
    denominator="fleet.relay.forwarded",
    budget_per_hour=60.0,
)


def _telemetry_bytes(dev) -> int:
    """Bytes this device ships off-box: registry (with snapshot ring and
    latency histogram) and kept trace spans."""
    n = len(to_jsonl(dev.registry).encode())
    n += sum(
        len(json.dumps(doc, sort_keys=True).encode())
        for doc in dev.trace_spans
    )
    return n


def _decision_fields(report) -> str:
    """The per-device decision projection — everything that is behaviour
    rather than telemetry volume."""
    keys = ("device", "utterances", "accuracy", "forwarded", "sent",
            "queued", "relay_attempts", "degraded", "retries")
    rows = [
        {k: d.to_doc()[k] for k in keys} for d in report.devices
    ]
    return json.dumps(rows, sort_keys=True)


def _bucket_index(value: float, gamma: float) -> int:
    """The DDSketch bucket a positive value lands in."""
    return math.ceil(math.log(value) / math.log(gamma))


def _detection_hours(cadence: int) -> tuple[float, int]:
    """Simulated hours from brown-out onset to the burn alarm firing.

    Replays the synthetic event stream into a registry, stamping a
    snapshot every ``cadence`` events, and evaluates the multi-window
    burn rate after each stamp.  Returns (hours-to-detect, ring bytes).
    """
    registry = MetricsRegistry()
    cycle_step = int(EVENT_PERIOD_S * DEFAULT_FREQ_HZ)
    onset_cycle = ONSET_EVENT * cycle_step
    detected_cycle = None
    for i in range(TOTAL_EVENTS):
        registry.inc("fleet.relay.forwarded", 1)
        # Brown-out: 3-in-10 deliveries succeed after onset.
        if i < ONSET_EVENT or i % 10 < 3:
            registry.inc("fleet.relay.sent", 1)
        cycle = (i + 1) * cycle_step
        if (i + 1) % cadence == 0:
            registry.record_snapshot(cycle)
            if detected_cycle is None and cycle > onset_cycle:
                (burn,) = evaluate_burn_rates(
                    registry, [_BURN_RULE], window_hours=0.5,
                    freq_hz=DEFAULT_FREQ_HZ, factor=6.0,
                )
                if burn.firing:
                    detected_cycle = cycle
    assert detected_cycle is not None, \
        f"burn alarm never fired at ring cadence {cadence}"
    ring_bytes = len(
        json.dumps([s.to_doc() for s in registry.snapshots]).encode()
    )
    hours = (detected_cycle - onset_cycle) / DEFAULT_FREQ_HZ / 3600.0
    return hours, ring_bytes


def test_t15_burnrate(benchmark, bundle_cnn):
    # -- telemetry volume: unsampled vs --sample-rate auto ---------------
    kw = dict(devices=DEVICES, seed=7, utterances=UTTERANCES,
              bundle=bundle_cnn, collect_traces=True)
    full = run_fleet(sample_rate=1, **kw)
    auto = run_fleet(sample_rate="auto", **kw)
    full_bytes = sum(_telemetry_bytes(d) for d in full.devices) / DEVICES
    auto_bytes = sum(_telemetry_bytes(d) for d in auto.devices) / DEVICES
    reduction = full_bytes / auto_bytes

    # -- decisions are byte-identical under sampling ---------------------
    assert _decision_fields(full) == _decision_fields(auto), \
        "sampling changed device decisions"

    # -- quantile error stays within one bucket --------------------------
    full_hist = full.merged_registry().histograms()[LATENCY_METRIC]
    auto_hist = auto.merged_registry().histograms()[LATENCY_METRIC]
    p99_full = full_hist.quantile(0.99)
    p99_auto = auto_hist.quantile(0.99)
    bucket_err = abs(
        _bucket_index(p99_full, full_hist.gamma)
        - _bucket_index(p99_auto, auto_hist.gamma)
    )

    # -- burn-rate detection latency vs ring cadence ---------------------
    detect_fine_h, ring_fine_b = _detection_hours(cadence=1)
    detect_coarse_h, ring_coarse_b = _detection_hours(cadence=8)

    rows = [
        f"{'metric':42s} {'value':>14s}",
        f"{'devices x utterances':42s} "
        f"{'{}x{}'.format(DEVICES, UTTERANCES):>14s}",
        f"{'telemetry bytes/device (unsampled)':42s} {full_bytes:>14.0f}",
        f"{'telemetry bytes/device (auto)':42s} {auto_bytes:>14.0f}",
        f"{'bytes reduction (x)':42s} {reduction:>14.1f}",
        f"{'fleet p99 (unsampled, cycles)':42s} {p99_full:>14.3g}",
        f"{'fleet p99 (auto, cycles)':42s} {p99_auto:>14.3g}",
        f"{'p99 bucket error':42s} {bucket_err:>14d}",
        f"{'decisions identical under sampling':42s} {'yes':>14s}",
        f"{'burn detection, ring cadence 1 (sim h)':42s}"
        f" {detect_fine_h:>14.3f}",
        f"{'burn detection, ring cadence 8 (sim h)':42s}"
        f" {detect_coarse_h:>14.3f}",
        f"{'ring bytes, cadence 1':42s} {ring_fine_b:>14d}",
        f"{'ring bytes, cadence 8':42s} {ring_coarse_b:>14d}",
    ]
    write_result("t15_burnrate", "\n".join(rows))
    benchmark.extra_info["bytes_per_device_unsampled"] = full_bytes
    benchmark.extra_info["bytes_per_device_auto"] = auto_bytes
    benchmark.extra_info["bytes_reduction"] = reduction
    benchmark.extra_info["p99_bucket_error"] = bucket_err
    benchmark.extra_info["detect_hours_cadence1"] = detect_fine_h
    benchmark.extra_info["detect_hours_cadence8"] = detect_coarse_h
    benchmark.pedantic(
        lambda: _detection_hours(cadence=8), rounds=1, iterations=1
    )

    # The pillar's acceptance bar: auto sampling must ship >=5x fewer
    # telemetry bytes per device without moving the fleet quantile more
    # than one bucket, and a coarser ring may delay — never lose — the
    # burn alarm.
    assert reduction >= 5.0, \
        f"auto sampling only reduced telemetry {reduction:.1f}x (< 5x)"
    assert bucket_err <= 1, \
        f"sampled p99 moved {bucket_err} buckets from unsampled"
    assert detect_coarse_h >= detect_fine_h, \
        "coarser ring cannot detect earlier than the fine ring"
    assert detect_coarse_h <= 1.0, \
        f"burn alarm took {detect_coarse_h:.2f} simulated hours (> 1.0)"
