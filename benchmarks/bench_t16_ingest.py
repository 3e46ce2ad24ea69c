"""T16 — max sustained cloud ingest under multi-tenant backpressure.

Drives one sharded :class:`VoiceCloudService` (admission tier enabled)
directly through its plaintext endpoint with a hand-advanced simulation
clock — no device pipelines, so the numbers isolate the ingestion tier
itself.  A fixed tenant population offers load at a sweep of per-tenant
rates, from comfortably under capacity to 8x over it, and each level
reports:

* **accepted records/sec** (simulated time) — the sustained ingest rate
  the tier actually admits at that offered load;
* **shed rate** — Throttled verdicts per offered record, the
  backpressure signal devices turn into sealed-queue spills;
* **p99 admission latency** (modelled cycles) — from the
  ``cloud.ingest.admission_cycles`` histogram the admission SLO reads.

The headline gate values: the best sustained rate across the sweep (the
capacity knee, normally set by the drain loop, not the token buckets),
the shed rate at the most overloaded level (proving the tier defends
itself instead of queueing without bound), and the p99 admission budget
at the knee.  Every level also re-proves exactly-once: accepted +
throttled + deduped == offered, and committed dialog ids are unique.
"""

from __future__ import annotations

import json
import time

from benchmarks.conftest import RESULTS_DIR, write_result
from repro.cloud.service import IngestionConfig, VoiceCloudService
from repro.obs.metrics import MetricsRegistry
from repro.relay.avs import AvsEvent
from repro.sim.clock import CycleDomain, SimClock
from repro.sim.rng import SimRng

TENANTS = 32
TICKS = 80          # rounds per level; every tenant offers one record/round
WARMUP_TICKS = 16   # initial bucket burst excluded from rate accounting
FREQ_HZ = 2e9       # the sim clock the cycle numbers are quoted against

#: Per-tenant inter-arrival cycles, generous -> starved.  The stock
#: config refills one token per 2e6 cycles and commits one record per
#: 500e3 cycles per shard, so the knee sits where the drain loop
#: saturates, well before the token buckets do.
LEVELS = (8_000_000, 4_000_000, 2_000_000, 1_000_000, 500_000, 250_000)


def _run_level(inter_arrival_cycles: int) -> dict:
    clock = SimClock()
    metrics = MetricsRegistry()
    service = VoiceCloudService(
        SimRng(16, "cloud"), clock=clock, metrics=metrics,
        ingestion=IngestionConfig(),
    )
    endpoint = service.plaintext_endpoint
    dialog = 0
    offered = accepted_at_warmup = throttled_at_warmup = 0
    for tick in range(TICKS):
        if tick == WARMUP_TICKS:
            accepted_at_warmup = service.accepted
            throttled_at_warmup = service.throttled
        clock.advance(inter_arrival_cycles, CycleDomain.IDLE)
        for tenant in range(TENANTS):
            dialog += 1
            event = AvsEvent.recognize(
                f"record {dialog}", dialog, device_id=f"tenant-{tenant:03d}"
            )
            endpoint.receive(event.to_bytes())
            offered += 1

    service.flush()
    # Exactly-once bookkeeping must hold at every load level.
    assert service.accepted + service.throttled == offered
    assert service.committed == service.accepted
    keys = {(r.device_id, r.dialog_id) for r in service.received}
    assert len(keys) == len(service.received)

    measured = offered - WARMUP_TICKS * TENANTS
    window_cycles = (TICKS - WARMUP_TICKS) * inter_arrival_cycles
    accepted = service.accepted - accepted_at_warmup
    throttled = service.throttled - throttled_at_warmup
    hist = metrics.histogram("cloud.ingest.admission_cycles")
    return {
        "inter_arrival_cycles": inter_arrival_cycles,
        "offered_per_sec": measured * FREQ_HZ / (window_cycles * 1.0),
        "accepted_per_sec": accepted * FREQ_HZ / (window_cycles * 1.0),
        "shed_rate": throttled / measured,
        "admission_p99_cycles": hist.quantile(0.99),
        "events": offered,
    }


def test_t16_max_sustained_ingest(benchmark):
    t0 = time.perf_counter()
    rows = benchmark.pedantic(
        lambda: [_run_level(level) for level in LEVELS],
        rounds=1, iterations=1,
    )
    wall_s = time.perf_counter() - t0
    total_events = sum(r["events"] for r in rows)

    # "Sustained" means admitted without backpressure: overloaded levels
    # post higher transient accept rates while the bounded tenant queues
    # fill, but those are not rates the tier can hold.
    sustained = [r for r in rows if r["shed_rate"] <= 0.01]
    assert sustained, "no load level was sustainable"
    knee = max(sustained, key=lambda r: r["accepted_per_sec"])
    overloaded = rows[-1]
    # Backpressure must actually engage under overload...
    assert overloaded["shed_rate"] >= 0.5, overloaded
    # ...and the generous level must sail through unthrottled.
    assert rows[0]["shed_rate"] == 0.0

    headline = {
        "max_sustained_records_per_sec": knee["accepted_per_sec"],
        "knee_shed_rate": knee["shed_rate"],
        "overload_shed_rate": overloaded["shed_rate"],
        "admission_p99_cycles": knee["admission_p99_cycles"],
        "wall_records_per_sec": total_events / wall_s,
        "tenants": TENANTS,
    }
    benchmark.extra_info.update(headline)

    lines = [
        f"T16: multi-tenant ingest sweep — {TENANTS} tenants, "
        f"{TICKS} rounds/level ({WARMUP_TICKS} warmup)",
        "",
        f"{'offered/s':>12} {'accepted/s':>12} {'shed':>8} {'p99 adm cyc':>12}",
    ]
    for row in rows:
        lines.append(
            f"{row['offered_per_sec']:>12.0f} "
            f"{row['accepted_per_sec']:>12.0f} "
            f"{row['shed_rate']:>8.3f} "
            f"{row['admission_p99_cycles']:>12.0f}"
        )
    lines += [
        "",
        f"max sustained ingest  {headline['max_sustained_records_per_sec']:.0f} records/sec (sim)",
        f"shed rate at knee     {headline['knee_shed_rate']:.3f}",
        f"shed rate at 8x load  {headline['overload_shed_rate']:.3f}",
        f"p99 admission         {headline['admission_p99_cycles']:.0f} cycles",
        f"harness throughput    {headline['wall_records_per_sec']:.0f} records/sec (wall)",
    ]
    write_result("t16_ingest", "\n".join(lines))
    (RESULTS_DIR / "t16_ingest.json").write_text(
        json.dumps({"levels": rows, "headline": headline}, indent=2)
    )

    # The gate.  Simulated-time numbers are deterministic (local runs
    # measure 16000 sustained records/sec, 0.877 shed at 8x overload and
    # a p99 admission of 3200 cycles) but carry margin, so retuning the
    # config on purpose means editing a bound here, not reverting it.
    # The wall-clock floor is deliberately loose for shared CI runners.
    assert headline["max_sustained_records_per_sec"] >= 15_000, headline
    assert headline["admission_p99_cycles"] <= 20_000, headline
    assert headline["wall_records_per_sec"] >= 3_000, headline
