"""T11: fleet telemetry — merged histograms must equal the ground truth.

Runs a simulated fleet (varied seeds, workload sizes and network fault
profiles per device), merges the per-device telemetry, and checks the
aggregation math the operational tier stands on: fleet quantiles from
:meth:`BucketHistogram.merge` must equal the quantiles of the
concatenated per-device latency streams (exactly while under the sample
cap, and within one bucket's relative error in general), and the merged
counters must equal the per-device sums.  Each device's stream is the
raw samples of its registry histogram, cross-checked against the run
summary's utterance count and total latency.  The fleet document lands in
``benchmarks/results/fleet.json`` for the CI artifact; the text table in
``results/t11_fleet.txt``.
"""

import json
import math

from benchmarks.conftest import RESULTS_DIR, write_result
from repro.obs.fleet import run_fleet

DEVICES = 6


def test_t11_fleet_telemetry(benchmark, bundle_cnn):
    report = benchmark.pedantic(
        lambda: run_fleet(devices=DEVICES, seed=7, utterances=4,
                          bundle=bundle_cnn),
        rounds=1, iterations=1,
    )
    write_result("t11_fleet", report.table())
    (RESULTS_DIR / "fleet.json").write_text(
        json.dumps(report.to_doc(), indent=2) + "\n"
    )

    assert len(report.devices) == DEVICES
    # Devices differ: rotated fault profiles and varied workload sizes.
    assert len({d.spec.fault_profile for d in report.devices}) > 1
    assert len({d.spec.seed for d in report.devices}) == DEVICES

    # Merged quantiles vs the concatenated ground-truth stream.
    streams = []
    for d in report.devices:
        doc = d.latency_hist.to_doc()
        assert doc["count"] == d.summary["utterances"]
        assert doc["total"] == d.summary["total_latency_cycles"]
        streams.append(doc["samples"])
    merged = report.latency_hist
    concat = sorted(lat for stream in streams for lat in stream)
    assert merged.count == len(concat)
    assert merged.min == concat[0] and merged.max == concat[-1]
    assert merged.total == sum(concat)
    for q in (0.5, 0.95, 0.99):
        estimate = merged.quantile(q)
        if merged.exact:
            # Under the sample cap the merge kept every sample, so the
            # quantile IS the concatenated stream's (interpolated).
            rank = q * (len(concat) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(concat) - 1)
            frac = rank - lo
            expected = concat[lo] * (1.0 - frac) + concat[hi] * frac
            assert estimate == expected, (q, expected, estimate)
        else:
            # Bucket mode: nearest-rank exact bracketed within one
            # bucket's relative error.
            rank = max(1, math.ceil(q * len(concat)))
            exact = concat[rank - 1]
            assert exact <= estimate * (1 + 1e-12), (q, exact, estimate)
            assert estimate <= exact * merged.gamma * (1 + 1e-12), (
                q, exact, estimate,
            )

    # Merged registry counters equal the per-device sums.
    fleet_metrics = report.merged_registry()
    assert fleet_metrics.counter("fleet.utterances").value == len(concat)
    assert fleet_metrics.counter("fleet.relay.sent").value == sum(
        d.summary["sent"] for d in report.devices
    )
    hist = fleet_metrics.histogram("fleet.e2e_latency_cycles")
    assert hist.count == len(concat)

    # Nothing got lost at any fault profile, and the wire stayed honest:
    # every forwarded decision is either delivered or queued.
    for d in report.devices:
        forwarded = d.summary["forwarded"]
        assert d.summary["sent"] + d.summary["queued"] == forwarded

    doc = report.to_doc()
    assert doc["fleet"]["devices"] == DEVICES
    assert doc["fleet"]["latency_p50_cycles"] <= doc["fleet"]["latency_p99_cycles"]
    benchmark.extra_info["fleet_p99_ms"] = (
        doc["fleet"]["latency_p99_cycles"] / 2e9 * 1e3
    )
    benchmark.extra_info["relay_success_rate"] = (
        doc["fleet"]["relay_success_rate"]
    )
