"""T14 — fleet co-simulation throughput (devices/sec) and shard identity.

Quantifies what the sharded fleet runner buys and guards its contract:

* wall-clock devices/sec of the fleet runner (document-reduced devices,
  mmap-backed memory regions, cached power tables), with the projected
  time for a 10k-device campaign;
* the shard-determinism property asserted hard: an N-shard run's merged
  fleet document is byte-identical to the sequential run of the same
  roster — sharding is free parallelism, never a different answer;
* per-device report size sanity (a picklable document, not a pinned
  machine graph), since O(devices) memory is what capped fleet scale
  before this refactor.

The devices/sec headline lands in ``extra_info``; the asserts at the
end are the gate, the same way the T13 hot-path gate works.
"""

from __future__ import annotations

import json
import pickle
import time

from benchmarks.conftest import write_result
from repro.obs.fleet import FleetReport, run_fleet

DEVICES = 24
UTTERANCES = 2
SHARD_DEVICES = 8
SHARDS = 4


def test_t14_fleet_scale(benchmark, bundle_cnn):
    # -- throughput: one sequential sweep over a mid-sized roster --------
    t0 = time.perf_counter()
    seq = run_fleet(
        devices=DEVICES, seed=7, utterances=UTTERANCES, bundle=bundle_cnn
    )
    elapsed = time.perf_counter() - t0
    devices_per_sec = DEVICES / elapsed
    projected_10k_min = 10_000 / devices_per_sec / 60.0

    # -- shard identity: same roster prefix, 4 workers vs in-process -----
    # device_specs(n) is a prefix of device_specs(m>n), so the sequential
    # reference for the sharded run is just the first rows of the sweep.
    t0 = time.perf_counter()
    sharded = run_fleet(
        devices=SHARD_DEVICES, seed=7, utterances=UTTERANCES,
        bundle=bundle_cnn, shards=SHARDS,
    )
    sharded_s = time.perf_counter() - t0
    reference = FleetReport(seed=7, devices=seq.devices[:SHARD_DEVICES])
    seq_doc = json.dumps(reference.to_doc(), sort_keys=True)
    shard_doc = json.dumps(sharded.to_doc(), sort_keys=True)
    assert seq_doc == shard_doc, \
        "sharded fleet document diverged from the sequential run"
    merged_equal = json.dumps(
        reference.merged_registry().to_doc(), sort_keys=True
    ) == json.dumps(sharded.merged_registry().to_doc(), sort_keys=True)
    assert merged_equal, "sharded merged registry diverged"

    # -- document size: reports must stay cheap to hold and to pickle ----
    report_kb = len(pickle.dumps(seq.devices[0])) / 1024.0

    fleet = seq.to_doc()["fleet"]
    rows = [
        f"{'metric':38s} {'value':>14s}",
        f"{'devices simulated':38s} {DEVICES:>14d}",
        f"{'utterances (fleet total)':38s} {fleet['utterances']:>14d}",
        f"{'devices/sec (wall)':38s} {devices_per_sec:>14.2f}",
        f"{'projected 10k-device run (min)':38s} {projected_10k_min:>14.1f}",
        f"{'sharded == sequential doc':38s} {'yes':>14s}",
        f"{'sharded run, {} devices / {} shards (s)'.format(SHARD_DEVICES, SHARDS):38s}"
        f" {sharded_s:>14.2f}",
        f"{'device report pickle (KiB)':38s} {report_kb:>14.1f}",
        f"{'fleet relay success':38s} {fleet['relay_success_rate']:>14.2%}",
    ]
    write_result("t14_fleet_scale", "\n".join(rows))
    benchmark.extra_info["devices_per_sec"] = devices_per_sec
    benchmark.extra_info["projected_10k_minutes"] = projected_10k_min
    benchmark.extra_info["shard_doc_identical"] = True
    benchmark.extra_info["device_report_kib"] = report_kb
    benchmark.pedantic(
        lambda: run_fleet(
            devices=1, seed=7, utterances=UTTERANCES, bundle=bundle_cnn
        ),
        rounds=1, iterations=1,
    )

    # The refactor's acceptance bar: a 10k-device campaign must be a
    # lunch-break job, not an overnight one, and reports must be small.
    # The floor sits far below local single-core runs (~13 devices/sec)
    # so shared CI runners cannot flake it.
    assert devices_per_sec >= 2.0, \
        f"fleet throughput {devices_per_sec:.2f} devices/sec < 2.0"
    assert report_kb < 256.0, f"device report {report_kb:.0f} KiB too large"
