"""Sharded fleet co-simulation: determinism, serialization, bug fixes.

The tentpole contracts of the sharded runner, tested end to end:

* a sharded ``run_fleet`` produces a merged report byte-identical to the
  sequential run of the same roster (the partition/reassemble invariant);
* :class:`DeviceReport` is a plain picklable document — no pinned
  machine/platform graphs — and the watchdog works from its serialized
  heartbeat map;
* the regression fixes this refactor flushed out: the empty-fleet
  ``reduce`` crash, the hardcoded 2 GHz cycle→ms conversions, and the
  cloud dedup key that conflated devices sharing a dialog id.
"""

import dataclasses
import json
import pickle

import pytest

from repro.obs.fleet import (
    LATENCY_METRIC,
    DeviceSpec,
    FleetReport,
    device_specs,
    partition_specs,
    run_fleet,
    simulate_device_runtime,
)
from repro.sim.clock import DEFAULT_FREQ_HZ, SimClock, cycles_to_ms


def fleet_doc(report):
    return json.dumps(report.to_doc(), sort_keys=True)


@pytest.fixture(scope="module")
def sequential(provisioned):
    """The sequential reference fleet (shared: ~seconds)."""
    return run_fleet(devices=4, seed=7, utterances=2,
                     bundle=provisioned.bundle)


@pytest.fixture(scope="module")
def sharded(provisioned):
    """The same roster co-simulated across 2 worker processes."""
    return run_fleet(devices=4, seed=7, utterances=2,
                     bundle=provisioned.bundle, shards=2)


class TestPartition:
    def test_contiguous_balanced_and_order_preserving(self):
        specs = device_specs(10, seed=7)
        groups = partition_specs(specs, 3)
        assert [len(g) for g in groups] == [4, 3, 3]
        assert [s for g in groups for s in g] == specs

    def test_shards_clamped_to_roster(self):
        specs = device_specs(2, seed=7)
        groups = partition_specs(specs, 8)
        assert [len(g) for g in groups] == [1, 1]

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            partition_specs(device_specs(2), 0)


class TestShardDeterminism:
    """Issue criterion: shards=1 and shards=N merge byte-identically."""

    def test_merged_doc_byte_identical(self, sequential, sharded):
        assert fleet_doc(sequential) == fleet_doc(sharded)

    def test_merged_registry_byte_identical(self, sequential, sharded):
        assert json.dumps(
            sequential.merged_registry().to_doc(), sort_keys=True
        ) == json.dumps(sharded.merged_registry().to_doc(), sort_keys=True)

    def test_roster_order_survives_shard_reassembly(self, sharded):
        assert [d.spec.device_id for d in sharded.devices] == [
            "d00", "d01", "d02", "d03"
        ]


class TestDeviceReportDocument:
    def test_report_pickles_and_roundtrips(self, sequential):
        for device in sequential.devices:
            clone = pickle.loads(pickle.dumps(device))
            assert clone.to_doc() == device.to_doc()
            assert clone.registry.counters() == device.registry.counters()

    def test_report_carries_no_simulation_graph(self, sequential):
        device = sequential.devices[0]
        for attr in ("machine", "platform", "ta_uuid"):
            assert not hasattr(device, attr)

    def test_runtime_form_keeps_live_objects(self, provisioned):
        spec = DeviceSpec(device_id="rt", seed=555, utterances=1,
                          sensitive_fraction=0.5, fault_profile="clean")
        runtime = simulate_device_runtime(spec, provisioned.bundle)
        assert runtime.machine is not None
        assert runtime.platform is not None
        assert runtime.ta_uuid is not None
        assert runtime.report.spec == spec

    def test_watchdog_from_serialized_report(self, sequential):
        device = pickle.loads(pickle.dumps(sequential.devices[0]))
        assert device.clock_now > 0
        assert "pipeline" in device.heartbeats
        # Generous stall budget: the run just ended, nothing is stalled.
        assert device.stalled() == []
        # A 1-cycle budget flags every track that is not the very newest.
        stalled = {a.category for a in device.stalled(stall_cycles=1)}
        assert stalled, "1-cycle stall budget must flag quiet tracks"

    def test_watchdog_sentinel_from_serialized_report(self, sequential):
        # A device that retained no spans ships an empty heartbeat map;
        # the sentinel must survive the pickled hop a shard worker makes.
        silent = dataclasses.replace(sequential.devices[0], heartbeats={})
        device = pickle.loads(pickle.dumps(silent))
        alerts = device.stalled()
        assert [a.category for a in alerts] == ["(no spans)"]
        assert alerts[0].idle_cycles == device.clock_now


class TestEmptyFleetRegression:
    """Regression: reduce() without initializer raised on empty fleets."""

    def test_empty_fleet_histogram_is_empty_not_typeerror(self):
        empty = FleetReport(seed=3)
        hist = empty.latency_hist
        assert hist.count == 0
        assert hist.p50 == 0.0
        assert hist.name == LATENCY_METRIC

    def test_empty_fleet_doc_and_table_render(self):
        empty = FleetReport(seed=3)
        doc = empty.to_doc()
        assert doc["fleet"]["devices"] == 0
        assert doc["fleet"]["utterances"] == 0
        json.dumps(doc)
        assert "relay success" in empty.table()


class TestCyclesToMsRegression:
    """Regression: cycle→ms rendering hardcoded the 2 GHz default."""

    def test_helper_matches_default(self):
        assert cycles_to_ms(2.0e9) == 1000.0
        assert cycles_to_ms(1.0e9, freq_hz=1.0e9) == 1000.0

    def test_helper_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            cycles_to_ms(1.0, freq_hz=0.0)

    def test_clock_method_uses_configured_frequency(self):
        clock = SimClock(freq_hz=1.0e9)
        assert clock.cycles_to_ms(5.0e8) == 500.0

    def test_report_carries_frequency_and_table_uses_it(self, sequential):
        device = sequential.devices[0]
        assert device.freq_hz == DEFAULT_FREQ_HZ
        expected = f"{cycles_to_ms(device.latency_hist.p50, device.freq_hz):>7.2f}"
        assert expected in sequential.table()


class TestSamplingAcrossShards:
    """Issue criteria: sampling changes telemetry volume, never decisions
    — and shard merges stay byte-identical with it on."""

    @pytest.fixture(scope="class")
    def sampled_pair(self, provisioned):
        kw = dict(devices=4, seed=7, utterances=2,
                  bundle=provisioned.bundle, sample_rate=2,
                  collect_traces=True)
        return (run_fleet(**kw), run_fleet(**kw, shards=2))

    def test_sampled_sharded_doc_byte_identical(self, sampled_pair):
        seq, sharded = sampled_pair
        assert fleet_doc(seq) == fleet_doc(sharded)
        # Trace spans and the sampled registries ride outside to_doc; the
        # pickled shard hop must preserve them bytewise too.
        for a, b in zip(seq.devices, sharded.devices):
            assert json.dumps(a.trace_spans, sort_keys=True) == \
                json.dumps(b.trace_spans, sort_keys=True)
            assert json.dumps(a.registry.to_doc(), sort_keys=True) == \
                json.dumps(b.registry.to_doc(), sort_keys=True)

    def test_sampled_sharded_ring_and_burn_rates_identical(self, sampled_pair):
        from repro.obs.health import default_slo_rules, evaluate_burn_rates

        seq, sharded = sampled_pair
        ring = lambda rep: json.dumps(
            [s.to_doc() for s in rep.merged_registry().snapshots],
            sort_keys=True,
        )
        assert ring(seq) == ring(sharded)
        burns = lambda rep: json.dumps(
            [b.to_doc() for b in evaluate_burn_rates(
                rep.merged_registry(), default_slo_rules(),
                window_hours=0.25,
            )],
            sort_keys=True,
        )
        assert burns(seq) == burns(sharded)

    def test_sampling_preserves_decisions(self, sequential, sampled_pair):
        sampled, _ = sampled_pair
        keys = ("device", "utterances", "accuracy", "forwarded", "sent",
                "queued", "relay_attempts", "retries", "degraded")
        decisions = lambda rep: json.dumps(
            [{k: d.to_doc()[k] for k in keys} for d in rep.devices],
            sort_keys=True,
        )
        assert decisions(sampled) == decisions(sequential)

    def test_sampled_report_ships_fewer_latencies(self, sequential,
                                                  sampled_pair):
        # Exact per-cycle values differ from the untraced `sequential`
        # run (trace ids ride the wire, so crypto/NIC cycles shift);
        # the volume contract is what sampling owns.
        sampled, _ = sampled_pair
        for full, thin in zip(sequential.devices, sampled.devices):
            assert thin.sample_rate == 2
            n = full.summary["utterances"]
            # Every 2nd latency kept with weight 2 and no raw samples
            # shipped; the weighted histogram still covers every utterance.
            doc = thin.latency_hist.to_doc()
            assert doc["samples"] is None
            assert doc["count"] == 2 * ((n + 1) // 2) >= n

    def test_auto_rate_resolves_per_device_profile(self, provisioned):
        from repro.obs.fleet import AUTO_SAMPLE_RATES

        fleet = run_fleet(devices=4, seed=7, utterances=2,
                          bundle=provisioned.bundle, sample_rate="auto")
        for device in fleet.devices:
            assert device.sample_rate == \
                AUTO_SAMPLE_RATES[device.spec.fault_profile]

    def test_bad_rate_rejected(self, provisioned):
        from repro.obs.fleet import resolve_sample_rate

        with pytest.raises(ValueError):
            resolve_sample_rate(0, "clean")
        with pytest.raises(ValueError):
            resolve_sample_rate("sometimes", "clean")
