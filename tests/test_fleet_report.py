"""Fleet device reports: serialization, size and regression fixes.

* :class:`DeviceReport` is a plain picklable document — no pinned
  machine/platform graphs — small enough to hold one per device, and
  the watchdog works from its serialized heartbeat map;
* the regression fixes the fleet runner flushed out: the empty-fleet
  ``reduce`` crash and the hardcoded 2 GHz cycle→ms conversions.
"""

import dataclasses
import json
import pickle

import pytest

from repro.obs.fleet import (
    LATENCY_METRIC,
    DeviceSpec,
    FleetReport,
    run_fleet,
    simulate_device_runtime,
)
from repro.sim.clock import DEFAULT_FREQ_HZ, SimClock, cycles_to_ms


@pytest.fixture(scope="module")
def sequential(provisioned):
    """The sequential reference fleet (shared: ~seconds)."""
    return run_fleet(devices=4, seed=7, utterances=2,
                     bundle=provisioned.bundle)


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


class TestReportSize:
    """Reports stay cheap to hold: one per device, never a simulation."""

    def test_every_report_pickles_under_256_kib(self, sequential):
        for device in sequential.devices:
            assert len(pickle.dumps(device)) < 256 * 1024
