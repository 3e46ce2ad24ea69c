"""End-to-end trace correlation: device spans -> relay -> queue -> cloud.

The tentpole contract: with ``collect_traces`` on, every utterance gets
a deterministic ``trace_id`` (``<device>/u<seq>``, derived from the TA's
own utterance counter — no ambient RNG), and that id is visible on the
device's spans, the AVS events the relay ships, the sealed
store-and-forward queue entries, the cloud's records, and health
alerts.  With it off, nothing carries an id and the wire bytes are the
historical ones.  Either way, decisions are byte-identical — tracing is
telemetry, not behaviour.
"""

import json

import pytest

from repro.obs.export import fleet_chrome_trace, fleet_trace_jsonl
from repro.obs.fleet import (
    DeviceSpec,
    FleetReport,
    simulate_device_runtime,
)
from repro.relay.avs import AvsEvent


def _spec(device_id="d00", seed=1007, utterances=4, profile="clean"):
    return DeviceSpec(device_id=device_id, seed=seed, utterances=utterances,
                      sensitive_fraction=0.25, fault_profile=profile)


@pytest.fixture(scope="module")
def traced(provisioned):
    """One traced clean-network device run (shared: ~seconds)."""
    return simulate_device_runtime(
        _spec(), provisioned.bundle, collect_traces=True
    )


@pytest.fixture(scope="module")
def untraced(provisioned):
    return simulate_device_runtime(_spec(), provisioned.bundle)


class TestTraceIds:
    def test_cloud_records_carry_device_scoped_ids(self, traced):
        records = traced.platform.cloud.received
        assert records, "clean run must deliver transcripts"
        for rec in records:
            assert rec.trace_id.startswith("d00/u")

    def test_ids_are_sequential_per_utterance(self, traced):
        spans = traced.machine.obs.tracer.spans
        tids = []
        for sp in spans:
            if sp.trace_id and sp.trace_id not in tids:
                tids.append(sp.trace_id)
        assert tids == [f"d00/u{i + 1:05d}" for i in range(len(tids))]
        assert len(tids) == traced.report.summary["utterances"]

    def test_pipeline_stages_share_the_utterance_id(self, traced):
        spans = traced.machine.obs.tracer.spans
        by_tid = {}
        for sp in spans:
            if sp.trace_id:
                by_tid.setdefault(sp.trace_id, set()).add(sp.name)
        stages = by_tid["d00/u00001"]
        assert {"capture", "asr", "classify", "filter"} <= stages

    def test_untraced_run_has_no_ids_anywhere(self, untraced):
        assert all(
            not sp.trace_id for sp in untraced.machine.obs.tracer.spans
        )
        assert all(
            rec.trace_id == "" for rec in untraced.platform.cloud.received
        )
        assert untraced.report.trace_spans == []

    def test_decisions_byte_identical_traced_or_not(self, traced, untraced):
        keys = ("utterances", "accuracy", "forwarded", "sent", "queued",
                "degraded", "relay_attempts")
        decide = lambda rt: json.dumps(
            {
                "summary": {k: rt.report.summary[k] for k in keys},
                "transcripts": rt.platform.cloud.received_transcripts,
            },
            sort_keys=True,
        )
        assert decide(traced) == decide(untraced)


class TestWireBytes:
    def test_trace_id_omitted_when_empty(self):
        plain = AvsEvent.recognize("hi", 1).to_bytes()
        assert b"traceId" not in plain
        stamped = AvsEvent.recognize("hi", 1, trace_id="d00/u00001")
        assert stamped.payload["traceId"] == "d00/u00001"
        # Round trip through the wire encoding keeps the id.
        back = AvsEvent.from_bytes(stamped.to_bytes())
        assert back.payload["traceId"] == "d00/u00001"

    def test_alert_event_carries_trace_id(self):
        ev = AvsEvent.of_kind("alert", "{}", 2, trace_id="d01/u00002")
        assert ev.payload["traceId"] == "d01/u00002"
        assert b"traceId" not in AvsEvent.of_kind("alert", "{}", 2).to_bytes()


class TestQueueCorrelation:
    def test_queued_entries_keep_trace_id_through_drain(self, provisioned):
        # A lossy network forces spills into the sealed queue; once the
        # run ends, any still-queued metadata must carry the trace id so
        # a later drain re-sends under the original identity.
        runtime = simulate_device_runtime(
            _spec(device_id="dq", seed=1013, utterances=6, profile="lossy"),
            provisioned.bundle, collect_traces=True,
        )
        delivered = [r for r in runtime.platform.cloud.received
                     if r.trace_id]
        assert all(r.trace_id.startswith("dq/u") for r in delivered)
        # Everything the cloud saw from this device is trace-stamped —
        # including drained re-sends, which restore the id from the
        # sealed entry's metadata.
        assert delivered == runtime.platform.cloud.received

    def test_reserved_meta_key_rejected(self, platform):
        from repro.optee.storage import SecureStorage
        from repro.relay.queue import StoreForwardQueue

        queue = StoreForwardQueue(SecureStorage(platform.tee))
        with pytest.raises(ValueError):
            queue.enqueue("payload-bytes", meta={"payload": "clobber"})


class TestFleetTimelineExport:
    def test_jsonl_rows_carry_device_and_trace(self, traced):
        report = FleetReport(seed=1, devices=[traced.report])
        lines = fleet_trace_jsonl(report).splitlines()
        assert lines
        for line in lines:
            doc = json.loads(line)
            assert doc["device"] == "d00"
            assert doc["attrs"]["trace_id"].startswith("d00/u")

    def test_chrome_trace_one_track_per_device(self, traced):
        report = FleetReport(seed=1, devices=[traced.report])
        doc = json.loads(fleet_chrome_trace(report))
        events = doc["traceEvents"]
        names = [e for e in events if e["ph"] == "M"]
        assert [e["args"]["name"] for e in names] == ["d00"]
        xs = [e for e in events if e["ph"] == "X"]
        assert xs and all(e["tid"] == 1 for e in xs)
        assert all(e["dur"] >= 0 for e in xs)

    def test_empty_fleet_exports_cleanly(self):
        empty = FleetReport(seed=1)
        assert fleet_trace_jsonl(empty) == ""
        doc = json.loads(fleet_chrome_trace(empty))
        assert doc["traceEvents"] == []


class TestHealthAlertCorrelation:
    def test_violation_report_names_offending_trace(self, provisioned):
        from repro.obs.health import (
            FlightRecorder,
            HealthMonitor,
            SloRule,
        )
        from repro.relay.alerts import build_alert_doc

        recorder = FlightRecorder(capacity=64)
        runtime = simulate_device_runtime(
            _spec(device_id="dh", seed=1019, utterances=3),
            provisioned.bundle, recorder=recorder, collect_traces=True,
        )
        monitor = HealthMonitor(
            runtime.report.registry,
            rules=[SloRule(name="p99_latency",
                           metric="fleet.e2e_latency_cycles",
                           op="<=", threshold=1.0, quantile=0.99)],
            recorder=recorder,
        )
        report = monitor.evaluate(trace_only=True)
        assert not report.ok
        assert report.offending_trace.startswith("dh/u")
        # trace_only narrows the dump to the offending utterance.
        for line in report.flight_dump.splitlines():
            doc = json.loads(line)
            assert doc["attrs"]["trace_id"] == report.offending_trace
        alert = build_alert_doc(report, device_id="dh")
        assert alert["trace_id"] == report.offending_trace
