"""End-to-end trace correlation, with the trace ids kept on the device.

Every utterance gets a deterministic ``trace_id`` (``<device>/u<seq>``,
derived from the TA's own utterance counter — no ambient RNG) on its
stage spans and in the sealed checkpoint.  Nothing that leaves the
device carries it: the gaps in a device's ids mark exactly the
utterances the filter withheld.  The ``relay`` stage span records the
``dialog_id`` it allocated instead, so an operator joins every cloud
record to its utterance by the ``(device_id, dialog_id)`` pair the cloud
already receives — drained re-sends included, since the sealed queue
entry keeps the original dialog id.  ``collect_traces`` only decides
whether a fleet report keeps the stamped spans; decisions are
byte-identical either way.
"""

import dataclasses
import json
import re

import pytest

from repro.cloud.service import VoiceCloudService
from repro.obs.export import fleet_chrome_trace, fleet_trace_jsonl
from repro.obs.fleet import (
    DeviceSpec,
    FleetReport,
    simulate_device_runtime,
)
from repro.obs.health import FlightRecorder, HealthMonitor, default_slo_rules
from repro.relay.alerts import route_health_alert
from repro.relay.avs import EVENT_KINDS, AvsEvent


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


def _relay_spans_by_dialog(runtime) -> dict[int, list]:
    """The ``relay`` stage spans of one device, by the dialog id each
    allocated (a withheld utterance's span allocated none)."""
    by_dialog: dict[int, list] = {}
    for sp in runtime.machine.obs.tracer.spans:
        if sp.name == "relay" and "dialog_id" in sp.attrs:
            by_dialog.setdefault(sp.attrs["dialog_id"], []).append(sp)
    return by_dialog


class TestTraceIds:
    def test_cloud_records_carry_device_scoped_ids(self, traced):
        records = traced.platform.cloud.received
        assert records, "clean run must deliver transcripts"
        by_dialog = _relay_spans_by_dialog(traced)
        for rec in records:
            assert rec.device_id == "d00"
            (span,) = by_dialog[rec.dialog_id]
            assert span.trace_id.startswith("d00/u")

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

    def test_collect_traces_only_keeps_the_spans(self, traced, untraced):
        stamped = lambda rt: [
            (sp.name, sp.trace_id)
            for sp in rt.machine.obs.tracer.spans if sp.trace_id
        ]
        assert stamped(untraced) == stamped(traced)
        assert untraced.report.trace_spans == []
        assert len(traced.report.trace_spans) == len(stamped(traced))

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
    def test_events_carry_no_trace_id(self):
        for kind, (_, _, body_key) in EVENT_KINDS.items():
            event = AvsEvent.of_kind(kind, "{}", 2, attempt=3, device_id="d01")
            assert set(event.payload) == {
                body_key, "dialogRequestId", "attempt", "deviceId",
            }
            assert b"traceId" not in event.to_bytes()
            with pytest.raises(TypeError):
                AvsEvent.of_kind(kind, "{}", 2, trace_id="d01/u00002")

    def test_sender_added_trace_id_is_ignored(self):
        # An untrusted sender may still add one: it survives the wire
        # encoding, but the cloud keys the dialog without it.
        extra = AvsEvent.recognize("hi", 1, device_id="d00")
        extra.payload["traceId"] = "d00/u00001"
        back = AvsEvent.from_bytes(extra.to_bytes())
        assert back.payload["traceId"] == "d00/u00001"
        assert back.dialog() == (1, 1, "d00")


class TestQueueCorrelation:
    def test_drained_resends_join_their_relay_span(self, provisioned):
        # A lossy network spills a decision into the sealed queue; the
        # drain re-sends it under the dialog id its relay span recorded.
        runtime = simulate_device_runtime(
            _spec(device_id="dq", seed=3010, utterances=8, profile="lossy"),
            provisioned.bundle,
        )
        assert runtime.report.relay["drained"] >= 1
        by_dialog = _relay_spans_by_dialog(runtime)
        records = runtime.platform.cloud.received
        assert records
        for rec in records:
            (span,) = by_dialog[rec.dialog_id]
            assert span.trace_id.startswith("dq/u")

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
        from repro.obs.health import SloRule
        from repro.relay.alerts import build_alert_doc

        recorder = FlightRecorder(capacity=64)
        runtime = simulate_device_runtime(
            _spec(device_id="dh", seed=1019, utterances=3),
            provisioned.bundle, recorder=recorder,
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
        # The alert itself carries verdicts only.
        alert = build_alert_doc(report, device_id="dh")
        assert set(alert) == {"kind", "device", "ok", "rules", "stalled"}
        assert report.offending_trace not in json.dumps(alert)


#: A trace id, a span document's keys, or a per-utterance verdict.
_ON_DEVICE_ONLY = re.compile(r"/u\d{5}|trace_?id|traceId|\battrs\b|sensitive")


def _strings(value):
    """Every key and string value of a decoded JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield str(key)
            yield from _strings(item)
    elif isinstance(value, list):
        for item in value:
            yield from _strings(item)
    elif isinstance(value, str):
        yield value


class TestTraceIdsStayOnDevice:
    """The invariant: a default-settings device that withholds sensitive
    utterances, runs on a lossy link and has its client crash, then
    routes a health alert.  Its stage spans carry trace ids; nothing the
    cloud receives carries a trace id, a span or a ``sensitive`` flag;
    and every cloud record still joins to its utterance."""

    @pytest.fixture(scope="class")
    def device(self, provisioned):
        events: list[bytes] = []
        handle = VoiceCloudService._handle_event

        def recording(cloud, payload, encrypted):
            events.append(bytes(payload))
            return handle(cloud, payload, encrypted)

        spec = DeviceSpec(
            device_id="dp", seed=3010, utterances=8, sensitive_fraction=0.5,
            fault_profile="lossy", client_crash_profile="chaos",
        )
        recorder = FlightRecorder(capacity=256)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(VoiceCloudService, "_handle_event", recording)
            runtime = simulate_device_runtime(
                spec, provisioned.bundle, recorder=recorder
            )
            health = HealthMonitor(
                runtime.report.registry,
                rules=default_slo_rules(latency_budget_cycles=1),
                recorder=recorder,
            ).evaluate()
            outcome = route_health_alert(
                runtime.platform, runtime.ta_uuid, health, device_id="dp"
            )
        return runtime, health, outcome, events

    def test_scenario_exercises_every_path(self, device):
        runtime, health, outcome, _ = device
        summary = runtime.report.summary
        assert summary["forwarded"] < summary["utterances"]  # withheld some
        assert runtime.report.client_restarts >= 1
        assert runtime.report.relay["drained"] >= 1
        assert health.flight_dump and health.offending_trace
        assert outcome["status"] == "sent"
        assert len(runtime.platform.cloud.alerts) == 1

    def test_every_stage_span_carries_a_trace_id(self, device):
        runtime = device[0]
        stage_spans = [
            sp for sp in runtime.machine.obs.tracer.spans_in("stage.secure")
            if sp.name in ("capture", "asr", "classify", "filter", "relay")
        ]
        assert stage_spans
        for sp in stage_spans:
            assert re.fullmatch(r"dp/u\d{5}", sp.trace_id), (sp.name, sp.attrs)

    def test_nothing_the_cloud_receives_carries_device_telemetry(self, device):
        runtime, _, _, events = device
        cloud = runtime.platform.cloud
        docs = [json.loads(raw) for raw in events]
        docs += cloud.alerts
        docs += [dataclasses.asdict(rec) for rec in cloud.received]
        assert any(doc.get("kind") == "health_alert" for doc in cloud.alerts)
        for doc in docs:
            for text in _strings(doc):
                assert not _ON_DEVICE_ONLY.search(text), (text[:200], doc)

    def test_every_cloud_record_joins_one_relay_span(self, device):
        runtime = device[0]
        by_dialog = _relay_spans_by_dialog(runtime)
        # The spans of decisions that spilled into the sealed queue: the
        # ``relay_queued`` event parents to its utterance's relay span.
        spilled = {
            ev.parent_id
            for ev in runtime.machine.obs.tracer.spans_in("optee.ta")
            if ev.name == "relay_queued"
        }
        drained = 0
        records = runtime.platform.cloud.received
        assert records
        for rec in records:
            assert rec.device_id == "dp"
            (span,) = by_dialog[rec.dialog_id]
            drained += span.id in spilled
        assert drained >= 1
