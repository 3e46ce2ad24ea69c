"""Unit tests: cloud service recording + leak auditor."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.auditor import LeakAuditor, transcript_match
from repro.cloud.service import VoiceCloudService, avs_identity
from repro.core.platform import IotPlatform
from repro.errors import HandshakeError, RecordError
from repro.ml.dataset import SensitiveCategory, Utterance
from repro.relay.avs import AvsClient, AvsEvent
from repro.relay.tls import TlsClient, TlsServer
from repro.sim.clock import SimClock
from repro.sim.rng import SimRng


@pytest.fixture
def cloud():
    return VoiceCloudService(SimRng(4), SimClock())


class TestCloudService:
    def test_tls_client_reaches_service(self, cloud):
        client = TlsClient(cloud.receive, cloud.tls.static_public, SimRng(5))
        client.handshake()
        avs = AvsClient(client.request)
        directive = avs.recognize("turn off the lights")
        assert directive["directive"] == "Response"
        assert cloud.received_transcripts == ["turn off the lights"]
        assert cloud.received[0].encrypted_transport

    def test_plaintext_endpoint_records_too(self, cloud):
        endpoint = cloud.plaintext_endpoint
        endpoint.receive(AvsEvent.recognize("hello", 1).to_bytes())
        assert cloud.received_transcripts == ["hello"]
        assert not cloud.received[0].encrypted_transport

    def test_cloud_records_everything(self, cloud):
        endpoint = cloud.plaintext_endpoint
        for i in range(5):
            endpoint.receive(AvsEvent.recognize(f"utterance {i}", i).to_bytes())
        assert len(cloud.received) == 5

    def test_non_recognize_events_not_recorded(self, cloud):
        cloud.plaintext_endpoint.receive(AvsEvent.heartbeat().to_bytes())
        assert cloud.received == []
        assert cloud.events_handled == 1

    def test_garbage_gets_error_directive(self, cloud):
        reply = cloud.plaintext_endpoint.receive(b'{"not": "an event"}')
        assert b"error" in reply


class TestFleetIdentity:
    """Every simulated cloud is the one AVS service, with one static key."""

    def test_platforms_present_one_key(self):
        keys = {
            IotPlatform.create(seed=seed).cloud.tls.static_public
            for seed in (1, 2, 1000, 2000)
        }
        assert keys == {avs_identity().public_bytes()}

    def test_pinned_device_rejects_another_key(self):
        pinned = IotPlatform.create(seed=3).cloud.tls.static_public
        impostor = TlsServer(SimRng(9, "impostor"))
        assert impostor.static_public != pinned
        client = TlsClient(impostor.handle, pinned, SimRng(2, "device"))
        with pytest.raises(HandshakeError, match="MITM|finished"):
            client.handshake()


class TestDedupScopedPerDevice:
    """Regression: dedup keyed on dialog id alone conflated devices.

    Dialog ids are per-device counters, so two devices legitimately use
    the same id; duplicate suppression must include the sender identity
    or device B's retry is silently eaten when device A got there first.
    """

    def test_same_device_retry_suppressed(self, cloud):
        ep = cloud.plaintext_endpoint
        ep.receive(AvsEvent.recognize("hi", 1, device_id="d00").to_bytes())
        ep.receive(
            AvsEvent.recognize("hi", 1, attempt=2, device_id="d00").to_bytes()
        )
        assert cloud.received_transcripts == ["hi"]
        assert cloud.duplicates_suppressed == 1

    def test_other_devices_retry_not_suppressed(self, cloud):
        ep = cloud.plaintext_endpoint
        # Device A records dialog id 1; device B's first delivery of its
        # own dialog id 1 was lost, so all the cloud sees is the retry.
        ep.receive(AvsEvent.recognize("from a", 1, device_id="d00").to_bytes())
        ep.receive(
            AvsEvent.recognize(
                "from b", 1, attempt=2, device_id="d01"
            ).to_bytes()
        )
        assert cloud.received_transcripts == ["from a", "from b"]
        assert cloud.duplicates_suppressed == 0
        assert [r.device_id for r in cloud.received] == ["d00", "d01"]

    def test_alert_dedup_scoped_per_device_too(self, cloud):
        ep = cloud.plaintext_endpoint
        def alert(body, **kwargs):
            return AvsEvent.of_kind("alert", body, 1, **kwargs).to_bytes()

        ep.receive(alert('{"a": 1}', device_id="d00"))
        ep.receive(alert('{"b": 2}', attempt=2, device_id="d01"))
        ep.receive(alert('{"a": 1}', attempt=2, device_id="d00"))
        assert cloud.alerts == [{"a": 1}, {"b": 2}]
        assert cloud.duplicates_suppressed == 1

    def test_empty_device_id_keeps_wire_bytes(self):
        # Single-device deployments (no device_id) must keep their
        # historical wire encoding: no deviceId key at all.
        assert b"deviceId" not in AvsEvent.recognize("x", 1).to_bytes()
        assert b"deviceId" not in AvsEvent.of_kind(
            "alert", "{}", 1
        ).to_bytes()
        assert b"deviceId" in AvsEvent.recognize(
            "x", 1, device_id="d07"
        ).to_bytes()


def _event(name: str, payload) -> bytes:
    namespace = "System" if name == "Alert" else "SpeechRecognizer"
    return json.dumps({"event": {
        "header": {"namespace": namespace, "name": name}, "payload": payload,
    }}).encode()


#: JSON values of every shape, nested a little.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
_PAYLOADS = st.dictionaries(
    st.sampled_from(["transcript", "alert", "dialogRequestId", "attempt",
                     "deviceId", "traceId"]),
    _JSON_VALUES,
)
_EVENTS = st.builds(
    lambda namespace, name, payload: {"event": {
        "header": {"namespace": namespace, "name": name}, "payload": payload,
    }},
    st.sampled_from(["SpeechRecognizer", "System"]) | _JSON_VALUES,
    st.sampled_from(["Recognize", "Alert", "SynchronizeState"])
    | _JSON_VALUES,
    _PAYLOADS | _JSON_VALUES,
)


@pytest.fixture(scope="module")
def shared_cloud():
    return VoiceCloudService(SimRng(4), SimClock())


class TestMalformedEvents:
    """Valid JSON with a malformed field is a bad event the cloud answers
    with an error directive, never a stray exception."""

    @pytest.mark.parametrize("data", [
        pytest.param(_event("Recognize", {"transcript": "x",
                                          "dialogRequestId": "abc"}),
                     id="dialog-id-string"),
        pytest.param(_event("Recognize", {"transcript": "x",
                                          "dialogRequestId": 1,
                                          "attempt": None}),
                     id="attempt-null"),
        pytest.param(_event("Recognize", [1, 2]), id="payload-list"),
        pytest.param(b'{"event": []}', id="event-list"),
        pytest.param(b'{"event": {"header": "Recognize"}}',
                     id="header-string"),
        pytest.param(b"[]", id="top-level-list"),
        pytest.param(b"null", id="top-level-null"),
        pytest.param(_event("Alert", {"alert": "{}", "dialogRequestId": [1]}),
                     id="alert-dialog-id-list"),
        pytest.param(_event("Alert", {"alert": "{}", "dialogRequestId": 1,
                                      "attempt": "2"}),
                     id="alert-attempt-string"),
        pytest.param(b"1" * 5000, id="int-past-digit-limit"),
        pytest.param(b"[" * 100_000, id="nested-too-deep"),
    ])
    def test_bad_event_directive(self, cloud, data):
        reply = json.loads(cloud.plaintext_endpoint.receive(data))
        assert reply == {"directive": "error", "reason": "bad event"}
        assert cloud.received == [] and cloud.alerts == []
        assert cloud.events_handled == 0

    def test_from_bytes_raises_record_error(self):
        with pytest.raises(RecordError):
            AvsEvent.from_bytes(b'{"event": []}')

    def test_undecodable_alert_body_recorded_as_malformed(self, cloud):
        reply = cloud.plaintext_endpoint.receive(
            _event("Alert", {"alert": "[" * 100_000, "dialogRequestId": 1})
        )
        assert json.loads(reply) == {"directive": "AlertAck"}
        assert cloud.alerts == [{"malformed": True}]

    def test_unencodable_device_id_still_admitted(self, cloud):
        # A lone surrogate is valid JSON but not valid UTF-8; the tenant
        # hash must not trip over it.
        reply = cloud.plaintext_endpoint.receive(_event("Recognize", {
            "transcript": "x", "dialogRequestId": 1, "deviceId": "\ud800",
        }))
        assert json.loads(reply)["directive"] == "Response"
        assert cloud.received_transcripts == ["x"]

    @given(st.one_of(_EVENTS, _JSON_VALUES))
    @settings(max_examples=150, deadline=None)
    def test_fuzz_receive_only_returns_directives(self, shared_cloud, doc):
        reply = json.loads(
            shared_cloud.plaintext_endpoint.receive(json.dumps(doc).encode())
        )
        assert isinstance(reply, dict) and "directive" in reply


class TestTranscriptMatch:
    def test_exact(self):
        assert transcript_match("play some jazz", "play some jazz")

    def test_asr_noise_tolerated(self):
        assert transcript_match(
            "transfer five hundred dollars from city bank",
            "transfer five hundred dollars from bank",
        )

    def test_different_content_rejected(self):
        assert not transcript_match("play some jazz", "what is the weather")

    def test_empty_reference(self):
        assert transcript_match("", "")
        assert not transcript_match("", "anything here")


def utt(text, category=SensitiveCategory.CREDENTIALS):
    return Utterance(text=text, category=category)


class TestLeakAuditor:
    def test_full_leak(self):
        truth = [
            utt("the password is four two"),
            utt("play some jazz", SensitiveCategory.MUSIC),
        ]
        auditor = LeakAuditor(truth)
        report = auditor.report(["the password is four two", "play some jazz"])
        assert report.cloud_leak_rate == 1.0
        assert report.utility_rate == 1.0

    def test_perfect_filter(self):
        truth = [
            utt("the password is four two"),
            utt("play some jazz", SensitiveCategory.MUSIC),
        ]
        report = LeakAuditor(truth).report(["play some jazz"])
        assert report.cloud_leak_rate == 0.0
        assert report.utility_rate == 1.0

    def test_overblocking_hurts_utility(self):
        truth = [utt("play some jazz", SensitiveCategory.MUSIC)]
        report = LeakAuditor(truth).report([])
        assert report.utility_rate == 0.0

    def test_empty_ground_truth(self):
        report = LeakAuditor([]).report(["anything"])
        assert report.cloud_leak_rate == 0.0
        assert report.utility_rate == 1.0

    def test_wire_leak_detection(self):
        truth = [utt("the password is four two seven one")]
        report = LeakAuditor(truth).report(
            [], wire_bytes=[b"...the password is four two seven one..."]
        )
        assert report.wire_leak_rate == 1.0
        report2 = LeakAuditor(truth).report([], wire_bytes=[b"ciphertext9a8b"])
        assert report2.wire_leak_rate == 0.0

    def test_device_capture_decoding(self, vocoder, asr):
        text = "the password for the email is four two seven one"
        truth = [utt(text)]
        auditor = LeakAuditor(truth, reference_asr=asr)
        pcm_bytes = vocoder.render(text).astype("<i2").tobytes()
        decoded = auditor.decode_device_captures([pcm_bytes])
        assert decoded, "capture should decode"
        report = auditor.report([])
        assert report.device_leak_rate == 1.0

    def test_garbage_captures_do_not_count(self, asr):
        truth = [utt("the password is four two")]
        auditor = LeakAuditor(truth, reference_asr=asr)
        auditor.decode_device_captures([b"", b"\x01", b"\xff" * 501, b"\x00" * 100])
        assert auditor.report([]).device_leak_rate == 0.0

    def test_decode_requires_reference_asr(self):
        with pytest.raises(ValueError):
            LeakAuditor([]).decode_device_captures([b"1234"])
