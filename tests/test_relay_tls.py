"""Unit tests: TLS-like handshake, record layer, AVS protocol."""

import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.dh import DhKeyPair
from repro.errors import CryptoError, HandshakeError, RecordError
from repro.relay.avs import AvsClient, AvsEvent
from repro.relay.tls import TlsClient, TlsServer
from repro.sim.rng import SimRng


@pytest.fixture
def pair():
    server = TlsServer(SimRng(1, "server"))
    client = TlsClient(server.handle, server.static_public, SimRng(2, "client"))
    return server, client


class TestHandshake:
    def test_handshake_succeeds(self, pair):
        server, client = pair
        client.handshake()
        assert client.connected
        assert client.handshakes == 1

    def test_request_before_handshake_rejected(self, pair):
        _, client = pair
        with pytest.raises(HandshakeError):
            client.request(b"early")

    def test_wrong_pinned_key_detected(self):
        """MITM: client pins key A, talks to server with key B."""
        real = TlsServer(SimRng(1, "server"))
        mitm = TlsServer(SimRng(9, "mitm"))
        client = TlsClient(mitm.handle, real.static_public, SimRng(2, "c"))
        with pytest.raises(HandshakeError, match="MITM|finished"):
            client.handshake()

    def test_wire_transcript_pinned(self):
        """Golden transcript: a handshake plus two records, every frame in
        both directions, for fixed seeds."""
        server = TlsServer(SimRng(7, "server"))
        server.set_handler(lambda pt: b"ack:" + pt)
        wire = []

        def transport(request):
            reply = server.handle(request)
            wire.extend((request, reply))
            return reply

        client = TlsClient(transport, server.static_public, SimRng(8, "client"))
        client.handshake()
        assert client.request(b"first record") == b"ack:first record"
        assert client.request(b"second record") == b"ack:second record"
        digest = hashlib.sha256()
        for frame in wire:
            digest.update(len(frame).to_bytes(4, "big") + frame)
        assert len(wire) == 6
        assert digest.hexdigest() == (
            "1d914dc2e897ea7a621c66e781833dec98d6f8e11fe4572b9cd62dfe507c723f"
        )

    def test_rehandshake_resets_sequences(self, pair):
        server, client = pair
        client.handshake()
        client.request(b"one")
        client.handshake()
        assert client.request(b"two") is not None


class TestRecords:
    def test_round_trip(self, pair):
        server, client = pair
        server.set_handler(lambda pt: pt.upper())
        client.handshake()
        assert client.request(b"hello") == b"HELLO"

    def test_multiple_records_in_order(self, pair):
        server, client = pair
        server.set_handler(lambda pt: pt)
        client.handshake()
        for i in range(5):
            assert client.request(f"msg{i}".encode()) == f"msg{i}".encode()

    def test_plaintext_never_on_wire(self, pair):
        server, client = pair
        wire = []
        original = server.handle

        def tapped(request):
            wire.append(request)
            return original(request)

        client._transport = tapped
        client.handshake()
        client.request(b"my social security number")
        joined = b"".join(wire)
        assert b"social security" not in joined

    def test_replayed_record_rejected(self, pair):
        server, client = pair
        client.handshake()
        captured = {}
        original = server.handle

        def capture(request):
            msg = json.loads(request.decode())
            if msg.get("type") == "record":
                captured["wire"] = request
            return original(request)

        client._transport = capture
        client.request(b"first")
        with pytest.raises(RecordError, match="sequence"):
            server.handle(captured["wire"])  # replay

    def test_record_before_handshake_rejected(self):
        server = TlsServer(SimRng(1, "s"))
        wire = json.dumps({"type": "record", "seq": 0, "payload": "00"}).encode()
        with pytest.raises(HandshakeError):
            server.handle(wire)

    def test_malformed_message_rejected(self):
        server = TlsServer(SimRng(1, "s"))
        with pytest.raises(RecordError):
            server.handle(b"\xff\xfe not json")
        with pytest.raises(RecordError):
            server.handle(json.dumps({"type": "martian"}).encode())

    def test_tampered_record_rejected(self, pair):
        from repro.errors import AuthenticationFailure

        server, client = pair
        client.handshake()
        original_transport = client._transport

        def tamper(request):
            msg = json.loads(request.decode())
            if msg.get("type") == "record":
                payload = bytearray.fromhex(msg["payload"])
                payload[0] ^= 0xFF
                msg["payload"] = payload.hex()
                request = json.dumps(msg).encode()
            return original_transport(request)

        client._transport = tamper
        with pytest.raises(AuthenticationFailure):
            client.request(b"data")


_PUBLIC = format(DhKeyPair.generate(b"c" * 32).public, "x")
_NONCE = "00" * 16
_ABSENT = object()


@pytest.fixture(scope="module")
def connected_server():
    """A server with an open connection, so records reach field parsing."""
    server = TlsServer(SimRng(1, "server"))
    TlsClient(server.handle, server.static_public, SimRng(2, "client")).handshake()
    return server


def _server_hello() -> dict:
    """A well-formed server hello.  Its finished MAC binds another client's
    nonce, so a handshake against it fails even unmodified; the tests
    below check only *how* it fails."""
    server = TlsServer(SimRng(1, "server"))
    hello = {"type": "client_hello", "public": _PUBLIC, "nonce": _NONCE}
    return json.loads(server.handle(json.dumps(hello).encode()))


def _client_against(reply: dict) -> TlsClient:
    """A client whose transport answers every request with ``reply``."""
    return TlsClient(lambda _: json.dumps(reply).encode(),
                     DhKeyPair.generate(b"s" * 32).public_bytes(),
                     SimRng(2, "client"))


#: JSON values of every shape, hex strings included so that some field
#: values parse.
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8),
    st.text("0123456789abcdef", max_size=520),
    st.lists(st.integers(), max_size=2),
)
_FIELDS = st.dictionaries(
    st.sampled_from(["public", "nonce", "seq", "payload", "finished"]),
    _JSON_VALUES,
)


class TestMalformedFields:
    """Valid JSON with missing or malformed fields is a TLS error, which the
    relay retries, never a stray KeyError/TypeError/ValueError."""

    @pytest.mark.parametrize("msg, error", [
        pytest.param({"type": "client_hello", "nonce": _NONCE},
                     HandshakeError, id="hello-no-public"),
        pytest.param({"type": "client_hello", "public": "zz", "nonce": _NONCE},
                     HandshakeError, id="hello-public-not-hex"),
        pytest.param({"type": "client_hello", "public": 12345, "nonce": _NONCE},
                     HandshakeError, id="hello-public-not-string"),
        pytest.param({"type": "client_hello", "public": _PUBLIC},
                     HandshakeError, id="hello-no-nonce"),
        pytest.param({"type": "client_hello", "public": _PUBLIC, "nonce": "xyz"},
                     HandshakeError, id="hello-nonce-not-hex"),
        pytest.param({"type": "client_hello", "public": _PUBLIC, "nonce": 7},
                     HandshakeError, id="hello-nonce-not-string"),
        pytest.param({"type": "record", "seq": 0},
                     RecordError, id="record-no-payload"),
        pytest.param({"type": "record", "payload": "00"},
                     RecordError, id="record-no-seq"),
        pytest.param({"type": "record", "seq": "zero", "payload": "00"},
                     RecordError, id="record-seq-string"),
        pytest.param({"type": "record", "seq": None, "payload": "00"},
                     RecordError, id="record-seq-null"),
        pytest.param({"type": "record", "seq": 0, "payload": "not hex"},
                     RecordError, id="record-payload-not-hex"),
        pytest.param({"type": "record", "seq": 0, "payload": ["00"]},
                     RecordError, id="record-payload-not-string"),
    ])
    def test_server_rejects(self, connected_server, msg, error):
        with pytest.raises(error):
            connected_server.handle(json.dumps(msg).encode())

    @pytest.mark.parametrize("data", [b"1" * 5000, b"[" * 100_000],
                             ids=["int-past-digit-limit", "nested-too-deep"])
    def test_undecodable_json_rejected(self, data):
        with pytest.raises(RecordError):
            TlsServer(SimRng(1, "s")).handle(data)

    @pytest.mark.parametrize("field, value", [
        ("finished", _ABSENT),
        ("public", _ABSENT),
        ("public", 12345),
        ("public", "zz"),
        ("nonce", 7),
        ("finished", 5),
    ], ids=lambda v: "absent" if v is _ABSENT else str(v))
    def test_client_rejects_server_hello(self, field, value):
        reply = _server_hello()
        if value is _ABSENT:
            del reply[field]
        else:
            reply[field] = value
        with pytest.raises(HandshakeError):
            _client_against(reply).handshake()

    @pytest.mark.parametrize("reply", [
        {"type": "record", "seq": None, "payload": "00"},
        {"type": "record", "seq": 0, "payload": 5},
        {"type": "record", "seq": 0},
    ], ids=["seq-null", "payload-not-string", "no-payload"])
    def test_client_rejects_record_reply(self, pair, reply):
        server, client = pair
        client.handshake()
        client._transport = lambda _: json.dumps(reply).encode()
        with pytest.raises(RecordError):
            client.request(b"data")

    @given(st.sampled_from(["client_hello", "record"]), _FIELDS)
    @settings(max_examples=60, deadline=None)
    def test_fuzz_server_raises_only_tls_errors(self, connected_server,
                                                kind, fields):
        try:
            connected_server.handle(json.dumps({"type": kind, **fields}).encode())
        except CryptoError:
            pass

    @given(_FIELDS)
    @settings(max_examples=60, deadline=None)
    def test_fuzz_client_raises_only_tls_errors(self, fields):
        try:
            _client_against({"type": "server_hello", **fields}).handshake()
        except CryptoError:
            pass


class TestAvsProtocol:
    def test_event_round_trip(self):
        event = AvsEvent.recognize("play music", dialog_id=3)
        parsed = AvsEvent.from_bytes(event.to_bytes())
        assert parsed.name == "Recognize"
        assert parsed.payload["transcript"] == "play music"
        assert parsed.payload["dialogRequestId"] == 3

    def test_heartbeat_shape(self):
        event = AvsEvent.heartbeat()
        assert event.namespace == "System"

    def test_malformed_event_rejected(self):
        with pytest.raises(RecordError):
            AvsEvent.from_bytes(b"{}")
        with pytest.raises(RecordError):
            AvsEvent.from_bytes(b"junk")

    def test_client_over_secure_channel(self, pair):
        server, client = pair
        received = []

        def app(plaintext):
            received.append(AvsEvent.from_bytes(plaintext))
            return json.dumps({"directive": "Ack"}).encode()

        server.set_handler(app)
        client.handshake()
        avs = AvsClient(client.request)
        directive = avs.recognize("what time is it")
        assert directive == {"directive": "Ack"}
        assert received[0].payload["transcript"] == "what time is it"
        assert avs.events_sent == 1

    def test_dialog_ids_increment(self, pair):
        server, client = pair
        server.set_handler(lambda pt: b'{"directive":"Ack"}')
        client.handshake()
        avs = AvsClient(client.request)
        avs.recognize("a")
        avs.recognize("b")
        assert avs._dialog_id == 2
