"""A TLS-1.3-shaped handshake and record layer (simulation-grade).

The structure mirrors TLS 1.3's one-round-trip flow over a
request/response transport:

1. ``ClientHello``: client ephemeral DH share + nonce.
2. ``ServerHello``: server ephemeral share + nonce + a *finished* MAC
   binding the transcript under a key derived from both the ephemeral
   secret and the server's static (pinned) key — authenticating the
   server against man-in-the-middle.
3. Traffic keys are derived per direction via HKDF; records are AEAD
   framed with explicit sequence numbers (replay/reorder detection).

Crypto strength caveats are in :mod:`repro.crypto`'s docstring; the
*protocol* properties the reproduction measures — confidentiality from
the wire observer, tamper evidence, replay rejection — all hold.

Wire format: JSON with hex-encoded binary fields (legible in the
supplicant's wire log, which is itself part of the evaluation: tests
assert transcripts never appear there in the clear).
"""

from __future__ import annotations

import json
import operator
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

from repro.crypto.aead import StreamAead
from repro.crypto.dh import DhKeyPair, shared_secrets
from repro.crypto.kdf import hkdf_expand, hkdf_extract, hmac_sha256
from repro.errors import HandshakeError, RecordError
from repro.sim.rng import SimRng

_PROTOCOL_LABEL = b"repro-tls-v1"


def _derive_keys(shared: bytes, static_pub: bytes,
                 client_nonce: bytes, server_nonce: bytes) -> dict[str, bytes]:
    """Handshake → traffic keys and finished key."""
    transcript = _PROTOCOL_LABEL + client_nonce + server_nonce + static_pub
    prk = hkdf_extract(transcript, shared)
    return {
        "client_traffic": hkdf_expand(prk, b"c traffic", 32),
        "server_traffic": hkdf_expand(prk, b"s traffic", 32),
        "finished": hkdf_expand(prk, b"finished", 32),
    }


def _nonce(seq: int) -> bytes:
    return seq.to_bytes(12, "little")


#: What reading a field of a decoded message raises when the field is
#: missing or of the wrong type or format; the readers below turn these
#: into the protocol's own errors.
_MALFORMED_FIELD = (KeyError, TypeError, ValueError)


def _parse_wire(data: bytes) -> dict:
    """Decode one wire message; corruption anywhere becomes RecordError.

    The network is untrusted and may hand back arbitrary bytes — a flipped
    bit must surface as a catchable protocol error, never as a stray
    ``UnicodeDecodeError`` escaping into the caller.  Valid JSON with
    missing or malformed fields is rejected by the message's reader
    (:class:`HandshakeError` for hellos, :class:`RecordError` for records).
    """
    try:
        msg = json.loads(data.decode())
    except (ValueError, RecursionError) as exc:
        # ValueError covers undecodable bytes, invalid JSON and integer
        # literals past the interpreter's digit limit; RecursionError,
        # arrays nested too deep for the decoder.
        raise RecordError(f"malformed TLS message: {exc}") from exc
    if not isinstance(msg, dict):
        raise RecordError("malformed TLS message: not an object")
    return msg


class TlsServer:
    """Server side: static identity key + per-connection state.

    ``static`` is the DH identity clients pin (:attr:`static_public`);
    without one, the server generates its own from ``rng``.
    """

    def __init__(self, rng: SimRng, static: DhKeyPair | None = None):
        self._rng = rng
        if static is None:
            static = DhKeyPair.generate(rng.fork("static").bytes(32))
        self._static = static
        self._conn: dict | None = None

    @property
    def static_public(self) -> bytes:
        """The pinned server identity (what a client must know a priori)."""
        return self._static.public_bytes()

    def handle(self, request: bytes) -> bytes:
        """Process one wire message (handshake or record)."""
        msg = _parse_wire(request)
        kind = msg.get("type")
        if kind == "client_hello":
            return self._server_hello(msg)
        if kind == "record":
            return self._record(msg)
        raise RecordError(f"unknown TLS message type {kind!r}")

    def _server_hello(self, msg: dict) -> bytes:
        try:
            client_pub = int(msg["public"], 16)
            client_nonce = bytes.fromhex(msg["nonce"])
        except _MALFORMED_FIELD as exc:
            raise HandshakeError(f"malformed client hello: {exc}") from exc
        ephemeral = DhKeyPair.generate(self._rng.fork(f"eph{msg['nonce']}").bytes(32))
        server_nonce = self._rng.bytes(16)
        # Bind both the ephemeral DH and the static identity.
        shared = b"".join(shared_secrets(client_pub, (ephemeral, self._static)))
        keys = _derive_keys(shared, self.static_public, client_nonce, server_nonce)
        finished = hmac_sha256(
            keys["finished"], b"server" + client_nonce + server_nonce
        )
        self._conn = {
            "recv": StreamAead(keys["client_traffic"]),
            "send": StreamAead(keys["server_traffic"]),
            "recv_seq": 0,
            "send_seq": 0,
            "app_handler": self._app_handler,
        }
        return json.dumps(
            {
                "type": "server_hello",
                "public": format(ephemeral.public, "x"),
                "nonce": server_nonce.hex(),
                "finished": finished.hex(),
            }
        ).encode()

    # Application payload handler; the cloud service overrides via set_handler.
    def _app_handler(self, plaintext: bytes) -> bytes:
        return b'{"type":"ack"}'

    def set_handler(self, handler) -> None:
        """Install the application-layer handler (``bytes -> bytes``)."""
        self._app_handler = handler
        if self._conn is not None:
            self._conn["app_handler"] = handler

    def _record(self, msg: dict) -> bytes:
        if self._conn is None:
            raise HandshakeError("record before handshake")
        conn = self._conn
        try:
            seq = operator.index(msg["seq"])
            sealed = bytes.fromhex(msg["payload"])
        except _MALFORMED_FIELD as exc:
            raise RecordError(f"malformed record: {exc}") from exc
        if seq != conn["recv_seq"]:
            raise RecordError(
                f"bad record sequence: got {seq}, want {conn['recv_seq']}"
            )
        plaintext = conn["recv"].open(_nonce(seq), sealed)
        conn["recv_seq"] += 1
        reply = conn["app_handler"](plaintext)
        out_seq = conn["send_seq"]
        conn["send_seq"] += 1
        sealed_reply = conn["send"].seal(_nonce(out_seq), reply)
        return json.dumps(
            {"type": "record", "seq": out_seq, "payload": sealed_reply.hex()}
        ).encode()


class TlsClient:
    """Client side, bound to a transport callable ``bytes -> bytes``."""

    def __init__(
        self,
        transport,
        pinned_server_public: bytes,
        rng: SimRng,
        metrics: "MetricsRegistry | None" = None,
    ):
        self._transport = transport
        self._pinned = pinned_server_public
        self._rng = rng
        self._metrics = metrics
        self._send: StreamAead | None = None
        self._recv: StreamAead | None = None
        self._send_seq = 0
        self._recv_seq = 0
        self.handshakes = 0
        self.handshake_attempts = 0

    def _count(self, name: str, n: int = 1) -> None:
        """Record a connection-layer metric (no-op without a registry)."""
        if self._metrics is not None:
            self._metrics.inc(name, n)

    @property
    def connected(self) -> bool:
        """True after a successful handshake."""
        return self._send is not None

    def reset(self) -> None:
        """Drop the connection state (broken transport / failed record).

        After a network fault the client cannot trust its sequence numbers
        or traffic keys to still match the server's; the next
        :meth:`handshake` negotiates a fresh connection.  The handshake
        counters are *not* reset — ``handshake_attempts`` keys the
        per-handshake ephemeral RNG fork, so every retry uses fresh
        ephemerals.
        """
        self._send = None
        self._recv = None
        self._send_seq = 0
        self._recv_seq = 0

    def handshake(self) -> None:
        """Run the 1-RTT handshake; verifies the server's finished MAC."""
        # Keyed by *attempts*, not successes: a failed handshake must not
        # reuse its ephemeral on the retry.
        ephemeral = DhKeyPair.generate(
            self._rng.fork(f"hs{self.handshake_attempts}").bytes(32)
        )
        self.handshake_attempts += 1
        client_nonce = self._rng.bytes(16)
        hello = json.dumps(
            {
                "type": "client_hello",
                "public": format(ephemeral.public, "x"),
                "nonce": client_nonce.hex(),
            }
        ).encode()
        reply = _parse_wire(self._transport(hello))
        if reply.get("type") != "server_hello":
            raise HandshakeError(f"unexpected reply {reply.get('type')!r}")
        try:
            server_pub = int(reply["public"], 16)
            server_nonce = bytes.fromhex(reply["nonce"])
            finished = reply["finished"]
        except _MALFORMED_FIELD as exc:
            raise HandshakeError(f"malformed server hello: {exc}") from exc
        pinned_pub_int = int.from_bytes(self._pinned, "big")
        shared = ephemeral.shared_secret(server_pub) + ephemeral.pinned_secret(
            pinned_pub_int
        )
        keys = _derive_keys(shared, self._pinned, client_nonce, server_nonce)
        expect = hmac_sha256(
            keys["finished"], b"server" + client_nonce + server_nonce
        )
        if expect.hex() != finished:
            raise HandshakeError("server finished MAC mismatch (MITM?)")
        self._send = StreamAead(keys["client_traffic"])
        self._recv = StreamAead(keys["server_traffic"])
        self._send_seq = 0
        self._recv_seq = 0
        self.handshakes += 1
        self._count("tls.handshakes")

    def request(self, plaintext: bytes) -> bytes:
        """Send one application message; returns the decrypted reply."""
        if self._send is None or self._recv is None:
            raise HandshakeError("request before handshake")
        seq = self._send_seq
        self._send_seq += 1
        sealed = self._send.seal(_nonce(seq), plaintext)
        wire = json.dumps(
            {"type": "record", "seq": seq, "payload": sealed.hex()}
        ).encode()
        reply = _parse_wire(self._transport(wire))
        if reply.get("type") != "record":
            raise RecordError(f"unexpected reply {reply.get('type')!r}")
        try:
            rseq = operator.index(reply["seq"])
            sealed_reply = bytes.fromhex(reply["payload"])
        except _MALFORMED_FIELD as exc:
            raise RecordError(f"malformed record: {exc}") from exc
        if rseq != self._recv_seq:
            raise RecordError(f"bad reply sequence {rseq}, want {self._recv_seq}")
        self._recv_seq += 1
        plaintext = self._recv.open(_nonce(rseq), sealed_reply)
        self._count("tls.records")
        self._count("tls.record_bytes", len(wire))
        return plaintext
