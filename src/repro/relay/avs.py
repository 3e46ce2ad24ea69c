"""AVS-style application protocol.

A minimal Alexa-Voice-Service-shaped event protocol: the device sends
JSON *events* (``Recognize`` with a transcript, ``Alert`` with a health
alert, ``SynchronizeState`` as a heartbeat), the cloud answers with
*directives* (``Response``, ``AlertAck``, ``Ack``, ``Throttled``).
Enough structure for the cloud service to act as a realistic recorder of
what it was sent.  Each side treats the other as untrusted: whatever it
cannot parse is a :class:`~repro.errors.RecordError`.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Any

from repro.errors import RecordError


#: What reading a field of a decoded event raises when the field is
#: missing or of the wrong type; :meth:`AvsEvent.from_bytes` and
#: :meth:`AvsEvent.dialog` turn these into :class:`RecordError`.
_MALFORMED_FIELD = (KeyError, TypeError, ValueError, RecursionError)

#: Relayed payload kind → ``(namespace, event name, body key)``.  The relay
#: sends, spills and drains every kind the same way; only the event that
#: carries the payload differs.
EVENT_KINDS: dict[str, tuple[str, str, str]] = {
    "transcript": ("SpeechRecognizer", "Recognize", "transcript"),
    "alert": ("System", "Alert", "alert"),
}


@dataclass(frozen=True)
class AvsEvent:
    """One device→cloud event."""

    namespace: str
    name: str
    payload: dict[str, Any]

    def to_bytes(self) -> bytes:
        """JSON wire encoding."""
        return json.dumps(
            {
                "event": {
                    "header": {"namespace": self.namespace, "name": self.name},
                    "payload": self.payload,
                }
            }
        ).encode()

    @classmethod
    def of_kind(
        cls,
        kind: str,
        body: str,
        dialog_id: int,
        attempt: int = 1,
        device_id: str = "",
    ) -> "AvsEvent":
        """The event carrying one relayed payload of ``kind``.

        ``kind`` picks namespace, event name and body key from
        :data:`EVENT_KINDS`.  ``attempt`` counts delivery attempts of the
        *same* logical event (``dialogRequestId`` is stable across
        retries), so the cloud can suppress duplicates when only a reply
        was lost.  ``device_id`` scopes that suppression per sender —
        dialog ids are per-device counters.  Each of the two is omitted at
        its default, so first-attempt, single-device runs keep the wire
        bytes of a protocol without them; :meth:`dialog` reads them back
        with those defaults.  No trace id is carried: the device keeps
        it, and the ``(deviceId, dialogRequestId)`` pair joins the
        event to the device-side spans of its utterance.
        """
        namespace, name, body_key = EVENT_KINDS[kind]
        payload: dict[str, Any] = {body_key: body, "dialogRequestId": dialog_id}
        if attempt > 1:
            payload["attempt"] = attempt
        if device_id:
            payload["deviceId"] = device_id
        return cls(namespace=namespace, name=name, payload=payload)

    @classmethod
    def recognize(
        cls, transcript: str, dialog_id: int, **fields: Any
    ) -> "AvsEvent":
        """The speech-recognition event: ``of_kind("transcript", …)``."""
        return cls.of_kind("transcript", transcript, dialog_id, **fields)

    @classmethod
    def heartbeat(cls) -> "AvsEvent":
        """Keep-alive event."""
        return cls(namespace="System", name="SynchronizeState", payload={})

    def dialog(self) -> tuple[int, int, str]:
        """``(dialog_id, attempt, device_id)`` of this event.

        Omitted fields read as the defaults :meth:`of_kind` omits (a
        missing dialog id as ``-1``).  The sender is untrusted: a dialog
        id or attempt that is not an integer raises :class:`RecordError`.
        """
        get = self.payload.get
        try:
            return (
                operator.index(get("dialogRequestId", -1)),
                operator.index(get("attempt", 1)),
                str(get("deviceId", "")),
            )
        except _MALFORMED_FIELD as exc:
            raise RecordError(f"malformed AVS event field: {exc}") from exc

    @classmethod
    def from_bytes(cls, data: bytes) -> "AvsEvent":
        """Parse the wire encoding; anything malformed is a RecordError.

        The sender is untrusted: undecodable bytes, JSON without an
        event header, and a payload that is not an object all raise
        :class:`RecordError`, never a stray ``TypeError``.
        """
        try:
            doc = json.loads(data.decode())
            header = doc["event"]["header"]
            event = cls(
                namespace=header["namespace"],
                name=header["name"],
                payload=doc["event"].get("payload", {}),
            )
        except _MALFORMED_FIELD as exc:
            raise RecordError(f"malformed AVS event: {exc}") from exc
        if not isinstance(event.payload, dict):
            raise RecordError("malformed AVS event: payload is not an object")
        return event


class AvsClient:
    """Device-side AVS protocol over an encrypted request function."""

    def __init__(self, request, device_id: str = ""):
        """``request`` is a ``bytes -> bytes`` secure channel call.

        ``device_id``, when non-empty, is stamped into every Recognize and
        Alert event so the cloud can scope duplicate suppression per
        sender.
        """
        self._request = request
        self._device_id = device_id
        self._dialog_id = 0
        self.events_sent = 0

    def allocate_dialog_id(self) -> int:
        """Reserve the id for one logical event (stable across retries)."""
        self._dialog_id += 1
        return self._dialog_id

    @property
    def dialog_cursor(self) -> int:
        """The last allocated dialog id (checkpointed for crash recovery)."""
        return self._dialog_id

    def restore_dialog_cursor(self, value: int) -> None:
        """Advance the id counter after a restart (never moves backwards).

        A restarted instance must not re-allocate an id its predecessor
        already spent — the cloud's duplicate suppression would silently
        eat the *new* event.
        """
        self._dialog_id = max(self._dialog_id, int(value))

    def recognize(
        self,
        body: str,
        dialog_id: int | None = None,
        attempt: int = 1,
        kind: str = "transcript",
    ) -> dict[str, Any]:
        """Send one relayed payload; returns the cloud's directive.

        ``kind`` picks the event from :data:`EVENT_KINDS` — by default a
        ``Recognize`` carrying a transcript, or a ``System.Alert``.
        """
        if dialog_id is None:
            dialog_id = self.allocate_dialog_id()
        reply = self._request(
            AvsEvent.of_kind(
                kind, body, dialog_id, attempt, self._device_id
            ).to_bytes()
        )
        self.events_sent += 1
        return self._parse_directive(reply)

    def heartbeat(self) -> dict[str, Any]:
        """Send a keep-alive."""
        reply = self._request(AvsEvent.heartbeat().to_bytes())
        self.events_sent += 1
        return self._parse_directive(reply)

    @staticmethod
    def _parse_directive(reply: bytes) -> dict[str, Any]:
        """Decode the cloud's reply; anything malformed is a RecordError.

        The cloud is untrusted.  A reply that is not a JSON object, or a
        ``Throttled`` verdict whose ``retryAfterCycles`` is not an
        integer, raises :class:`RecordError` — which the relay retries
        like any record fault, and then spills the payload sealed —
        instead of a stray exception that would panic the TA.
        """
        try:
            directive = json.loads(reply.decode())
            # Only a JSON object has ``get``; ``operator.index`` rejects a
            # retry hint that is not an integer.
            if directive.get("directive") == "Throttled":
                operator.index(directive.get("retryAfterCycles", 1))
        except (AttributeError, *_MALFORMED_FIELD) as exc:
            raise RecordError(f"malformed directive: {exc}") from exc
        return directive
