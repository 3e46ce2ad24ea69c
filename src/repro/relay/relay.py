"""The relay module hosted inside the TA.

Fig. 1 steps 6–7: after filtering, the TA's relay ships the remaining
data to the cloud "via a relay module in the TA", which "leverages an
OP-TEE user space daemon called the TEE supplicant to provide OS-level
services such as network communication".

Concretely: the TLS client state (keys!) lives secure-side; each request
is sealed in the TA, then the ciphertext crosses to the supplicant via
RPC and onto the in-memory network.  Costs charged: handshake (once per
connection), AEAD per byte, NIC per byte.

The supplicant and the network are untrusted, so delivery can fail at any
point: the relay retries with capped exponential backoff and deterministic
jitter, resetting the TLS connection state between attempts (sequence
numbers and traffic keys cannot be trusted to match the server's after a
fault, so each retry re-handshakes).  When every attempt fails it raises
:class:`~repro.errors.RelayDeliveryError`; the TA catches that and spills
the payload into the sealed store-and-forward queue.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import (
    CryptoError,
    RelayExhaustedError,
    RelayThrottledError,
    TeeCommunicationError,
)
from repro.optee.ta import TaContext
from repro.relay.avs import AvsClient
from repro.relay.tls import TlsClient
from repro.sim.rng import SimRng


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    The ``attempt``-th retry (0-based) waits
    ``min(cap, base * multiplier**attempt) * (1 + jitter_fraction * u)``
    cycles, with ``u`` drawn from the relay's own RNG fork — reproducible
    for a given seed, yet desynchronized across devices sharing a config.
    """

    max_attempts: int = 4
    backoff_base_cycles: int = 50_000
    backoff_multiplier: float = 2.0
    backoff_cap_cycles: int = 800_000
    jitter_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")

    def backoff_cycles(self, attempt: int, rng: SimRng) -> int:
        """Cycles to wait after failed attempt number ``attempt``."""
        base = min(
            self.backoff_cap_cycles,
            self.backoff_base_cycles * self.backoff_multiplier ** attempt,
        )
        return int(base * (1.0 + self.jitter_fraction * rng.random()))


class RelayModule:
    """Secure-side relay: TLS + AVS over supplicant networking."""

    def __init__(
        self,
        ctx: TaContext,
        host: str,
        port: int,
        pinned_server_public: bytes,
        rng: SimRng,
        retry_policy: RetryPolicy | None = None,
        device_id: str = "",
    ):
        self._ctx = ctx
        self._host = host
        self._port = port
        # The TLS client reaches the transport through a weak proxy: the
        # relay owns the client, so a bound method would be a cycle.
        relay = weakref.proxy(self)
        self._tls = TlsClient(
            lambda payload: relay._transport(payload), pinned_server_public,
            rng, metrics=ctx.metrics,
        )
        self._avs = AvsClient(self._tls.request, device_id=device_id)
        self._backoff_rng = rng.fork("backoff")
        self.policy = retry_policy or RetryPolicy()
        self.bytes_sent = 0
        self.last_attempts = 0
        # Cycle stamp until which the server's last Throttled verdict
        # holds: while the TA's clock is before it, deliveries defer
        # locally (no wire traffic) instead of hammering the cloud.
        self.backpressure_until = 0
        self.stats: dict[str, int] = {
            "sent": 0,
            "failed": 0,
            "retries": 0,
            "rehandshakes": 0,
            "backoff_cycles": 0,
            "throttled": 0,
            "throttle_deferred": 0,
        }

    def _transport(self, payload: bytes) -> bytes:
        """One supplicant-mediated network round trip (ciphertext only)."""
        costs = self._ctx._os.machine.costs
        with self._ctx.span("tls_record", category="stage.secure",
                            bytes=len(payload)):
            self._ctx.compute(int(len(payload) * costs.crypto_cycles_per_byte))
            self.bytes_sent += len(payload)
            reply = self._ctx.rpc(
                "net", "send", self._host, self._port, payload
            )
            self._ctx.compute(int(len(reply) * costs.crypto_cycles_per_byte))
        return bytes(reply)

    def connect(self) -> None:
        """Perform the TLS handshake (idempotent while connected)."""
        if self._tls.connected:
            return
        costs = self._ctx._os.machine.costs
        with self._ctx.span("tls_handshake", category="stage.secure"):
            self._ctx.compute(costs.handshake_cycles)
            if self._tls.handshakes > 0:
                self.stats["rehandshakes"] += 1
                self._ctx.metrics.inc("relay.rehandshakes")
            self._tls.handshake()
        self._ctx.log("tls_connected", handshakes=self._tls.handshakes)

    def _deliver(self, op: Callable[[], dict[str, Any]]) -> dict[str, Any]:
        """Run one AVS operation with retry, backoff and re-handshake.

        Two failure shapes, deliberately typed apart:

        * transient faults (transport/record errors) burn the
          :class:`RetryPolicy` budget and end in
          :class:`~repro.errors.RelayExhaustedError`;
        * a ``Throttled`` admission verdict is *server-directed*
          backpressure — no client-side retries at all.  The verdict's
          ``retryAfterCycles`` hint opens a local backpressure window;
          until it closes, further deliveries defer without any wire
          traffic (:class:`~repro.errors.RelayThrottledError` with
          ``deferred=True``).
        """
        now = self._ctx.now()
        if now < self.backpressure_until:
            self.last_attempts = 0
            self.stats["throttle_deferred"] += 1
            self._ctx.metrics.inc("relay.throttle_deferred")
            raise RelayThrottledError(
                retry_after_cycles=self.backpressure_until - now,
                attempts=0,
                deferred=True,
            )
        # The last failure's text, not the exception: an exception kept in
        # a local holds this frame through its traceback, a cycle that
        # would keep the whole device alive after a retried delivery.
        last_error: str | None = None
        backoff_spent = 0
        for attempt in range(self.policy.max_attempts):
            try:
                self.connect()
                directive = op()
            except (TeeCommunicationError, CryptoError) as exc:
                last_error = str(exc)
                # The connection state is suspect after any transport or
                # record failure; force a fresh handshake on the next try.
                self._tls.reset()
                self._ctx.log(
                    "relay_retry",
                    attempt=attempt + 1,
                    error=type(exc).__name__,
                )
                if attempt + 1 < self.policy.max_attempts:
                    self.stats["retries"] += 1
                    self._ctx.metrics.inc("relay.retries")
                    delay = self.policy.backoff_cycles(attempt, self._backoff_rng)
                    self.stats["backoff_cycles"] += delay
                    backoff_spent += delay
                    with self._ctx.span("relay_backoff", category="stage.secure",
                                        attempt=attempt + 1):
                        self._ctx.compute(delay)
                continue
            if directive.get("directive") == "Throttled":
                retry_after = max(1, int(directive.get("retryAfterCycles", 1)))
                self.backpressure_until = self._ctx.now() + retry_after
                self.last_attempts = attempt + 1
                self.stats["throttled"] += 1
                self._ctx.metrics.inc("relay.throttled")
                self._ctx.log(
                    "relay_throttled",
                    retry_after_cycles=retry_after,
                    attempt=attempt + 1,
                )
                raise RelayThrottledError(
                    retry_after_cycles=retry_after, attempts=attempt + 1
                )
            self.last_attempts = attempt + 1
            self.stats["sent"] += 1
            self._ctx.metrics.inc("relay.sent")
            self._ctx.metrics.observe("relay.attempts", attempt + 1)
            return directive
        self.last_attempts = self.policy.max_attempts
        self.stats["failed"] += 1
        self._ctx.metrics.inc("relay.failed")
        self._ctx.log(
            "relay_exhausted",
            attempts=self.policy.max_attempts,
            backoff_cycles=backoff_spent,
        )
        raise RelayExhaustedError(
            f"cloud unreachable: {last_error}",
            attempts=self.policy.max_attempts,
            backoff_cycles=backoff_spent,
        )

    def allocate_dialog_id(self) -> int:
        """Reserve the id for one logical event (stable across retries)."""
        return self._avs.allocate_dialog_id()

    @property
    def dialog_cursor(self) -> int:
        """The last allocated dialog id (checkpointed by supervised TAs)."""
        return self._avs.dialog_cursor

    def restore_dialog_cursor(self, value: int) -> None:
        """Advance the dialog-id counter after a checkpoint restore."""
        self._avs.restore_dialog_cursor(value)

    def send_payload(
        self,
        kind: str,
        payload: str,
        dialog_id: int | None = None,
        prior_attempts: int = 0,
    ) -> dict[str, Any]:
        """Ship one (already filtered) payload of ``kind`` to the cloud.

        ``kind`` names the event that carries it
        (:data:`~repro.relay.avs.EVENT_KINDS`): ``"transcript"`` for
        decisions, ``"alert"`` for health alerts.  Retries per
        :attr:`policy`; raises :class:`~repro.errors.RelayDeliveryError`
        once exhausted.  Delivery is at-least-once on the wire, but every
        attempt of one logical event carries the same ``dialog_id`` (pass
        the stored id and ``prior_attempts`` when re-sending a queued
        payload), so the cloud can suppress duplicates when only a reply
        was lost.
        """
        if dialog_id is None:
            dialog_id = self.allocate_dialog_id()
        attempts = itertools.count(prior_attempts + 1)
        return self._deliver(
            lambda: self._avs.recognize(
                payload, dialog_id, next(attempts), kind=kind
            )
        )

    def heartbeat(self) -> dict[str, Any]:
        """Send a keep-alive through the secure channel (with retries)."""
        return self._deliver(self._avs.heartbeat)
