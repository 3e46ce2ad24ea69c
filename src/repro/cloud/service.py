"""The cloud voice service (honest-but-curious adversary).

Terminates TLS, speaks the AVS-style protocol, answers every Recognize
with a directive — and appends every transcript it ever sees to
:attr:`received_transcripts`.  Registered as a network endpoint with the
supplicant's :class:`~repro.optee.supplicant.NetworkService`.

A ``plaintext_port`` variant accepts unencrypted events, modelling the
baseline device that sends raw data; the wire eavesdropper sees those
bytes in the clear.

Ingestion tier (production shape)
---------------------------------

Every Recognize passes a sharded, multi-tenant admission tier sized by
an :class:`IngestionConfig` and gets an *admission verdict*.  Tenants
(devices) hash to shards; each tenant owns a token bucket (rate limit)
and a bounded pending queue.  An event that finds tokens and queue space
is admitted — its dedup key registers *at admission*, so a retry of an
admitted-but-uncommitted event is suppressed exactly like a committed
one.  An event that finds neither is answered ``{"directive":
"Throttled", "retryAfterCycles": N}`` with a deterministic hint derived
from the bucket's refill rate and the tenant's backlog; nothing
registers, so the device's later re-send (same dialog id, higher
attempt) is admitted normally.  Admitted events *commit* (append to
:attr:`received`) as the service's modelled drain loop catches up —
driven by the simulation clock at ``service_cycles_per_record`` — or all
at once via :meth:`flush` at end of run.

The default profile, :meth:`IngestionConfig.unthrottled`, never
throttles and commits every accepted event at admission.
"""

from __future__ import annotations

import json
import math
import weakref
import zlib
from collections import deque
from dataclasses import dataclass, field

from repro.errors import RecordError
from repro.obs.metrics import MetricsRegistry
from repro.relay.avs import AvsEvent
from repro.relay.tls import TlsServer
from repro.sim.clock import SimClock
from repro.sim.rng import SimRng


@dataclass
class CloudRecord:
    """One transcript as the cloud received it.

    ``trace_id`` is the device-derived correlation id carried on the
    event (empty for trace-off senders) — it lets an operator join this
    record with the device-side spans of the same utterance.
    """

    transcript: str
    dialog_id: int
    encrypted_transport: bool
    attempt: int = 1
    device_id: str = ""
    trace_id: str = ""


@dataclass(frozen=True)
class IngestionConfig:
    """Sizing of the sharded multi-tenant admission tier.

    ``shards`` partitions tenants (by a deterministic CRC of the device
    id — never Python's salted ``hash``); each tenant gets a token
    bucket of ``bucket_capacity`` tokens refilling one token per
    ``refill_cycles_per_token`` cycles, plus a pending queue bounded at
    ``tenant_queue_depth``.  The drain loop commits one pending record
    per ``service_cycles_per_record`` cycles per shard.  A cost of 0
    means "no cost": ``refill_cycles_per_token=0`` keeps every bucket
    full and ``service_cycles_per_record=0`` commits at admission.
    Admission latency is modelled (not charged to the caller) as
    ``admission_base_cycles + admission_cycles_per_pending × backlog``.
    """

    shards: int = 4
    tenant_queue_depth: int = 8
    bucket_capacity: int = 4
    refill_cycles_per_token: int = 2_000_000
    service_cycles_per_record: int = 500_000
    admission_base_cycles: int = 2_000
    admission_cycles_per_pending: int = 150

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be at least 1")
        if self.tenant_queue_depth < 1:
            raise ValueError("tenant_queue_depth must be at least 1")
        if self.bucket_capacity < 1:
            raise ValueError("bucket_capacity must be at least 1")
        for name in (
            "refill_cycles_per_token",
            "service_cycles_per_record",
            "admission_base_cycles",
            "admission_cycles_per_pending",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @classmethod
    def overload(cls) -> "IngestionConfig":
        """The ``--overload`` profile: capacity far below offered load.

        One token refills per ~2 s of simulated time (4e9 cycles at the
        2 GHz sim clock — much longer than any utterance cadence) and
        tenants queue at most two pending events, so after the first
        admission a device slams into Throttled verdicts — the profile
        the device-side backpressure loop (server-directed backoff,
        sealed queue, bounded-depth shedding) is proven against.
        """
        return cls(
            shards=2,
            tenant_queue_depth=2,
            bucket_capacity=1,
            refill_cycles_per_token=4_000_000_000,
            service_cycles_per_record=2_000_000_000,
        )

    @classmethod
    def unthrottled(cls) -> "IngestionConfig":
        """The default profile: free tokens and an instant drain loop.

        Every bucket is always full and every accepted event commits at
        admission, so no verdict is ever Throttled and :attr:`received`
        is current after every event.
        """
        return cls(refill_cycles_per_token=0, service_cycles_per_record=0)


def tenant_shard(device_id: str, shards: int) -> int:
    """Deterministic tenant→shard mapping (CRC32, never salted hash).

    ``surrogatepass`` keeps a sender id that is valid JSON but not valid
    UTF-8 (a lone surrogate) hashable; valid ids encode as plain UTF-8.
    """
    return zlib.crc32(device_id.encode("utf-8", "surrogatepass")) % shards


@dataclass
class _TenantState:
    """One tenant's bucket and pending queue inside a shard."""

    tokens: float
    last_refill: int
    pending: deque = field(default_factory=deque)


class _IngestShard:
    """One shard: tenant states plus a round-robin drain cursor."""

    def __init__(self, config: IngestionConfig):
        self.config = config
        self.tenants: dict[str, _TenantState] = {}
        # Tenant ids in first-seen order; the drain loop round-robins
        # over this list so no tenant starves behind a noisy neighbour.
        self.order: list[str] = []
        self.drain_cursor = 0
        self.last_drain_cycle: int | None = None

    def tenant(self, device_id: str, now: int) -> _TenantState:
        state = self.tenants.get(device_id)
        if state is None:
            state = _TenantState(
                tokens=float(self.config.bucket_capacity), last_refill=now
            )
            self.tenants[device_id] = state
            self.order.append(device_id)
        return state

    def refill(self, state: _TenantState, now: int) -> None:
        """Advance the token bucket to ``now`` (integer-exact)."""
        elapsed = max(0, now - state.last_refill)
        if self.config.refill_cycles_per_token <= 0:
            state.tokens = float(self.config.bucket_capacity)
            state.last_refill = now
            return
        earned = elapsed // self.config.refill_cycles_per_token
        if earned:
            state.tokens = min(
                float(self.config.bucket_capacity), state.tokens + earned
            )
            state.last_refill += earned * self.config.refill_cycles_per_token

    def depth(self) -> int:
        """Pending (admitted, uncommitted) records across the shard."""
        return sum(len(t.pending) for t in self.tenants.values())

    def pop_next(self):
        """Round-robin pop of the oldest pending record, or ``None``."""
        if not self.order:
            return None
        for _ in range(len(self.order)):
            tenant = self.order[self.drain_cursor % len(self.order)]
            self.drain_cursor = (self.drain_cursor + 1) % len(self.order)
            pending = self.tenants[tenant].pending
            if pending:
                return pending.popleft()
        return None


class VoiceCloudService:
    """AVS-flavoured endpoint with adversarial logging."""

    HOST = "avs.cloud.example"
    TLS_PORT = 443
    PLAINTEXT_PORT = 80

    def __init__(
        self,
        rng: SimRng,
        clock: SimClock,
        metrics: MetricsRegistry | None = None,
        ingestion: IngestionConfig = IngestionConfig.unthrottled(),
    ):
        """``clock`` drives the admission tier sized by ``ingestion``.

        The service reads ``clock`` and never advances it.  ``metrics``
        receives the ``cloud.ingest.*`` namespace; without one the
        service keeps a private registry.
        """
        self.tls = TlsServer(rng.fork("tls-server"))
        # Weak, so the service and the TLS server it owns are no cycle.
        service = weakref.proxy(self)
        self.tls.set_handler(
            lambda pt: service._handle_event(pt, encrypted=True)
        )
        self.received: list[CloudRecord] = []
        self.events_handled = 0
        # Delivery is at-least-once under an unreliable network: a retry of
        # a dialog id the service already recorded (attempt > 1, same id,
        # same sender) is acknowledged but not recorded again.  The sender
        # identity is part of the key — dialog ids are per-device counters,
        # so two devices legitimately reuse the same id.
        self._seen_dialogs: set[tuple[bool, str, int]] = set()
        self.duplicates_suppressed = 0
        # Device-health alerts (SLO violations, flight-recorder dumps)
        # delivered through the same relay path as transcripts.
        self.alerts: list[dict] = []
        self.ingestion = ingestion
        self._clock = clock
        self._metrics = metrics if metrics is not None else MetricsRegistry()
        self._shards = [_IngestShard(ingestion) for _ in range(ingestion.shards)]
        self.accepted = 0
        self.throttled = 0
        self.committed = 0

    # -- endpoints (supplicant NetworkService interface) ------------------------

    def receive(self, payload: bytes) -> bytes:
        """TLS endpoint: handshake messages and records."""
        return self.tls.handle(payload)

    @property
    def plaintext_endpoint(self) -> "PlaintextEndpoint":
        """The port-80 endpoint accepting raw AVS events (baseline path)."""
        return PlaintextEndpoint(self)

    # -- ingestion tier ---------------------------------------------------------

    def pending_depth(self) -> int:
        """Admitted-but-uncommitted records across every shard."""
        return sum(shard.depth() for shard in self._shards)

    def _commit(self, now: int | None = None) -> int:
        """The modelled drain loop: commit what it has caught up to.

        Each shard commits one pending record per
        ``service_cycles_per_record`` cycles elapsed up to ``now``,
        round-robin across its tenants; a cost of 0 keeps up instantly,
        and ``now=None`` commits everything.  Driven lazily from event
        arrivals — the service owns no thread; the simulation clock is
        read, never advanced.  Refreshes the ``cloud.ingest.queue_depth``
        gauge and returns the number committed.
        """
        per_record = self.ingestion.service_cycles_per_record
        committed = 0
        for shard in self._shards:
            budget = math.inf
            if now is not None and per_record:
                if shard.last_drain_cycle is None:
                    shard.last_drain_cycle = now
                    continue
                budget = (now - shard.last_drain_cycle) // per_record
                shard.last_drain_cycle += budget * per_record
            while budget > 0:
                record = shard.pop_next()
                if record is None:
                    break
                self.received.append(record)
                self._metrics.inc("cloud.ingest.committed")
                committed += 1
                budget -= 1
        self.committed += committed
        self._metrics.set("cloud.ingest.queue_depth", self.pending_depth())
        return committed

    def flush(self) -> int:
        """Commit every pending record now (end-of-run settle).

        Returns the number committed.
        """
        return self._commit()

    def _admit(self, record: CloudRecord, key: tuple[bool, str, int]) -> int:
        """Admit or throttle one new (non-duplicate) Recognize.

        Returns 0 when admitted, else the Throttled verdict's
        ``retryAfterCycles`` (at least 1).
        """
        config = self.ingestion
        now = int(self._clock.now)
        self._commit(now)
        shard = self._shards[tenant_shard(record.device_id, config.shards)]
        state = shard.tenant(record.device_id, now)
        shard.refill(state, now)
        backlog = len(state.pending)
        if state.tokens < 1.0 or backlog >= config.tenant_queue_depth:
            # Deterministic retry hint: cycles until the bucket earns a
            # token, plus the time the drain loop needs to clear this
            # tenant's backlog — both pure functions of config + state.
            deficit = max(0.0, 1.0 - state.tokens)
            wait = int(deficit * config.refill_cycles_per_token)
            wait += backlog * config.service_cycles_per_record
            self.throttled += 1
            self._metrics.inc("cloud.ingest.throttled")
            return max(1, wait)
        state.tokens -= 1.0
        # Register at admission, not at commit: a reconnecting device
        # retrying an admitted-but-uncommitted event must be suppressed,
        # or the commit loop would record the decision twice.
        self._seen_dialogs.add(key)
        state.pending.append(record)
        self.accepted += 1
        self._metrics.inc("cloud.ingest.accepted")
        self._metrics.observe(
            "cloud.ingest.admission_cycles",
            config.admission_base_cycles
            + config.admission_cycles_per_pending * shard.depth(),
        )
        # With no per-record cost the drain loop commits this record
        # now; for any cost above 0 this second pass is a no-op.
        self._commit(now)
        return 0

    # -- application layer ------------------------------------------------------------

    def _handle_event(self, payload: bytes, encrypted: bool) -> bytes:
        try:
            event = AvsEvent.from_bytes(payload)
            dialog_id, attempt, device_id, trace_id = event.dialog()
        except RecordError:
            return json.dumps({"directive": "error", "reason": "bad event"}).encode()
        self.events_handled += 1
        key = (encrypted, device_id, dialog_id)
        if event.name == "Recognize":
            transcript = str(event.payload.get("transcript", ""))
            if attempt > 1 and key in self._seen_dialogs:
                # Idempotent replay: the sender never saw our first reply.
                self.duplicates_suppressed += 1
                self._metrics.inc("cloud.ingest.deduped")
            else:
                record = CloudRecord(
                    transcript=transcript,
                    dialog_id=dialog_id,
                    encrypted_transport=encrypted,
                    attempt=attempt,
                    device_id=device_id,
                    trace_id=trace_id,
                )
                retry_after = self._admit(record, key)
                if retry_after:
                    return json.dumps(
                        {"directive": "Throttled", "retryAfterCycles": retry_after}
                    ).encode()
            return json.dumps(
                {"directive": "Response", "speech": f"ok: {len(transcript)} chars"}
            ).encode()
        if event.name == "Alert":
            if attempt > 1 and key in self._seen_dialogs:
                self.duplicates_suppressed += 1
            else:
                self._seen_dialogs.add(key)
                try:
                    doc = json.loads(str(event.payload.get("alert", "{}")))
                except (ValueError, RecursionError):
                    doc = {"malformed": True}
                self.alerts.append(doc)
            return json.dumps({"directive": "AlertAck"}).encode()
        return json.dumps({"directive": "Ack"}).encode()

    # -- adversarial view -----------------------------------------------------------------

    @property
    def received_transcripts(self) -> list[str]:
        """Every transcript the provider has stored."""
        return [r.transcript for r in self.received]


@dataclass
class PlaintextEndpoint:
    """Port-80 face of the service: raw AVS events, no TLS."""

    service: VoiceCloudService

    def receive(self, payload: bytes) -> bytes:
        """Handle one unencrypted AVS event."""
        return self.service._handle_event(payload, encrypted=False)
