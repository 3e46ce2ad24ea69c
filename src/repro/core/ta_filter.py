"""The audio-filter trusted application.

The TA of Fig. 1 steps 4–7: receives PCM from the secure driver via the
PTA, transcribes it, classifies the transcript, filters sensitive content
out of the stream, and relays the remainder to the cloud over TLS through
the TEE supplicant.

Because a real TA ships its model inside the signed TA image, the class
is produced by a factory closing over a :class:`~repro.core.filter.FilterBundle`
plus deployment parameters.  On instance creation the TA *allocates the
model into the secure heap* — which is where the paper's memory-budget
concern (Section V) becomes a hard failure: a model bigger than the heap
raises ``TeeOutOfMemory`` and the TA cannot start.

Commands::

    CMD_PROCESS        (1)  Value(a=frames, b=seq) → decision dict; ``seq``
                            is the supervisor's 1-based utterance sequence
                            number (0 = unsupervised) used for replay
                            detection after a restart
    CMD_STATS          (2)  → {"stages": per-stage cycle totals,
                              "relay": delivery/retry/queue counters}
    CMD_HEARTBEAT      (3)  → relay keep-alive through the secure channel
    CMD_PROCESS_STREAM (4)  Value(a=frames) → list of decision dicts; the
                            TA captures one continuous buffer, VAD-segments
                            it in-enclave, and runs the filter path per
                            detected utterance (deployment-realistic mode)
    CMD_ALERT          (5)  MemRef(JSON alert doc) → {"status", ...}; ships
                            a health alert through the same relay + sealed
                            store-and-forward path as decisions
    CMD_RESUME         (6)  → {"seq", "utt_seq", "queue_depth",
                            "dialog_cursor"}; where a crash-restarted
                            normal-world client should resume (committed
                            state lives secure-side, never in the client)

Supervised mode (``supervised=True`` in the factory) adds crash
consistency: after every committed decision the TA seals a checkpoint
(filter thresholds come from the signed bundle, so the checkpoint holds
the *mutable* state — last decision, relay-queue dialog cursor, utterance
counters) into secure storage, A/B-alternating between two generations so
a panic mid-write can never destroy the last good checkpoint.  On
re-instantiation ``on_create`` restores the newest valid generation, and
``CMD_PROCESS`` with a sequence number equal to the checkpointed one
returns the *recorded* decision instead of re-running the pipeline — a
committed decision is never replayed (no duplicate relay send) and never
dropped.

Relay outcomes: every decision record carries ``relay_status`` —
``"sent"`` (delivered, possibly after retries), ``"queued"`` (retries
exhausted; payload sealed into the store-and-forward queue),
``"throttled"`` (the cloud's admission tier said back off; payload sealed
into the same queue, to drain after the server-directed window),
``"shed"`` (the bounded queue was full; the payload was refused
fail-closed with explicit accounting) or ``"dropped"`` (the filter
withheld it; nothing ever left the TEE) — plus ``relay_attempts``.
Queued payloads are drained oldest-first after the next successful send
(including heartbeats), so no forwarded decision is ever lost to a
network outage short of deliberate, counted shedding.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from repro.core import pta_audio
from repro.core.filter import FilterBundle
from repro.errors import (
    AuthenticationFailure,
    RelayDeliveryError,
    RelayQueueFullError,
    RelayThrottledError,
    TeeItemNotFound,
)
from repro.optee.params import Params
from repro.optee.session import Session
from repro.optee.ta import TaContext, TaFlags, TrustedApplication
from repro.optee.uuid import TaUuid
from repro.relay.queue import StoreForwardQueue
from repro.relay.relay import RelayModule, RetryPolicy
from repro.sim.rng import SimRng

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.span import Span

CMD_PROCESS = 1
CMD_STATS = 2
CMD_HEARTBEAT = 3
CMD_PROCESS_STREAM = 4
CMD_ALERT = 5
# Crash recovery for the normal-world client: a freshly restarted client
# application (its session object died with the process) asks the TA
# where the committed state actually is, instead of guessing.
CMD_RESUME = 6

STAGES = ("capture", "vad", "asr", "classify", "filter", "relay")

RELAY_SENT = "sent"
RELAY_QUEUED = "queued"
RELAY_DROPPED = "dropped"
# Admission backpressure: the cloud answered Throttled, the payload is
# sealed in the store-and-forward queue awaiting the retry window.
RELAY_THROTTLED = "throttled"
# Fail-closed shedding: the bounded queue refused the payload; the
# decision is accounted (counter + alert-worthy log), never silent.
RELAY_SHED = "shed"

# A/B checkpoint generations: writes alternate between the two names so a
# panic mid-seal can only lose the in-flight generation, never the last
# committed one.
_CKPT_NAMES = ("ckpt/audio-filter/a", "ckpt/audio-filter/b")

# CMD_ALERT outcome → the counter it lands in; a throttled alert is
# sealed in the queue like a queued one.
_ALERT_COUNTERS = {
    RELAY_SENT: "tee.alerts_sent",
    RELAY_QUEUED: "tee.alerts_queued",
    RELAY_THROTTLED: "tee.alerts_queued",
    RELAY_SHED: "tee.alerts_shed",
}


def make_audio_filter_ta(
    bundle: FilterBundle,
    pta_uuid: TaUuid,
    cloud_host: str,
    cloud_port: int,
    pinned_server_public: bytes,
    rng: SimRng,
    chunk_frames: int = 256,
    driver_compiled_out: frozenset[str] = frozenset(),
    retry_policy: RetryPolicy | None = None,
    supervised: bool = False,
    checkpoint_every: int = 1,
    device_id: str = "",
    queue_max_depth: int = 64,
) -> type[TrustedApplication]:
    """Build the TA class with the model and deployment config baked in.

    ``supervised=True`` enables sealed checkpoint/restore (see module
    docstring); ``checkpoint_every`` seals a checkpoint every N committed
    decisions.  Both default off so unsupervised runs stay byte-identical
    (checkpoint storage RPCs charge cycles).  ``device_id`` is stamped
    into relay events so a cloud endpoint shared by a fleet can scope
    duplicate suppression per sender; empty (the default) keeps the wire
    bytes of single-device runs unchanged.

    Every utterance gets a deterministic trace id —
    ``{device_id}/u{seq:05d}``, derived from the TA's own utterance
    counter, never a clock or RNG — on its stage spans and in the sealed
    checkpoint.  The id never leaves the device: the ``relay`` stage span
    records the ``dialog_id`` it allocated, and the cloud already
    receives ``(deviceId, dialogRequestId)``, so an operator joins a
    cloud record to its utterance by that pair.
    """

    class AudioFilterTa(TrustedApplication):
        """ASR + classifier + filter + relay, entirely in the secure world."""

        NAME = "ta.audio-filter"
        FLAGS = TaFlags.SINGLE_INSTANCE | TaFlags.MULTI_SESSION

        def __init__(self) -> None:
            super().__init__()
            self.bundle = bundle
            self.relay: RelayModule | None = None
            self.queue: StoreForwardQueue | None = None
            self._model_addr: int | None = None
            self._capture_ready = False
            self.stage_cycles: dict[str, int] = {s: 0 for s in STAGES}
            self.relay_counts: dict[str, int] = {
                RELAY_SENT: 0, RELAY_QUEUED: 0, RELAY_DROPPED: 0,
                RELAY_THROTTLED: 0, RELAY_SHED: 0, "drained": 0,
            }
            # Checkpoint state (supervised mode): sequence number and
            # decision record of the last sealed checkpoint, plus which
            # A/B generation the next seal writes.
            self._ckpt_seq = 0
            self._ckpt_record: dict[str, Any] | None = None
            self._ckpt_writes = 0
            # Monotonic utterance counter behind trace-id derivation;
            # counts committed utterances across restarts (restored from
            # the checkpoint in supervised runs).
            self._utt_seq = 0

        def _next_trace_id(self) -> str:
            """Allocate the next utterance's deterministic trace id.

            Pure Python, no cycles charged.
            """
            self._utt_seq += 1
            return f"{device_id or 'device'}/u{self._utt_seq:05d}"

        # -- lifecycle ---------------------------------------------------------

        def on_create(self, ctx: TaContext) -> None:
            """Load the model into the secure heap; may raise TeeOutOfMemory."""
            self._model_addr = ctx.alloc(bundle.model_size_bytes)
            ctx.log(
                "model_loaded",
                bytes=bundle.model_size_bytes,
                heap_free=ctx.heap_free_bytes(),
            )
            self.relay = RelayModule(
                ctx, cloud_host, cloud_port, pinned_server_public,
                rng.fork("relay"), retry_policy=retry_policy,
                device_id=device_id,
            )
            # Restores entries a previous instance failed to deliver.
            self.queue = StoreForwardQueue(
                ctx.storage, max_depth=queue_max_depth
            )
            if supervised:
                self._restore_checkpoint(ctx)

        def on_invoke(self, session: Session, cmd: int, params: Params) -> Any:
            """Dispatch client commands."""
            if cmd == CMD_PROCESS:
                frames = params.value(0).a
                return self._process(frames, seq=params.value(0).b)
            if cmd == CMD_ALERT:
                assert self.ctx is not None
                raw = self.ctx.read_memref(params.memref(0))
                return self._alert(json.loads(raw.decode()))
            if cmd == CMD_PROCESS_STREAM:
                frames = params.value(0).a
                return self._process_stream(frames)
            if cmd == CMD_STATS:
                return self._stats()
            if cmd == CMD_HEARTBEAT:
                assert self.relay is not None
                try:
                    directive = self.relay.heartbeat()
                except RelayThrottledError as exc:
                    return {
                        "directive": "error",
                        "reason": "throttled",
                        "retry_after_cycles": exc.retry_after_cycles,
                    }
                except RelayDeliveryError as exc:
                    return {
                        "directive": "error",
                        "reason": "cloud unreachable",
                        "attempts": exc.attempts,
                    }
                self._drain_queue()
                return directive
            if cmd == CMD_RESUME:
                return self._resume_state()
            return super().on_invoke(session, cmd, params)

        def on_destroy(self) -> None:
            """Stop secure capture and release the model allocation."""
            if self.ctx is not None and self._capture_ready:
                self.ctx.invoke_pta(pta_uuid, pta_audio.CMD_STOP, None)
                self.ctx.invoke_pta(pta_uuid, pta_audio.CMD_CLOSE, None)
            self._capture_ready = False
            if self.ctx is not None and self._model_addr is not None:
                self.ctx.free(self._model_addr)
                self._model_addr = None

        # -- crash consistency (supervised mode) --------------------------------

        def _resume_state(self) -> dict[str, Any]:
            """Where a restarted normal-world client should pick up.

            The client application can crash at any moment, losing its
            session object and its utterance counter.  Everything needed
            to resume lives secure-side: the last *committed* sequence
            number (sealed checkpoint), the store-and-forward backlog and
            the dialog cursor.  A recovered client sets its own counter
            to ``seq`` and continues — re-invoking sequence ``seq`` is
            replay-suppressed, so nothing double-sends, and invoking
            ``seq + 1`` processes the first uncommitted utterance.
            """
            assert self.relay is not None and self.queue is not None
            if self.ctx is not None:
                self.ctx.metrics.inc("tee.client_resumes")
            return {
                "seq": self._ckpt_seq,
                "utt_seq": self._utt_seq,
                "queue_depth": len(self.queue),
                "dialog_cursor": self.relay.dialog_cursor,
            }

        def _restore_checkpoint(self, ctx: TaContext) -> None:
            """Adopt the newest valid sealed checkpoint, if any.

            Each generation is validated independently — a corrupted or
            missing blob (chaos injection, torn write before the panic)
            just removes that candidate; the other generation still
            restores.  Restoring nothing is fine: a fresh start from
            sequence zero replays nothing and drops nothing that was
            ever committed.
            """
            best: dict[str, Any] | None = None
            best_name = None
            for name in _CKPT_NAMES:
                if name not in ctx.storage.names():
                    continue
                try:
                    doc = json.loads(ctx.storage.get(name).decode())
                except (TeeItemNotFound, AuthenticationFailure) as exc:
                    ctx.log(
                        "checkpoint_invalid",
                        generation=name, error=type(exc).__name__,
                    )
                    continue
                if best is None or doc["seq"] > best["seq"]:
                    best, best_name = doc, name
            if best is None:
                return
            self._ckpt_seq = int(best["seq"])
            self._ckpt_record = best["record"]
            self._utt_seq = int(best["utt_seq"])
            self.relay_counts.update(best["relay_counts"])
            self.stage_cycles.update(
                {k: int(v) for k, v in best["stages"].items()}
            )
            # The relay module's wire-level stats restart at zero with
            # each fresh instance; without restoring them, CMD_STATS
            # would shadow the cumulative "sent" with the post-restart
            # window (the relay dict merges module stats last).
            self.relay.stats.update(
                {k: int(v) for k, v in best.get("relay_stats", {}).items()}
            )
            # Keep the A/B alternation moving past the restored
            # generation so the next seal overwrites the *older* one.
            self._ckpt_writes = _CKPT_NAMES.index(best_name) + 1
            assert self.relay is not None
            # A fresh relay module restarts its dialog-id counter at 0;
            # re-using an id the dead instance already spent would let
            # the cloud's duplicate suppression eat a *new* decision.
            # Advance past every id the old instance could have
            # allocated since this checkpoint was sealed (at most one
            # per decision per checkpoint interval, plus retries and
            # queue-drain re-sends — hence the margin).
            self.relay.restore_dialog_cursor(
                int(best["dialog_cursor"]) + 2 * checkpoint_every + 4
            )
            age = ctx.now() - int(best["cycle"])
            ctx.metrics.observe("tee.checkpoint_age", age)
            ctx.log(
                "checkpoint_restored",
                seq=self._ckpt_seq, generation=best_name, age_cycles=age,
            )

        def _checkpoint(self, seq: int, record: dict[str, Any]) -> None:
            """Seal the post-decision state into the next A/B generation."""
            ctx = self.ctx
            assert ctx is not None and self.relay is not None
            doc = {
                "seq": seq,
                "record": record,
                "dialog_cursor": self.relay.dialog_cursor,
                "relay_counts": dict(self.relay_counts),
                "relay_stats": dict(self.relay.stats),
                "stages": dict(self.stage_cycles),
                "cycle": ctx.now(),
                "utt_seq": self._utt_seq,
            }
            name = _CKPT_NAMES[self._ckpt_writes % len(_CKPT_NAMES)]
            ctx.storage.put(name, json.dumps(doc).encode())
            self._ckpt_writes += 1
            self._ckpt_seq = seq
            self._ckpt_record = record
            ctx.metrics.inc("tee.checkpoints")

        # -- the Fig. 1 data path ------------------------------------------------

        def _ensure_capture(self) -> None:
            """Bring secure capture up — or adopt it where it already is.

            The PTA and driver live in the TEE OS, not in the TA, so they
            survive a TA panic with the stream still running.  A restarted
            *supervised* instance must not blindly re-OPEN (the driver's
            state machine rejects OPEN outside "idle"); instead it asks
            the PTA where the hardware actually is (``CMD_STATE``) and
            performs only the missing transitions.  Unsupervised TAs skip
            the handshake — its PTA invoke would cost cycles and break
            byte-identity with supervision disabled.
            """
            assert self.ctx is not None
            if self._capture_ready:
                return
            # INIT is idempotent — and establishes this TA as the PTA's
            # registered caller, which STATE requires.
            self.ctx.invoke_pta(
                pta_uuid, pta_audio.CMD_INIT,
                {"compiled_out": driver_compiled_out},
            )
            state = "uninit"
            if supervised:
                state = self.ctx.invoke_pta(
                    pta_uuid, pta_audio.CMD_STATE, None
                )
            if state == "capturing":
                self.ctx.log("capture_adopted")
            elif state == "prepared":
                self.ctx.invoke_pta(pta_uuid, pta_audio.CMD_START, None)
                self.ctx.log("capture_resumed")
            else:
                self.ctx.invoke_pta(
                    pta_uuid, pta_audio.CMD_OPEN,
                    {"chunk_frames": chunk_frames},
                )
                self.ctx.invoke_pta(pta_uuid, pta_audio.CMD_START, None)
            self._capture_ready = True

        @contextmanager
        def _stage(self, name: str, **attrs: Any) -> Iterator[Span]:
            """Bracket one Fig. 1 stage in a span, and yield the span.

            The span feeds the observability layer (per-stage histograms,
            exportable traces); its duration also accumulates into the
            legacy ``stage_cycles`` blob that ``CMD_STATS`` reports.
            """
            assert self.ctx is not None
            with self.ctx.span(name, category="stage.secure", **attrs) as sp:
                yield sp
            self.stage_cycles[name] += sp.cycles

        # -- fault-tolerant relay ---------------------------------------------

        def _stats(self) -> dict[str, Any]:
            assert self.relay is not None and self.queue is not None
            return {
                "stages": dict(self.stage_cycles),
                "relay": {
                    **self.relay_counts,
                    **self.relay.stats,
                    "queue_depth": len(self.queue),
                },
            }

        def _drain_queue(self) -> int:
            """Flush stored payloads after a successful send.

            Each entry re-sends as the kind its sealed metadata names (a
            transcript when it names none), reusing its original dialog
            id and prior attempt count, so the cloud can deduplicate if a
            pre-spill attempt actually got through and only its reply was
            lost.
            """
            assert self.relay is not None and self.queue is not None
            if not len(self.queue):
                return 0
            relay = self.relay
            drained = self.queue.drain(
                lambda payload, meta: relay.send_payload(
                    meta.get("kind", "transcript"),
                    payload,
                    dialog_id=meta.get("dialog_id"),
                    prior_attempts=int(meta.get("attempts", 0)),
                )
            )
            self.relay_counts["drained"] += drained
            if drained:
                assert self.ctx is not None
                self.ctx.log(
                    "relay_queue_drained",
                    drained=drained, remaining=len(self.queue),
                )
            return drained

        def _relay(
            self, kind: str, payload: str
        ) -> tuple[str, dict | None, int, str | None, int]:
            """Deliver one payload of ``kind``; spill it sealed on failure.

            The one way data leaves the TA: decisions (``"transcript"``)
            and health alerts (``"alert"``) share this send, spill and
            drain.  Returns ``(status, directive, attempts, entry,
            dialog_id)`` — ``"sent"`` with the cloud's directive,
            ``"queued"`` or ``"throttled"`` with the sealed entry's name,
            or ``"shed"``, plus the dialog id the payload travels under —
            and leaves the accounting to the caller.

            The payload is already filtered, so sealing it leaks nothing
            the relay would not eventually send.  A ``Throttled`` verdict
            (or a still open backpressure window) is not a fault: the
            payload spills as ``"throttled"`` without spending retry
            budget, and the drain after the server's window honours it.
            A full queue sheds fail-closed: the newest payload is refused
            and counted (``relay.queue.rejected``), never silently and
            never by evicting an older, already-accounted entry.
            """
            assert self.ctx is not None
            assert self.relay is not None and self.queue is not None
            dialog_id = self.relay.allocate_dialog_id()
            try:
                directive = self.relay.send_payload(
                    kind, payload, dialog_id=dialog_id
                )
            except RelayDeliveryError as exc:
                status = (
                    RELAY_THROTTLED
                    if isinstance(exc, RelayThrottledError)
                    else RELAY_QUEUED
                )
                # A transcript's kind stays implicit (the drain's
                # default), so decision entries and events carry none.
                tag = {} if kind == "transcript" else {"kind": kind}
                meta = {"dialog_id": dialog_id, "attempts": exc.attempts, **tag}
                try:
                    entry = self.queue.enqueue(payload, meta=meta)
                except RelayQueueFullError as full:
                    self.ctx.metrics.inc("relay.queue.rejected")
                    self.ctx.log(
                        "relay_shed", depth=full.depth, would_be=status, **tag
                    )
                    return RELAY_SHED, None, exc.attempts, None, dialog_id
                self.ctx.log(
                    "relay_queued",
                    entry=entry, depth=len(self.queue), status=status, **tag,
                )
                return status, None, exc.attempts, entry, dialog_id
            # The link just worked: opportunistically flush the backlog,
            # after reading this payload's own attempt count (a drained
            # re-send overwrites ``last_attempts``).
            attempts = self.relay.last_attempts
            self._drain_queue()
            return RELAY_SENT, directive, attempts, None, dialog_id

        def _alert(self, doc: dict[str, Any]) -> dict[str, Any]:
            """``CMD_ALERT``: relay a health alert as decisions are relayed.

            Returns ``{"status", "directive" | "entry", "attempts"}``; the
            outcome counts in ``tee.alerts_*``, never in the decision
            counts.
            """
            assert self.ctx is not None
            status, directive, attempts, entry, _ = self._relay(
                "alert", json.dumps(doc, sort_keys=True)
            )
            self.ctx.metrics.inc(_ALERT_COUNTERS[status])
            outcome = {
                "status": status, "directive": directive, "entry": entry,
                "attempts": attempts,
            }
            return {k: v for k, v in outcome.items() if v is not None}

        def _process(self, frames: int, seq: int = 0) -> dict[str, Any]:
            """Capture → ASR → classify → filter → relay, one utterance.

            ``seq`` is the supervisor's 1-based utterance number (0 when
            unsupervised).  If it matches the restored checkpoint, this
            utterance already committed before the panic — return the
            recorded decision instead of re-running the pipeline, so the
            relay never double-sends.
            """
            ctx = self.ctx
            assert ctx is not None
            if (
                supervised
                and seq
                and seq == self._ckpt_seq
                and self._ckpt_record is not None
            ):
                ctx.metrics.inc("tee.replays_suppressed")
                ctx.log("replay_suppressed", seq=seq)
                return dict(self._ckpt_record)
            # Allocate after the replay check: a suppressed utterance
            # keeps the id the dead instance already spent on it.
            tid = self._next_trace_id()
            self._ensure_capture()

            with self._stage("capture", frames=frames, trace_id=tid):
                pcm = ctx.invoke_pta(
                    pta_uuid, pta_audio.CMD_READ, {"frames": frames}
                )

            record = self._process_segment(pcm, trace_id=tid)
            if supervised and seq and seq % checkpoint_every == 0:
                self._checkpoint(seq, record)
            ctx.log(
                "processed",
                sensitive=record["sensitive"],
                forwarded=record["forwarded"],
            )
            return record

        def _process_segment(self, pcm, trace_id: str) -> dict[str, Any]:
            """ASR → (wake-word gate) → classify → filter → relay."""
            ctx = self.ctx
            assert ctx is not None and self.relay is not None
            costs = ctx._os.machine.costs

            with self._stage("asr", samples=len(pcm), trace_id=trace_id):
                ctx.compute(
                    costs.ml_inference_cycles(
                        self.bundle.asr_macs(len(pcm)), secure=True, int8=False
                    )
                )
                transcript = self.bundle.asr.transcribe(pcm)

            with self._stage("classify", trace_id=trace_id):
                classify_text = transcript
                if self.bundle.gate is not None:
                    ctx.compute(300)  # prefix check is trivial
                    gate = self.bundle.gate.check(transcript)
                    if not gate.intended:
                        # Accidental capture: never classified, never sent.
                        record = {
                            "transcript": transcript,
                            "probability": 0.0,
                            "sensitive": False,
                            "forwarded": False,
                            "payload": None,
                            "directive": None,
                            "intended": False,
                            "relay_status": RELAY_DROPPED,
                            "relay_attempts": 0,
                        }
                        self.relay_counts[RELAY_DROPPED] += 1
                        ctx.log("accidental_capture_dropped")
                        return record
                    classify_text = gate.command

                ctx.compute(
                    costs.ml_inference_cycles(
                        self.bundle.inference_macs(),
                        secure=True,
                        int8=self.bundle.filter.is_quantized,
                    )
                )
                decision = self.bundle.filter.apply(classify_text)

            with self._stage("filter", trace_id=trace_id):
                ctx.compute(200)

            with self._stage("relay", trace_id=trace_id) as span:
                directive = None
                relay_status, relay_attempts = RELAY_DROPPED, 0
                if decision.forwarded and decision.payload is not None:
                    relay_status, directive, relay_attempts, _, dialog_id = (
                        self._relay("transcript", decision.payload)
                    )
                    span.attrs["dialog_id"] = dialog_id
                self.relay_counts[relay_status] += 1
            record = {
                "transcript": transcript,
                "probability": decision.probability,
                "sensitive": decision.sensitive,
                "forwarded": decision.forwarded,
                "payload": decision.payload,
                "directive": directive,
                "intended": True,
                "relay_status": relay_status,
                "relay_attempts": relay_attempts,
            }
            return record

        def _process_stream(self, frames: int) -> list[dict[str, Any]]:
            """Continuous capture, segmented in-enclave by the VAD."""
            from repro.ml.vad import EnergyVad

            ctx = self.ctx
            assert ctx is not None
            self._ensure_capture()

            with self._stage("capture", frames=frames):
                pcm = ctx.invoke_pta(
                    pta_uuid, pta_audio.CMD_READ, {"frames": frames}
                )

            with self._stage("vad"):
                ctx.compute(len(pcm) // 8)  # energy framing is cheap
                vad = EnergyVad(slack_samples=400, metrics=ctx.metrics)
                segments = vad.extract(pcm)
            ctx.log("vad", segments=len(segments))

            records = []
            for i, seg in enumerate(segments):
                tid = self._next_trace_id()
                with ctx.span(
                    "segment", category="pipeline.secure", index=i,
                    trace_id=tid,
                ):
                    records.append(self._process_segment(seg, trace_id=tid))
            return records

    return AudioFilterTa
