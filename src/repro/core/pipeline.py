"""The secure pipeline: the paper's proposed design, end to end.

``SecurePipeline`` is the normal-world *client application* of the
design: it owns nothing sensitive.  It installs the secure audio PTA and
the audio-filter TA into OP-TEE, opens a GP session, and for every
workload utterance issues one ``CMD_PROCESS`` invocation — everything
that matters happens inside the TEE (capture through the secure driver,
ASR, classification, filtering, TLS relaying), and the client gets back
only the decision record.

Per-utterance latency, per-domain cycle attribution, and energy deltas
are collected around each invocation for the performance experiments.
"""

from __future__ import annotations

from typing import Callable

from repro.core.filter import FilterBundle
from repro.core.platform import IotPlatform
from repro.core.pta_audio import SecureAudioPta
from repro.core.results import PipelineRunResult, UtteranceResult
from repro.core.ta_filter import (
    CMD_PROCESS,
    CMD_PROCESS_STREAM,
    CMD_STATS,
    make_audio_filter_ta,
)
from repro.core.workload import UtteranceWorkload, WorkloadItem
from repro.optee.client import TeeClient
from repro.optee.params import Params, Value
from repro.optee.supervise import SupervisorPolicy, TaSupervisor
from repro.peripherals.audio import BufferSource
from repro.relay.relay import RetryPolicy


class SecurePipeline:
    """Fig. 1, assembled and runnable.

    Pass a :class:`~repro.optee.supervise.SupervisorPolicy` as
    ``supervisor`` to run the TA under supervision: panics are detected,
    the TA restarts with backoff and restores from sealed checkpoints,
    and an utterance that outlives every budget comes back *degraded* —
    suppressed as sensitive, nothing forwarded.  Defaults to ``None``
    because supervision is not free (checkpoint seals cost cycles), and
    an unsupervised run must stay byte-identical to earlier baselines.
    """

    name = "secure"

    def __init__(
        self,
        platform: IotPlatform,
        bundle: FilterBundle,
        chunk_frames: int = 256,
        driver_compiled_out: frozenset[str] = frozenset(),
        ta_signing_key: bytes | None = None,
        retry_policy: "RetryPolicy | None" = None,
        supervisor: "SupervisorPolicy | None" = None,
        device_id: str = "",
        queue_max_depth: int = 64,
    ):
        self.platform = platform
        self.bundle = bundle
        self.pta = SecureAudioPta(platform.i2s_controller, platform.i2s_region)
        platform.tee.register_pta(self.pta)

        ta_class = make_audio_filter_ta(
            bundle=bundle,
            pta_uuid=self.pta.uuid,
            cloud_host=platform.cloud.HOST,
            cloud_port=platform.cloud.TLS_PORT,
            pinned_server_public=platform.cloud.tls.static_public,
            rng=platform.rng.fork("ta"),
            chunk_frames=chunk_frames,
            driver_compiled_out=driver_compiled_out,
            retry_policy=retry_policy,
            supervised=supervisor is not None,
            checkpoint_every=(
                supervisor.checkpoint_every if supervisor is not None else 1
            ),
            device_id=device_id,
            queue_max_depth=queue_max_depth,
        )
        signature = None
        if ta_signing_key is not None:
            from repro.optee.signing import sign_ta

            signature = sign_ta(ta_class, ta_signing_key)
        self.ta_uuid = platform.tee.install_ta(ta_class, signature=signature)
        self.client = TeeClient(platform.machine)
        self.supervisor: TaSupervisor | None = None
        self._supervisor_policy = supervisor
        self.client_restarts = 0
        if supervisor is not None:
            self.supervisor = TaSupervisor(
                platform.tee, self.client, self.ta_uuid,
                policy=supervisor, rng=platform.rng.fork("supervisor"),
            )
            self.session = self.supervisor.open()
        else:
            self.session = self.client.open_session(self.ta_uuid)
        self._seq = 0

    # -- execution ------------------------------------------------------------

    def process_item(self, item: WorkloadItem) -> UtteranceResult:
        """Run one utterance through the secure path.

        Unsupervised, this is one plain session invoke (byte-identical
        to earlier revisions).  Supervised, the invoke goes through the
        :class:`TaSupervisor` with a per-utterance sequence number for
        replay detection; if the TA stays dead past every budget the
        utterance *fails closed* — recorded as sensitive + suppressed,
        with ``degraded=True`` — rather than ever being forwarded raw.
        """
        machine = self.platform.machine
        self.platform.mic.swap_source(BufferSource(item.pcm))
        clock_before = machine.clock.snapshot()
        with machine.obs.span("utterance", category="pipeline.secure"):
            if self.supervisor is not None:
                self._seq += 1
                record = self.supervisor.invoke(
                    CMD_PROCESS,
                    Params.of(Value(a=item.frames, b=self._seq)),
                    # Restart attempts re-run capture: make sure a fresh
                    # instance reads *this* utterance's PCM, not whatever
                    # the mic drifted to while the TA was down.
                    reprime=lambda: self.platform.mic.swap_source(
                        BufferSource(item.pcm)
                    ),
                )
                self.session = self.supervisor.session or self.session
                if record is None:
                    machine.obs.metrics.inc("tee.degraded_utterances")
                    record = {
                        "transcript": "",
                        "probability": 1.0,
                        "sensitive": True,
                        "forwarded": False,
                        "payload": None,
                        "relay_status": "suppressed",
                        "relay_attempts": 0,
                        "degraded": True,
                    }
            else:
                record = self.session.invoke(
                    CMD_PROCESS, Params.of(Value(a=item.frames))
                )
        clock_after = machine.clock.snapshot()
        domain_cycles = clock_after.delta(clock_before)
        return UtteranceResult(
            utterance=item.utterance,
            transcript=record["transcript"],
            sensitive_predicted=record["sensitive"],
            forwarded=record["forwarded"],
            payload=record["payload"],
            latency_cycles=clock_after.now - clock_before.now,
            energy_mj=self.platform.energy.of(domain_cycles).total_mj,
            domain_cycles=domain_cycles,
            relay_status=record.get("relay_status", ""),
            relay_attempts=record.get("relay_attempts", 0),
            degraded=record.get("degraded", False),
        )

    def _collect_stats(self, run: PipelineRunResult) -> None:
        """Pull the TA's stage-cycle and relay counters into the run.

        Under supervision the TA may be dead right now; stats collection
        then goes through the supervisor (restarting if possible) and
        degrades to empty stats instead of raising.
        """
        if self.supervisor is not None:
            stats = self.supervisor.invoke(CMD_STATS)
            self.session = self.supervisor.session or self.session
            if stats is None:
                return
        else:
            stats = self.session.invoke(CMD_STATS)
        run.stage_cycles = stats["stages"]
        run.relay_stats = stats["relay"]

    def process(
        self,
        workload: UtteranceWorkload,
        after_each: Callable[["SecurePipeline"], None] | None = None,
    ) -> PipelineRunResult:
        """Run a whole workload; ``after_each`` is the attack hook."""
        run = PipelineRunResult(pipeline=self.name)
        for item in workload:
            run.results.append(self.process_item(item))
            if after_each is not None:
                after_each(self)
        self._collect_stats(run)
        return run

    def process_continuous(
        self,
        workload: UtteranceWorkload,
        gap_samples: int = 2_000,
    ) -> PipelineRunResult:
        """Deployment-realistic mode: one continuous capture, VAD inside.

        The workload's utterances are rendered into a single PCM stream
        separated by silence gaps; the TA captures the whole stream,
        segments it with its in-enclave VAD, and filters each detected
        utterance.  Results map to ground truth by order (the VAD's
        segment order is the stream order).

        The VAD can disagree with the ground-truth segmentation: a short
        ``gap_samples`` lets its hangover merge adjacent utterances
        (under-segmentation), and noisy audio can split one utterance in
        two (over-segmentation).  What aligns is paired in order; the
        surplus is reported via ``over_segmented`` / ``under_segmented``
        and surplus decision records are kept in ``unpaired_records``
        rather than silently discarded.
        """
        import numpy as np

        machine = self.platform.machine
        gap = np.zeros(gap_samples, dtype=np.int16)
        stream = np.concatenate(
            [np.concatenate([item.pcm, gap]) for item in workload]
        )
        self.platform.mic.swap_source(BufferSource(stream))
        clock_before = machine.clock.snapshot()
        with machine.obs.span("stream", category="pipeline.secure",
                              samples=len(stream)):
            records = self.session.invoke(
                CMD_PROCESS_STREAM, Params.of(Value(a=len(stream)))
            )
        run = PipelineRunResult(pipeline=f"{self.name}-continuous")
        # Stats retrieval is one more TA invoke; pull it before closing the
        # measurement window so the run's totals reconstruct the whole
        # call's clock/energy deltas, not the stream invoke alone.
        self._collect_stats(run)
        domain_delta = machine.clock.snapshot().delta(clock_before)
        energy = self.platform.energy.of(domain_delta)

        items = list(workload)
        run.over_segmented = max(0, len(records) - len(items))
        run.under_segmented = max(0, len(items) - len(records))
        run.unpaired_records = list(records[len(items):])
        if run.over_segmented or run.under_segmented:
            machine.obs.tracer.emit(
                "core.pipeline", "segmentation_mismatch",
                items=len(items), segments=len(records),
            )
        # Cost attribution: one clock/energy delta covers the whole stream,
        # so it is apportioned across the *kept* results (the pairs that
        # align with ground truth) — dividing by the raw VAD segment count
        # under-counted run totals whenever segmentation disagreed.  Each
        # domain's total is sliced with cumulative integer boundaries
        # (result i gets ``v*(i+1)//n - v*i//n``) so the slices sum exactly
        # to the measured delta, and each result's latency is the sum of
        # its domain slices — which keeps ``processing_latency_cycles()``
        # (latency minus the peripheral slice) non-negative by
        # construction.
        n = max(1, min(len(items), len(records)))
        for i, (item, record) in enumerate(zip(items, records)):
            domains = {
                d: v * (i + 1) // n - v * i // n
                for d, v in domain_delta.items()
            }
            domains = {d: c for d, c in domains.items() if c}
            run.results.append(
                UtteranceResult(
                    utterance=item.utterance,
                    transcript=record["transcript"],
                    sensitive_predicted=record["sensitive"],
                    forwarded=record["forwarded"],
                    payload=record["payload"],
                    latency_cycles=sum(domains.values()),
                    energy_mj=energy.total_mj / n,
                    domain_cycles=domains,
                    relay_status=record.get("relay_status", ""),
                    relay_attempts=record.get("relay_attempts", 0),
                )
            )
        return run

    # -- normal-world crash/restart chaos ------------------------------------------

    def crash_client(self) -> None:
        """Kill the normal-world client application mid-run.

        Models a process crash: the session object, the supervisor and
        the client's utterance counter are simply *gone* — nothing
        client-side gets to run cleanup.  What still happens mirrors
        what the kernel does for a dead process: the TEE driver closes
        the process's sessions on fd release (which tears down a
        non-keep-alive TA instance once its last session drops — only
        sealed state survives), and the shared-memory carveout is
        reclaimed.  Call :meth:`recover_client` to restart.
        """
        from repro.errors import TeeError

        if self.session is not None and not getattr(self.session, "closed", True):
            try:
                # The kernel's fd-release cleanup issues the same SMC a
                # voluntary close would — entering the secure world so
                # the TA's teardown hooks actually run there.
                self.client._smc_call(
                    {"op": "close_session", "session": self.session.session_id}
                )
            except TeeError:
                # The TA can panic inside its close hook (chaos
                # injection); the kernel's cleanup doesn't care.
                pass
        # Kernel reclaims the dead process's shared carveout.
        self.client.close()
        self.session = None  # type: ignore[assignment]
        self.supervisor = None
        self._seq = 0
        machine = self.platform.machine
        machine.obs.metrics.inc("client.crashes")
        machine.obs.tracer.emit("core.pipeline", "client_crashed")

    def recover_client(self) -> dict:
        """Restart the client application after :meth:`crash_client`.

        A fresh :class:`TeeClient` context and session — re-instantiating
        the TA, whose ``on_create`` restores from the sealed checkpoint
        and store-and-forward queue — then ``CMD_RESUME`` asks the TA
        where committed state actually is.  The client's sequence counter
        resumes from the answer: re-invoking the committed sequence is
        replay-suppressed in the TA, so recovery can never double-send,
        and the first uncommitted utterance is ``seq + 1``.  Meaningful
        crash recovery needs supervised mode (checkpoints are only
        sealed when supervision is on); unsupervised recovery restarts
        from sequence zero.  Returns the TA's resume document.
        """
        from repro.core.ta_filter import CMD_RESUME

        # A panicked instance (e.g. chaos hit the close hook during the
        # crash) must be reaped before a session can reopen it.
        self.platform.tee.reap_panicked(self.ta_uuid)
        self.client = TeeClient(self.platform.machine)
        if self._supervisor_policy is not None:
            self.supervisor = TaSupervisor(
                self.platform.tee, self.client, self.ta_uuid,
                policy=self._supervisor_policy,
                rng=self.platform.rng.fork("supervisor"),
            )
            self.session = self.supervisor.open()
        else:
            self.session = self.client.open_session(self.ta_uuid)
        resume = self.session.invoke(CMD_RESUME)
        self._seq = int(resume["seq"])
        self.client_restarts += 1
        machine = self.platform.machine
        machine.obs.metrics.inc("client.restarts")
        machine.obs.tracer.emit(
            "core.pipeline", "client_recovered",
            seq=self._seq, queue_depth=resume.get("queue_depth", 0),
        )
        return resume

    # -- adversary-facing surface ------------------------------------------------

    def attack_targets(self) -> list[tuple[int, int]]:
        """Addresses a buffer-snooping attacker would go for.

        Both the driver's chunk I/O buffer and the assembled utterance
        buffer — in this design, all in secure memory.
        """
        targets = []
        if self.pta.driver is not None and self.pta.driver._buf_addr is not None:
            targets.append(
                (self.pta.driver._buf_addr, self.pta.driver._buf_bytes)
            )
        utt = self.pta.utterance_buffer()
        if utt is not None:
            targets.append(utt)
        return targets

    def tcb_loc(self) -> int:
        """Driver LoC actually inside the TEE."""
        return self.pta.tcb_loc()

    def close(self) -> None:
        """Close the TA session and release client resources.

        A panicked TA's session is already dead — closing it raises
        ``TeeTargetDead``, which is not an error at shutdown.
        """
        from repro.errors import TeeTargetDead

        if self.supervisor is not None:
            self.supervisor.close()
        else:
            try:
                self.session.close()
            except TeeTargetDead:
                pass
        self.client.close()
