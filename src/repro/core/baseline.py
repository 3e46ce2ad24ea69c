"""The baseline pipeline: today's conventional smart-speaker stack.

The comparison point for every experiment: the I²S driver lives in the
untrusted kernel with I/O buffers in normal DRAM, the application
assembles the utterance in normal-world memory, ASR runs in the normal
world, *no sensitive-content filtering happens*, and the transcript goes
to the cloud — over TLS by default (real assistants do encrypt in
transit; the leak the paper targets is to the *provider* and to a
*compromised OS*, both of which TLS does not help), or in plaintext with
``use_tls=False`` for the wire-eavesdropping variant.

An optional ``bundle`` enables a *normal-world filtering* ablation: same
classifier, but running where a compromised OS can disable or bypass it —
useful to show the performance cost of filtering separately from the cost
of the TEE.
"""

from __future__ import annotations

from typing import Callable

from repro.core.filter import FilterBundle
from repro.core.platform import IotPlatform
from repro.core.results import PipelineRunResult, UtteranceResult
from repro.core.workload import UtteranceWorkload, WorkloadItem
from repro.drivers.i2s_driver import I2sDriver
from repro.kernel.kernel import I2sCharDevice
from repro.ml.asr import MatchedFilterAsr
from repro.peripherals.audio import BufferSource
from repro.relay.avs import AvsClient, AvsEvent
from repro.relay.tls import TlsClient
from repro.tz.worlds import World

DEVICE_PATH = "/dev/snd/i2s0"


class BaselinePipeline:
    """Driver in the kernel, processing in the normal world, no TEE."""

    name = "baseline"

    def __init__(
        self,
        platform: IotPlatform,
        asr: MatchedFilterAsr,
        bundle: FilterBundle | None = None,
        use_tls: bool = True,
        chunk_frames: int = 256,
    ):
        self.platform = platform
        self.asr = asr
        self.bundle = bundle
        self.use_tls = use_tls
        self.chunk_frames = chunk_frames
        if bundle is not None:
            self.name = "baseline+nw-filter"

        kernel = platform.kernel
        self.driver = I2sDriver(
            kernel.driver_host, platform.i2s_controller, platform.i2s_region
        )
        kernel.register_device(DEVICE_PATH, I2sCharDevice(self.driver))
        # The kernel owns the mic interrupt in this configuration.
        from repro.tz.interrupts import IRQ_I2S

        platform.machine.gic.configure(
            IRQ_I2S, World.NORMAL, self._kernel_irq_handler
        )

        # The application's utterance buffer, in normal DRAM for all to see.
        self._app_buf_addr: int | None = None
        self._app_buf_size = 0

        machine = platform.machine
        if use_tls:
            self._tls = TlsClient(
                self._transport,
                platform.cloud.tls.static_public,
                platform.rng.fork("baseline-tls"),
            )
            self._avs = AvsClient(self._tls.request)
        else:
            self._tls = None
            self._avs = AvsClient(self._plaintext_request)
        self._machine = machine

    def _kernel_irq_handler(self) -> None:
        """Kernel-side mic interrupt: service the driver's condition."""
        if self.driver.state in ("capturing", "duplex"):
            self.driver.irq_handler()

    # -- transport (normal world straight to the NIC) ---------------------------

    def _charge_net(self, nbytes: int) -> None:
        costs = self._machine.costs
        self._machine.cpu.execute(int(nbytes * costs.network_cycles_per_byte))

    def _transport(self, payload: bytes) -> bytes:
        costs = self._machine.costs
        self._machine.cpu.execute(int(len(payload) * costs.crypto_cycles_per_byte))
        self._charge_net(len(payload))
        return bytes(
            self.platform.supplicant.net.call(
                "send", self.platform.cloud.HOST,
                self.platform.cloud.TLS_PORT, payload,
            )
        )

    def _plaintext_request(self, payload: bytes) -> bytes:
        self._charge_net(len(payload))
        return bytes(
            self.platform.supplicant.net.call(
                "send", self.platform.cloud.HOST,
                self.platform.cloud.PLAINTEXT_PORT, payload,
            )
        )

    def _connect(self) -> None:
        if self._tls is not None and not self._tls.connected:
            with self._machine.obs.span("tls_handshake",
                                        category="stage.baseline"):
                self._machine.cpu.execute(self._machine.costs.handshake_cycles)
                self._tls.handshake()

    # -- app-side buffer (the leak surface) ----------------------------------------

    def _land_utterance(self, raw: bytes) -> None:
        machine = self._machine
        if self._app_buf_addr is None or len(raw) > self._app_buf_size:
            if self._app_buf_addr is not None:
                machine.ns_allocator.free(self._app_buf_addr)
            self._app_buf_addr = machine.ns_allocator.alloc(len(raw))
            self._app_buf_size = len(raw)
        machine.memory.write(self._app_buf_addr, raw, World.NORMAL)

    # -- execution ------------------------------------------------------------------

    def process_item(self, item: WorkloadItem) -> UtteranceResult:
        """Run one utterance through the conventional path."""
        platform = self.platform
        machine = self._machine
        costs = machine.costs
        platform.mic.swap_source(BufferSource(item.pcm))
        clock_before = machine.clock.snapshot()
        obs = machine.obs

        with obs.span("utterance", category="pipeline.baseline"):
            with obs.span("capture", category="stage.baseline",
                          frames=item.frames):
                pcm = platform.kernel.capture_pcm(
                    DEVICE_PATH, item.frames, chunk_frames=self.chunk_frames
                )
                self._land_utterance(pcm.astype("<i2").tobytes())

            from repro.ml.asr import SAMPLE_RATE

            with obs.span("asr", category="stage.baseline", samples=len(pcm)):
                asr_macs = int(
                    self.asr.macs_per_second() * len(pcm) / SAMPLE_RATE
                )
                machine.cpu.execute(
                    costs.ml_inference_cycles(asr_macs, secure=False,
                                              int8=False)
                )
                transcript = self.asr.transcribe(pcm)

            if self.bundle is not None:
                with obs.span("classify", category="stage.baseline"):
                    machine.cpu.execute(
                        costs.ml_inference_cycles(
                            self.bundle.inference_macs(), secure=False,
                            int8=self.bundle.filter.is_quantized,
                        )
                    )
                    decision = self.bundle.filter.apply(transcript)
                sensitive, forwarded, payload = (
                    decision.sensitive, decision.forwarded, decision.payload
                )
            else:
                sensitive, forwarded, payload = False, True, transcript

            if forwarded and payload is not None:
                with obs.span("relay", category="stage.baseline"):
                    self._connect()
                    self._avs.recognize(payload)

        clock_after = machine.clock.snapshot()
        domain_cycles = clock_after.delta(clock_before)
        return UtteranceResult(
            utterance=item.utterance,
            transcript=transcript,
            sensitive_predicted=sensitive,
            forwarded=forwarded,
            payload=payload,
            latency_cycles=clock_after.now - clock_before.now,
            energy_mj=platform.energy.of(domain_cycles).total_mj,
            domain_cycles=domain_cycles,
        )

    def process(
        self,
        workload: UtteranceWorkload,
        after_each: Callable[["BaselinePipeline"], None] | None = None,
    ) -> PipelineRunResult:
        """Run a whole workload; ``after_each`` is the attack hook."""
        run = PipelineRunResult(pipeline=self.name)
        for item in workload:
            run.results.append(self.process_item(item))
            if after_each is not None:
                after_each(self)
        return run

    # -- adversary-facing surface ------------------------------------------------------

    def attack_targets(self) -> list[tuple[int, int]]:
        """Driver chunk buffer + app utterance buffer — all normal DRAM."""
        targets = []
        if self.driver._buf_addr is not None:
            targets.append((self.driver._buf_addr, self.driver._buf_bytes))
        if self._app_buf_addr is not None:
            targets.append((self._app_buf_addr, self._app_buf_size))
        return targets

    def close(self) -> None:
        """Release normal-world resources (the app's utterance buffer).

        Mirrors :meth:`SecurePipeline.close` so CLI flows can tear down
        either pipeline uniformly.
        """
        if self._app_buf_addr is not None:
            self._machine.ns_allocator.free(self._app_buf_addr)
            self._app_buf_addr = None
            self._app_buf_size = 0
