"""Failure injection: the system must fail loudly and recover cleanly."""

import numpy as np
import pytest

from repro.core.pipeline import SecurePipeline
from repro.core.platform import IotPlatform
from repro.errors import (
    TeeCommunicationError,
    TeeTargetDead,
)
from repro.peripherals.i2s import StatusBits
from repro.tz.worlds import World
from tests.test_core_pipeline import MIXED, make_workload


class TestFifoOverrun:
    def test_overrun_recoverable_via_irq(self, machine):
        """Overrun sets the sticky bit; the IRQ handler clears it and the
        stream continues delivering valid data."""
        from tests.test_drivers_i2s import open_capture
        from repro.drivers.hosting import KernelDriverHost
        from repro.drivers.i2s_driver import I2sDriver
        from repro.peripherals.audio import ToneSource
        from repro.peripherals.i2s import I2sBus, I2sController
        from repro.peripherals.microphone import DigitalMicrophone
        from repro.tz.memory import MemoryRegion, SecurityAttr

        region = machine.memory.add_region(
            MemoryRegion("i2s_mmio", 0x0400_0000, 0x1000,
                         SecurityAttr.NONSECURE, device=True)
        )
        controller = I2sController(
            machine.clock, machine.obs.tracer, fifo_depth=16
        )
        machine.memory.attach_mmio("i2s_mmio", controller)
        I2sBus(controller, DigitalMicrophone(ToneSource(), fmt=controller.format))
        driver = I2sDriver(KernelDriverHost(machine), controller, region)
        open_capture(driver, chunk=8)

        controller.capture(64)  # flood: 48 frames dropped
        assert controller._overrun_sticky
        assert driver.irq_handler() == "overrun"
        assert not controller._overrun_sticky
        # Stream still works after recovery.
        pcm = driver.read_chunk()
        assert len(pcm) == 8


class TestTaPanicMidStream:
    def test_panic_kills_pipeline_cleanly(self, provisioned):
        platform = IotPlatform.create(seed=71)
        pipeline = SecurePipeline(platform, provisioned.bundle)
        workload = make_workload(provisioned, MIXED)
        # First utterance succeeds.
        pipeline.process_item(workload.items[0])

        # Sabotage the ASR: next TA invocation panics.
        original = provisioned.bundle.asr.transcribe

        def explode(pcm):
            raise RuntimeError("ASR crashed")

        provisioned.bundle.asr.transcribe = explode
        try:
            with pytest.raises(TeeTargetDead):
                pipeline.process_item(workload.items[1])
        finally:
            provisioned.bundle.asr.transcribe = original

        # The TA is dead for good — GP semantics.
        with pytest.raises(TeeTargetDead):
            pipeline.process_item(workload.items[2])
        # The CPU is back in the normal world, machine still usable.
        assert platform.machine.cpu.world is World.NORMAL
        platform.machine.cpu.execute(10)

    def test_panic_is_audit_logged(self, provisioned):
        platform = IotPlatform.create(seed=72)
        pipeline = SecurePipeline(platform, provisioned.bundle)
        workload = make_workload(provisioned, MIXED[:2])
        original = provisioned.bundle.asr.transcribe
        provisioned.bundle.asr.transcribe = lambda pcm: (_ for _ in ()).throw(
            ValueError("boom")
        )
        try:
            with pytest.raises(TeeTargetDead):
                pipeline.process_item(workload.items[0])
        finally:
            provisioned.bundle.asr.transcribe = original
        panics = [e for e in platform.machine.obs.tracer.spans_in("optee.os")
                  if e.name == "ta_panic"]
        assert len(panics) == 1


class TestNetworkOutage:
    def test_cloud_unreachable_queues_instead_of_failing(self, provisioned):
        """A dead cloud no longer aborts the utterance: after retries the
        filtered payload is spilled into the sealed store-and-forward
        queue and the decision completes as ``queued``."""
        platform = IotPlatform.create(seed=73)
        # Deregister the TLS endpoint: connection refused.
        platform.supplicant.net._endpoints.clear()
        pipeline = SecurePipeline(platform, provisioned.bundle)
        workload = make_workload(provisioned, MIXED[:1])  # benign: will relay
        result = pipeline.process_item(workload.items[0])
        assert result.forwarded
        assert result.relay_status == "queued"
        # World restored despite the failures mid-RPC.
        assert platform.machine.cpu.world is World.NORMAL

    def test_raw_rpc_outage_still_surfaces_communication_error(self, machine):
        """The supplicant RPC layer itself still fails loudly when no
        endpoint is registered — graceful degradation lives above it."""
        from repro.optee.supplicant import TeeSupplicant

        supplicant = TeeSupplicant(machine)
        with pytest.raises(TeeCommunicationError):
            supplicant.net.call("send", "nowhere.example", 1, b"x")

    def test_sensitive_utterances_unaffected_by_outage(self, provisioned):
        """DROP policy never touches the network, so sensitive utterances
        process fine even with the cloud down."""
        platform = IotPlatform.create(seed=74)
        platform.supplicant.net._endpoints.clear()
        pipeline = SecurePipeline(platform, provisioned.bundle)
        workload = make_workload(provisioned, [MIXED[1]])  # password utterance
        result = pipeline.process_item(workload.items[0])
        assert not result.forwarded


class TestDegradedInput:
    def test_powered_off_mic_yields_empty_transcript(self, provisioned):
        platform = IotPlatform.create(seed=75)
        platform.mic.power_off()
        pipeline = SecurePipeline(platform, provisioned.bundle)
        workload = make_workload(provisioned, MIXED[:1])
        result = pipeline.process_item(workload.items[0])
        assert result.transcript == ""
        # Nothing sensitive in silence; forwarded as benign (empty) payload.
        assert not result.utterance.sensitive or not result.forwarded

    def test_heavy_acoustic_noise_does_not_crash(self, provisioned):
        platform = IotPlatform.create(seed=76)
        pipeline = SecurePipeline(platform, provisioned.bundle)
        workload = make_workload(provisioned, MIXED[:1])
        item = workload.items[0]
        rng = np.random.default_rng(0)
        noisy = (
            item.pcm.astype(np.int32)
            + rng.normal(0, 15000, len(item.pcm)).astype(np.int32)
        ).clip(-32768, 32767).astype(np.int16)
        from repro.core.workload import WorkloadItem

        result = pipeline.process_item(
            WorkloadItem(utterance=item.utterance, pcm=noisy)
        )
        assert result.latency_cycles > 0  # processed, however garbled


class TestResourceExhaustion:
    def test_shared_memory_exhaustion(self, machine):
        from repro.optee.client import TeeClient
        from repro.optee.os import OpTeeOs

        tee = OpTeeOs(machine)  # the monitor refers to its OS weakly
        client = TeeClient(machine)
        with pytest.raises(MemoryError):
            client.allocate_shared_memory(machine.shmem.size * 2)

    def test_secure_carveout_exhaustion(self, machine):
        with pytest.raises(MemoryError):
            machine.secure_allocator.alloc(machine.dram_secure.size * 2)
