"""Regression tests for the block-based capture hot path.

Covers the correctness bugs the vectorization exposed:

* the PTA read loop used to spin forever on a stalled controller;
* ``utterance_buffer()`` used to report the stale allocation size (and
  leave the previous utterance's plaintext tail) after a shorter
  utterance reused a larger buffer;
* FIFO underruns used to shorten chunks silently — now they are counted
  in ``capture_stats()`` and reconciled by the conformance suite;
* the FIFO *window read* (the MMIO burst access behind the vectorized
  drain) has hardware-shaped edge semantics of its own.
"""

import numpy as np
import pytest

from repro.core.pta_audio import CMD_INIT, SecureAudioPta
from repro.drivers.conformance import run_capture_conformance
from repro.drivers.hosting import KernelDriverHost
from repro.drivers.i2s_driver import I2sDriver
from repro.errors import (
    BusProtocolError,
    DeviceStateError,
    DriverError,
    FifoUnderrunError,
)
from repro.peripherals.audio import ToneSource
from repro.peripherals.i2s import CtrlBits, I2sBus, I2sController, I2sReg
from repro.peripherals.microphone import DigitalMicrophone
from repro.tz.memory import MemoryRegion, SecurityAttr
from repro.tz.worlds import World


@pytest.fixture
def rig(machine):
    region = machine.memory.add_region(
        MemoryRegion("i2s_mmio", 0x0400_0000, 0x1000,
                     SecurityAttr.NONSECURE, device=True)
    )
    controller = I2sController(machine.clock, machine.obs.tracer)
    machine.memory.attach_mmio("i2s_mmio", controller)
    mic = DigitalMicrophone(ToneSource(), fmt=controller.format)
    I2sBus(controller, mic)
    driver = I2sDriver(KernelDriverHost(machine), controller, region)
    return machine, driver, mic, controller


def _secure_pta(platform):
    """A registered + initialized SecureAudioPta on the platform's rig."""
    pta = SecureAudioPta(platform.i2s_controller, platform.i2s_region)
    platform.tee.register_pta(pta)
    machine = platform.machine
    machine.cpu._set_world(World.SECURE)
    try:
        pta.on_invoke(CMD_INIT, {}, None)
    finally:
        machine.cpu._set_world(World.NORMAL)
    return pta


class _DyingSource:
    """Tone source that disables the controller's RX path after serving
    one batch — models a mid-chunk clock/enable glitch."""

    def __init__(self, controller: I2sController):
        self._controller = controller
        self._tone = ToneSource()

    def next_samples(self, n: int) -> np.ndarray:
        samples = self._tone.next_samples(n)
        self._controller._ctrl = int(CtrlBits.ENABLE)  # RX off after this
        return samples

    def exhausted(self) -> bool:
        return False


class TestPtaStallBudget:
    """Satellite bugfix 1: the PTA read loop terminates on a stalled device."""

    def test_stalled_controller_raises_instead_of_hanging(self, platform):
        pta = _secure_pta(platform)
        platform.mic.swap_source(ToneSource())
        machine = platform.machine
        machine.cpu._set_world(World.SECURE)
        try:
            pta.driver.pcm_open_capture(128)
            pta.driver.trigger_start()
            # Glitch the controller: ENABLE without RX_ENABLE means
            # capture() accepts nothing, so read_chunk returns empty
            # forever while the driver still believes it is capturing.
            platform.i2s_controller._ctrl = int(CtrlBits.ENABLE)
            with pytest.raises(DeviceStateError, match="stalled"):
                pta._read(256)
        finally:
            machine.cpu._set_world(World.NORMAL)

    def test_transient_empty_reads_are_tolerated(self, platform):
        """Fewer than STALL_BUDGET empty reads recover transparently."""
        pta = _secure_pta(platform)
        platform.mic.swap_source(ToneSource())
        machine = platform.machine
        machine.cpu._set_world(World.SECURE)
        try:
            pta.driver.pcm_open_capture(64)
            pta.driver.trigger_start()
            controller = platform.i2s_controller
            live_ctrl = controller._ctrl
            reads = {"n": 0}
            original = pta.driver.read_chunk

            def flaky_read_chunk():
                reads["n"] += 1
                # Stall for the first STALL_BUDGET - 1 reads, then recover.
                if reads["n"] < SecureAudioPta.STALL_BUDGET:
                    controller._ctrl = int(CtrlBits.ENABLE)
                else:
                    controller._ctrl = live_ctrl
                return original()

            pta.driver.read_chunk = flaky_read_chunk
            pcm = pta._read(64)
            assert len(pcm) == 64
            assert np.any(pcm != 0)
        finally:
            machine.cpu._set_world(World.NORMAL)


class TestUtteranceBufferLiveLength:
    """Satellite bugfix 2: reused larger buffers report the live length
    and carry no stale plaintext tail."""

    def test_shrinking_utterance_reports_live_length_and_zeroed_tail(
        self, platform
    ):
        pta = _secure_pta(platform)
        platform.mic.swap_source(ToneSource())
        machine = platform.machine
        machine.cpu._set_world(World.SECURE)
        try:
            pta.driver.pcm_open_capture(128)
            pta.driver.trigger_start()
            big = pta._read(512)
            assert np.any(big != 0)
            addr, size = pta.utterance_buffer()
            assert size == 512 * 2
            tail_before = machine.memory.read(
                addr + 128 * 2, (512 - 128) * 2, World.SECURE
            )
            assert any(tail_before)  # the tail really held plaintext

            pta._read(128)
            addr2, live = pta.utterance_buffer()
            assert addr2 == addr  # buffer was reused, not reallocated
            assert live == 128 * 2  # live length, not allocation capacity
            tail_after = machine.memory.read(
                addr + 128 * 2, (512 - 128) * 2, World.SECURE
            )
            assert tail_after == b"\x00" * len(tail_after)
        finally:
            machine.cpu._set_world(World.NORMAL)

    def test_growing_utterance_reallocates_and_reports_full_length(
        self, platform
    ):
        pta = _secure_pta(platform)
        platform.mic.swap_source(ToneSource())
        machine = platform.machine
        machine.cpu._set_world(World.SECURE)
        try:
            pta.driver.pcm_open_capture(128)
            pta.driver.trigger_start()
            pta._read(128)
            _, live = pta.utterance_buffer()
            assert live == 128 * 2
            pta._read(512)
            _, live = pta.utterance_buffer()
            assert live == 512 * 2
        finally:
            machine.cpu._set_world(World.NORMAL)


class TestShortReadAccounting:
    """Satellite bugfix 3: underruns surface in capture_stats()."""

    def test_underrun_counts_short_read_and_missing_frames(self, rig):
        _, driver, mic, controller = rig
        mic.swap_source(_DyingSource(controller))
        driver.probe()
        driver.pcm_open_capture(64)
        driver.trigger_start()
        pcm = driver.read_chunk()
        # The first FIFO batch (fifo_depth // 2 frames) lands, then the
        # glitched controller produces nothing more for this chunk.
        assert len(pcm) == controller.fifo_depth // 2
        stats = driver.capture_stats()
        assert stats == {
            "chunks": 1,
            "short_reads": 1,
            "missing_frames": 64 - len(pcm),
        }

    def test_full_reads_leave_stats_clean(self, rig):
        _, driver, _, _ = rig
        driver.probe()
        driver.pcm_open_capture(64)
        driver.trigger_start()
        for _ in range(3):
            assert len(driver.read_chunk()) == 64
        assert driver.capture_stats() == {
            "chunks": 3, "short_reads": 0, "missing_frames": 0,
        }

    def test_conformance_reconciles_short_reads(self, rig):
        _, driver, _, _ = rig
        driver.probe()
        report = run_capture_conformance(driver)
        assert report.passed, report.failed_checks()
        assert report.checks["short_reads_accounted"]

    def test_usb_dead_pipe_raises_instead_of_hanging(self, machine):
        """A pipe that stalls on every retry trips the stall budget."""
        from repro.drivers.usb_audio_driver import UsbAudioDriver
        from repro.peripherals.usb import UsbAudioMicrophone, UsbBus

        bus = UsbBus(machine.clock, UsbAudioMicrophone(ToneSource()))
        driver = UsbAudioDriver(KernelDriverHost(machine), bus)
        driver.probe()
        driver.pcm_open_capture(128)
        driver.trigger_start()

        def dead_iso_in(endpoint, frames):
            raise BusProtocolError("endpoint stalled")

        bus.iso_in = dead_iso_in
        with pytest.raises(DriverError, match="iso pipe dead"):
            driver.read_chunk()


class TestFifoWindowRead:
    """The MMIO burst access behind the vectorized drain."""

    def test_window_read_pops_words_in_order(self, rig):
        machine, driver, _, controller = rig
        driver.probe()
        driver.pcm_open_capture(64)
        driver.trigger_start()
        controller.capture(8)
        raw = machine.memory.read(
            driver.reg_base + int(I2sReg.FIFO), 8 * 4, World.NORMAL
        )
        words = np.frombuffer(raw, dtype="<u4")
        assert len(words) == 8
        assert controller.fifo_level == 0
        # Sequence numbers in the high halves are consecutive.
        seqs = (words >> 16).astype(np.int64)
        assert list(seqs) == list(range(seqs[0], seqs[0] + 8))

    def test_window_read_beyond_level_underruns(self, rig):
        machine, driver, _, controller = rig
        driver.probe()
        driver.pcm_open_capture(64)
        driver.trigger_start()
        controller.capture(4)
        with pytest.raises(FifoUnderrunError):
            machine.memory.read(
                driver.reg_base + int(I2sReg.FIFO), 8 * 4, World.NORMAL
            )

    def test_window_read_must_be_word_multiple(self, rig):
        machine, driver, _, controller = rig
        driver.probe()
        driver.pcm_open_capture(64)
        driver.trigger_start()
        controller.capture(4)
        with pytest.raises(BusProtocolError):
            machine.memory.read(
                driver.reg_base + int(I2sReg.FIFO), 6, World.NORMAL
            )

    def test_other_registers_still_reject_wide_reads(self, rig):
        machine, driver, _, _ = rig
        with pytest.raises(BusProtocolError):
            machine.memory.read(
                driver.reg_base + int(I2sReg.STATUS), 8, World.NORMAL
            )


class TestGoldenStream:
    """The vectorized path is byte-identical to the scalar reference."""

    def test_read_chunk_matches_scalar_reference_stream(self, rig):
        from repro.drivers.reference import read_chunk_scalar

        machine, driver, _, _ = rig
        driver.probe()
        driver.pcm_open_capture(256)
        driver.trigger_start()
        vector = np.concatenate([driver.read_chunk() for _ in range(4)])

        # Fresh, identically seeded rig for the scalar reference.
        machine2 = type(machine)()
        region2 = machine2.memory.add_region(
            MemoryRegion("i2s_mmio", 0x0400_0000, 0x1000,
                         SecurityAttr.NONSECURE, device=True)
        )
        controller2 = I2sController(machine2.clock, machine2.obs.tracer)
        machine2.memory.attach_mmio("i2s_mmio", controller2)
        I2sBus(controller2,
               DigitalMicrophone(ToneSource(), fmt=controller2.format))
        driver2 = I2sDriver(KernelDriverHost(machine2), controller2, region2)
        driver2.probe()
        driver2.pcm_open_capture(256)
        driver2.trigger_start()
        scalar = np.concatenate(
            [read_chunk_scalar(driver2) for _ in range(4)]
        )
        assert np.array_equal(vector, scalar)
        # The landed I/O buffers agree too (last chunk each).
        assert machine.memory.read(driver._buf_addr, 512, World.NORMAL) == \
            machine2.memory.read(driver2._buf_addr, 512, World.NORMAL)
