"""Unit tests: I²S bus, controller register file, FIFO semantics."""

import struct

import numpy as np
import pytest

from repro.drivers.hosting import KernelDriverHost
from repro.drivers.i2s_driver import I2sDriver
from repro.errors import BusProtocolError, FifoUnderrunError
from repro.obs.span import SpanTracer
from repro.peripherals.audio import (
    AudioFormat,
    BufferSource,
    SilenceSource,
    ToneSource,
)
from repro.peripherals.i2s import (
    CtrlBits,
    I2sBus,
    I2sController,
    I2sReg,
    StatusBits,
)
from repro.peripherals.microphone import DigitalMicrophone
from repro.sim.clock import CycleDomain, SimClock
from repro.tz.machine import TrustZoneMachine
from repro.tz.memory import MemoryRegion, SecurityAttr
from repro.tz.worlds import World


def make_controller(fifo_depth=64, fmt=None):
    clock = SimClock()
    return I2sController(
        clock, SpanTracer(clock), fmt=fmt, fifo_depth=fifo_depth
    )


def wire(controller, source=None):
    mic = DigitalMicrophone(source or ToneSource(), fmt=controller.format)
    I2sBus(controller, mic)
    return mic


def reg_write(ctrl, reg, value):
    ctrl.mmio_write(int(reg), struct.pack("<I", value))


def reg_read(ctrl, reg):
    return struct.unpack("<I", ctrl.mmio_read(int(reg), 4))[0]


def enable(ctrl):
    reg_write(ctrl, I2sReg.CTRL, int(CtrlBits.ENABLE | CtrlBits.RX_ENABLE))


class TestBusWiring:
    def test_format_mismatch_rejected(self):
        ctrl = make_controller(fmt=AudioFormat(sample_rate=16_000))
        mic = DigitalMicrophone(ToneSource(), fmt=AudioFormat(sample_rate=48_000))
        with pytest.raises(BusProtocolError):
            I2sBus(ctrl, mic)

    def test_double_attach_rejected(self):
        ctrl = make_controller()
        wire(ctrl)
        with pytest.raises(BusProtocolError):
            wire(ctrl)

    def test_bit_clock(self):
        ctrl = make_controller(fmt=AudioFormat(sample_rate=16_000, bit_depth=16))
        bus = I2sBus(ctrl, DigitalMicrophone(ToneSource(), fmt=ctrl.format))
        assert bus.bit_clock_hz == 16_000 * 16 * 2  # two word slots

    def test_capture_without_bus(self):
        ctrl = make_controller()
        enable(ctrl)
        with pytest.raises(BusProtocolError):
            ctrl.capture(4)


class TestCaptureAndFifo:
    def test_capture_requires_enable(self):
        ctrl = make_controller()
        wire(ctrl)
        assert ctrl.capture(10) == 0
        assert ctrl.fifo_level == 0

    def test_capture_fills_fifo(self):
        ctrl = make_controller()
        wire(ctrl)
        enable(ctrl)
        assert ctrl.capture(10) == 10
        assert ctrl.fifo_level == 10

    def test_fifo_word_layout(self):
        ctrl = make_controller()
        wire(ctrl, source=ToneSource(amplitude=0.9))
        enable(ctrl)
        ctrl.capture(3)
        words = [ctrl.pop_word() for _ in range(3)]
        seqs = [w >> 16 for w in words]
        assert seqs == [0, 1, 2]

    def test_overrun_drops_and_sets_sticky(self):
        ctrl = make_controller(fifo_depth=8)
        wire(ctrl)
        enable(ctrl)
        accepted = ctrl.capture(20)
        assert accepted == 8
        status = reg_read(ctrl, I2sReg.STATUS)
        assert status & StatusBits.OVERRUN
        assert reg_read(ctrl, I2sReg.OVERRUN_COUNT) == 12

    def test_overrun_event_only_when_frames_dropped(self):
        # The OVERRUN bit is sticky, but the event reports this capture's
        # drops: captures that accept every frame while the bit is still
        # set must not emit it.
        ctrl = make_controller(fifo_depth=8)
        wire(ctrl)
        enable(ctrl)
        irqs = []
        ctrl.set_irq_callback(lambda: irqs.append(ctrl.clock.now))
        ctrl.capture(12)  # 8 accepted, 4 dropped
        ctrl.drain_words(8)
        ctrl.capture(4)  # all accepted, OVERRUN still set
        ctrl.capture(4)  # all accepted, OVERRUN still set
        assert reg_read(ctrl, I2sReg.STATUS) & StatusBits.OVERRUN
        events = ctrl.tracer.spans_in("periph.i2s")
        assert [(e.name, e.attrs) for e in events] == [
            ("overrun", {"dropped": 4}),
        ]
        ctrl.capture(4)  # FIFO full again: 4 more dropped
        events = ctrl.tracer.spans_in("periph.i2s")
        assert [e.attrs["dropped"] for e in events] == [4, 4]
        assert reg_read(ctrl, I2sReg.OVERRUN_COUNT) == 8
        assert len(irqs) == 1  # edge-triggered on the first overrun only

    def test_overrun_clear_write_one(self):
        ctrl = make_controller(fifo_depth=4)
        wire(ctrl)
        enable(ctrl)
        ctrl.capture(8)
        reg_write(ctrl, I2sReg.STATUS, int(StatusBits.OVERRUN))
        assert not reg_read(ctrl, I2sReg.STATUS) & StatusBits.OVERRUN

    def test_underrun_raises(self):
        ctrl = make_controller()
        wire(ctrl)
        with pytest.raises(FifoUnderrunError):
            ctrl.pop_word()

    def test_drain_words(self):
        ctrl = make_controller()
        wire(ctrl)
        enable(ctrl)
        ctrl.capture(10)
        assert len(ctrl.drain_words(6)) == 6
        assert len(ctrl.drain_words(100)) == 4

    def test_fifo_reset(self):
        ctrl = make_controller()
        wire(ctrl)
        enable(ctrl)
        ctrl.capture(5)
        reg_write(ctrl, I2sReg.CTRL, int(CtrlBits.FIFO_RESET))
        assert ctrl.fifo_level == 0

    def test_capture_advances_peripheral_time(self):
        ctrl = make_controller()
        wire(ctrl)
        enable(ctrl)
        ctrl.capture(16_000)  # one second of audio
        assert ctrl.clock.cycles_in(CycleDomain.PERIPHERAL) == int(ctrl.clock.freq_hz)


class TestRegisterFile:
    def test_status_empty_flag(self):
        ctrl = make_controller()
        wire(ctrl)
        assert reg_read(ctrl, I2sReg.STATUS) & StatusBits.RX_EMPTY

    def test_status_enabled_flag(self):
        ctrl = make_controller()
        wire(ctrl)
        enable(ctrl)
        assert reg_read(ctrl, I2sReg.STATUS) & StatusBits.ENABLED

    def test_sample_rate_register(self):
        ctrl = make_controller(fmt=AudioFormat(sample_rate=8_000))
        assert reg_read(ctrl, I2sReg.SAMPLE_RATE) == 8_000

    def test_frame_count_register(self):
        ctrl = make_controller()
        wire(ctrl)
        enable(ctrl)
        ctrl.capture(7)
        assert reg_read(ctrl, I2sReg.FRAME_COUNT) == 7

    def test_fifo_register_pops(self):
        ctrl = make_controller()
        wire(ctrl)
        enable(ctrl)
        ctrl.capture(2)
        reg_read(ctrl, I2sReg.FIFO)
        assert reg_read(ctrl, I2sReg.FIFO_LEVEL) == 1

    def test_non_word_access_rejected(self):
        ctrl = make_controller()
        with pytest.raises(BusProtocolError):
            ctrl.mmio_read(int(I2sReg.STATUS), 2)
        with pytest.raises(BusProtocolError):
            ctrl.mmio_write(int(I2sReg.CTRL), b"\x01")

    def test_unknown_register_rejected(self):
        ctrl = make_controller()
        with pytest.raises(BusProtocolError):
            ctrl.mmio_read(0x80, 4)
        with pytest.raises(BusProtocolError):
            ctrl.mmio_write(0x80, b"\x00" * 4)


class TestSignalIntegrity:
    def test_samples_survive_fifo(self):
        """Data clocked in equals data drained (no FIFO pressure)."""
        from repro.peripherals.audio import BufferSource

        expect = (np.arange(-50, 50) * 100).astype(np.int16)
        ctrl = make_controller(fifo_depth=128)
        wire(ctrl, source=BufferSource(expect))
        enable(ctrl)
        ctrl.capture(100)
        got = []
        while ctrl.fifo_level:
            sample = ctrl.pop_word() & 0xFFFF
            got.append(sample - 0x10000 if sample >= 0x8000 else sample)
        assert np.array_equal(np.array(got, dtype=np.int16), expect)


class TestSequenceWrap:
    """The 16-bit frame-sequence wrap, where batch packing shifts a
    ``uint32`` arange, and the FIFO edges just past it."""

    SAMPLES = np.array(
        [-32768, 32767, -1, 0, 1, -2, 12345, -12345] * 4, dtype=np.int16
    )

    def _wrapped_rig(self):
        machine = TrustZoneMachine()
        region = machine.memory.add_region(
            MemoryRegion("i2s_mmio", 0x0400_0000, 0x1000,
                         SecurityAttr.NONSECURE, device=True)
        )
        ctrl = I2sController(machine.clock, machine.obs.tracer)
        machine.memory.attach_mmio("i2s_mmio", ctrl)
        wire(ctrl, source=BufferSource(self.SAMPLES.copy()))
        driver = I2sDriver(KernelDriverHost(machine), ctrl, region)
        driver.probe()
        driver.pcm_open_capture(len(self.SAMPLES))
        driver.trigger_start()
        ctrl._frame_count = 0xFFF0
        assert ctrl.capture(len(self.SAMPLES)) == len(self.SAMPLES)
        return machine, driver, ctrl

    def test_high_halves_wrap_to_zero(self):
        _, _, ctrl = self._wrapped_rig()
        words = ctrl.drain_words(len(self.SAMPLES))
        assert [w >> 16 for w in words] == (
            list(range(0xFFF0, 0x10000)) + list(range(0x10))
        )
        assert words == [
            ((0xFFF0 + i) & 0xFFFF) << 16 | (int(s) & 0xFFFF)
            for i, s in enumerate(self.SAMPLES)
        ]

    def test_pio_and_dma_drains_return_the_samples(self):
        _, pio_driver, _ = self._wrapped_rig()
        _, dma_driver, _ = self._wrapped_rig()
        dma_driver.set_capture_mode("dma")
        pio = pio_driver._drain_fifo_pio(len(self.SAMPLES))
        dma = dma_driver._drain_fifo_dma(len(self.SAMPLES))
        assert pio.dtype == dma.dtype == np.int16
        assert np.array_equal(pio, self.SAMPLES)
        assert np.array_equal(dma, self.SAMPLES)

    def test_underruns_and_reset(self):
        machine, driver, ctrl = self._wrapped_rig()
        fifo = driver.reg_base + int(I2sReg.FIFO)
        with pytest.raises(FifoUnderrunError):
            machine.memory.read(fifo, 4 * (len(self.SAMPLES) + 1), World.NORMAL)
        assert ctrl.fifo_level == len(self.SAMPLES)  # a failed burst pops nothing
        machine.memory.read(fifo, 4 * len(self.SAMPLES), World.NORMAL)
        with pytest.raises(FifoUnderrunError):
            ctrl.pop_word()
        ctrl.capture(5)
        reg_write(ctrl, I2sReg.CTRL, int(CtrlBits.FIFO_RESET))
        assert ctrl.fifo_level == 0
        assert reg_read(ctrl, I2sReg.STATUS) & StatusBits.RX_EMPTY
