"""Unit tests: the driver's DMA capture mode."""

import numpy as np
import pytest

from repro.drivers.hosting import KernelDriverHost
from repro.drivers.i2s_driver import I2sDriver
from repro.errors import DriverError, SecureAccessViolation
from repro.peripherals.audio import BufferSource, ToneSource
from repro.peripherals.i2s import I2sBus, I2sController
from repro.peripherals.microphone import DigitalMicrophone
from repro.sim.clock import CycleDomain
from repro.tz.memory import MemoryRegion, SecurityAttr
from repro.tz.worlds import World
from tests.test_drivers_i2s import open_capture


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
    return machine, driver, mic


class TestDmaCapture:
    def test_dma_mode_selectable(self, rig):
        _, driver, _ = rig
        driver.probe()
        driver.set_capture_mode("dma")
        assert driver.capture_mode == "dma"
        driver.set_capture_mode("pio")
        assert driver.capture_mode == "pio"

    def test_unknown_mode_rejected(self, rig):
        _, driver, _ = rig
        driver.probe()
        with pytest.raises(DriverError):
            driver.set_capture_mode("scatter-gather")

    def test_dma_capture_matches_pio(self, rig):
        machine, driver, mic = rig
        expect = (np.arange(128) * 37 % 4000 - 2000).astype(np.int16)

        mic.swap_source(BufferSource(expect.copy()))
        open_capture(driver, chunk=128)
        pio = driver.read_chunk()
        driver.trigger_stop()
        driver.pcm_close()

        mic.swap_source(BufferSource(expect.copy()))
        driver.set_capture_mode("dma")
        driver.pcm_open_capture(128)
        driver.trigger_start()
        dma = driver.read_chunk()
        assert np.array_equal(pio, dma)

    def test_dma_charges_dma_domain(self, rig):
        machine, driver, _ = rig
        driver.probe()
        driver.set_capture_mode("dma")
        driver.pcm_open_capture(64)
        driver.trigger_start()
        driver.read_chunk()
        assert machine.clock.cycles_in(CycleDomain.DMA) > 0

    def test_dma_is_cheaper_cpu_side_than_pio(self, rig):
        """DMA saves CPU cycles: no per-word MMIO FIFO reads."""
        machine, driver, _ = rig
        open_capture(driver, chunk=256)
        before = machine.clock.cycles_in(CycleDomain.NORMAL_CPU)
        driver.read_chunk()
        pio_cpu = machine.clock.cycles_in(CycleDomain.NORMAL_CPU) - before

        driver.set_capture_mode("dma")
        before = machine.clock.cycles_in(CycleDomain.NORMAL_CPU)
        driver.read_chunk()
        dma_cpu = machine.clock.cycles_in(CycleDomain.NORMAL_CPU) - before
        assert dma_cpu < pio_cpu

    def test_remove_releases_staging(self, rig):
        machine, driver, _ = rig
        driver.probe()
        driver.set_capture_mode("dma")
        assert machine.ns_allocator.used_bytes > 0
        driver.remove()
        assert machine.ns_allocator.used_bytes == 0

    def test_dma_fns_absent_from_pio_trace(self, rig):
        """TCB story: the DMA subsystem is strippable for a PIO task."""
        machine, driver, _ = rig
        host = driver.host
        from repro.kernel.tracer import FunctionTracer

        tracer = FunctionTracer()
        host.attach_tracer(tracer)
        tracer.start("pio-record")
        open_capture(driver, chunk=64)
        driver.read_chunk()
        session = tracer.stop()
        assert not any(
            fn.startswith("_dma") or fn == "set_capture_mode"
            for fn in session.functions_used()
        )


class TestSecureDma:
    def test_secure_hosted_dma_targets_secure_staging(self, machine):
        from repro.drivers.hosting import SecureDriverHost
        from repro.optee.os import OpTeeOs
        from repro.optee.pta import PseudoTa, PtaContext

        region = machine.memory.add_region(
            MemoryRegion("i2s_mmio", 0x0400_0000, 0x1000,
                         SecurityAttr.NONSECURE, device=True)
        )
        controller = I2sController(machine.clock, machine.obs.tracer)
        machine.memory.attach_mmio("i2s_mmio", controller)
        I2sBus(controller,
               DigitalMicrophone(ToneSource(), fmt=controller.format))
        tee = OpTeeOs(machine)
        host = SecureDriverHost(PtaContext(tee, PseudoTa()))
        driver = I2sDriver(host, controller, region)

        machine.cpu._set_world(World.SECURE)
        try:
            driver.probe()
            driver.set_capture_mode("dma")
            driver.pcm_open_capture(64)
            driver.trigger_start()
            pcm = driver.read_chunk()
            assert len(pcm) == 64
            staging = driver._dma_staging_addr
        finally:
            machine.cpu._set_world(World.NORMAL)

        # The staging buffer holds raw mic words and is secure.
        with pytest.raises(SecureAccessViolation):
            machine.memory.read(staging, 16, World.NORMAL)
