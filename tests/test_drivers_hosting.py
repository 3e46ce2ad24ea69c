"""Unit tests: driver hosting — world-dependent buffer security, camera driver."""

import numpy as np
import pytest

from repro.drivers.camera_driver import CameraDriver
from repro.drivers.conformance import (
    run_capture_conformance,
    run_mixer_conformance,
)
from repro.drivers.hosting import KernelDriverHost
from repro.drivers.i2s_driver import I2sDriver
from repro.errors import DeviceStateError, DriverError, SecureAccessViolation
from repro.peripherals.camera import Camera, SyntheticScene
from repro.peripherals.i2s import I2sBus, I2sController
from repro.peripherals.microphone import DigitalMicrophone
from repro.peripherals.audio import ToneSource
from repro.sim.rng import SimRng
from repro.tz.memory import MemoryRegion, SecurityAttr
from repro.tz.worlds import World


class TestKernelHost:
    def test_buffers_in_nonsecure_dram(self, machine):
        host = KernelDriverHost(machine)
        addr = host.alloc_buffer(256)
        region = machine.dram_ns
        assert region.base <= addr < region.end
        # Anyone in the normal world can read it.
        machine.memory.read(addr, 256, World.NORMAL)

    def test_world_is_normal(self, machine):
        assert KernelDriverHost(machine).world is World.NORMAL

    def test_cannot_touch_secure_memory(self, machine):
        host = KernelDriverHost(machine)
        with pytest.raises(SecureAccessViolation):
            host.read_mem(machine.dram_secure.base, 4)


class TestSecureHost:
    def _secure_host(self, machine):
        from repro.drivers.hosting import SecureDriverHost
        from repro.optee.os import OpTeeOs
        from repro.optee.pta import PseudoTa, PtaContext

        tee = OpTeeOs(machine)
        pta = PseudoTa()
        ctx = PtaContext(tee, pta)
        return SecureDriverHost(ctx)

    def test_buffers_in_secure_carveout(self, machine):
        host = self._secure_host(machine)
        addr = host.alloc_buffer(256)
        region = machine.dram_secure
        assert region.base <= addr < region.end
        # Normal world cannot read it.
        with pytest.raises(SecureAccessViolation):
            machine.memory.read(addr, 256, World.NORMAL)

    def test_world_is_secure(self, machine):
        assert self._secure_host(machine).world is World.SECURE

    def test_accesses_require_secure_cpu_state(self, machine):
        from repro.errors import WorldStateError

        host = self._secure_host(machine)
        addr = host.alloc_buffer(64)
        with pytest.raises(WorldStateError):
            host.write_mem(addr, b"x")  # CPU is in normal world
        machine.cpu._set_world(World.SECURE)
        try:
            host.write_mem(addr, b"x")
            assert host.read_mem(addr, 1) == b"x"
        finally:
            machine.cpu._set_world(World.NORMAL)


class TestCameraDriver:
    @pytest.fixture
    def camera_rig(self, machine):
        camera = Camera(SyntheticScene(SimRng(5)), width=16, height=12)
        driver = CameraDriver(KernelDriverHost(machine), camera)
        return machine, driver, camera

    def test_lifecycle(self, camera_rig):
        _, driver, _ = camera_rig
        driver.probe()
        driver.stream_on()
        frame = driver.capture_frame()
        assert frame.shape == (12, 16)
        driver.stream_off()
        driver.remove()
        assert driver.state == "unbound"

    def test_capture_requires_streaming(self, camera_rig):
        _, driver, _ = camera_rig
        driver.probe()
        with pytest.raises(DeviceStateError):
            driver.capture_frame()

    def test_exposure_applied(self, camera_rig):
        _, driver, _ = camera_rig
        driver.probe()
        driver.stream_on()
        driver.set_exposure(100)  # 2x gain
        bright = driver.capture_frame().mean()
        driver.set_exposure(25)  # 0.5x gain
        dark = driver.capture_frame().mean()
        assert bright > dark

    def test_exposure_range(self, camera_rig):
        _, driver, _ = camera_rig
        driver.probe()
        with pytest.raises(DriverError):
            driver.set_exposure(101)

    def test_frame_lands_in_host_buffer(self, camera_rig):
        machine, driver, camera = camera_rig
        driver.probe()
        driver.stream_on()
        frame = driver.capture_frame()
        raw = machine.memory.read(
            driver._buf_addr, camera.frame_bytes, World.NORMAL
        )
        assert raw == frame.tobytes()

    def test_formats(self, camera_rig):
        _, driver, _ = camera_rig
        driver.probe()
        assert driver.enumerate_formats() == ["GREY8"]


def _audio_rig(machine):
    region = machine.memory.add_region(
        MemoryRegion("i2s_mmio", 0x0400_0000, 0x1000,
                     SecurityAttr.NONSECURE, device=True)
    )
    controller = I2sController(machine.clock, machine.obs.tracer)
    machine.memory.attach_mmio("i2s_mmio", controller)
    I2sBus(controller, DigitalMicrophone(ToneSource(), fmt=controller.format))
    return controller, region


class TestConformance:
    def test_full_driver_passes(self, machine):
        controller, region = _audio_rig(machine)
        driver = I2sDriver(KernelDriverHost(machine), controller, region)
        driver.probe()
        report = run_capture_conformance(driver)
        assert report.passed, report.failed_checks() or report.failure

    def test_mixer_conformance(self, machine):
        controller, region = _audio_rig(machine)
        driver = I2sDriver(KernelDriverHost(machine), controller, region)
        driver.probe()
        report = run_mixer_conformance(driver)
        assert report.passed

    def test_overstripped_build_fails_conformance(self, machine):
        controller, region = _audio_rig(machine)
        driver = I2sDriver(
            KernelDriverHost(machine), controller, region,
            compiled_out=frozenset({"_drain_fifo_pio"}),
        )
        driver.probe()
        report = run_capture_conformance(driver)
        assert not report.passed
        assert report.failure is not None and "compiled out" in report.failure

    def test_report_lists_failed_checks(self, machine):
        controller, region = _audio_rig(machine)
        driver = I2sDriver(KernelDriverHost(machine), controller, region)
        # Not probed: state is 'unbound', so the first check fails and
        # open raises.
        report = run_capture_conformance(driver)
        assert not report.passed
        assert "state_idle" in report.checks
