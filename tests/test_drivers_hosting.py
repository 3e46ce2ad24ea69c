"""Unit tests: driver hosting — world-dependent buffer security, camera
driver, and the settle rule (a host charges what a driver entry point
priced when the entry point returns or raises)."""

import numpy as np
import pytest

from repro.core import pta_audio
from repro.core.baseline import BaselinePipeline
from repro.core.pipeline import SecurePipeline
from repro.core.platform import IotPlatform
from repro.drivers.camera_driver import CameraDriver
from repro.drivers.conformance import (
    run_capture_conformance,
    run_mixer_conformance,
)
from repro.drivers.hosting import KernelDriverHost
from repro.drivers.i2s_driver import I2sDriver
from repro.errors import DeviceStateError, DriverError, SecureAccessViolation
from repro.kernel.kernel import Kernel
from repro.optee.supervise import SupervisorPolicy
from repro.peripherals.camera import Camera, SyntheticScene
from repro.peripherals.i2s import I2sBus, I2sController
from repro.peripherals.microphone import DigitalMicrophone
from repro.peripherals.audio import ToneSource
from repro.sim.clock import CycleDomain
from repro.sim.rng import SimRng
from repro.tz.interrupts import IRQ_I2S
from repro.tz.memory import MemoryRegion, SecurityAttr
from repro.tz.worlds import World
from tests.test_core_pipeline import MIXED, make_workload


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


class TestSettle:
    """Nothing stays pending between driver entry points, and an entry
    point that raises still charges what ran before the raise."""

    def test_secure_capture_commands_leave_nothing_pending(
        self, provisioned, monkeypatch
    ):
        seen = []
        on_invoke = pta_audio.SecureAudioPta.on_invoke

        def checked(pta, cmd, payload, caller):
            try:
                return on_invoke(pta, cmd, payload, caller)
            finally:
                seen.append((cmd, pta.driver.host.pending))

        monkeypatch.setattr(pta_audio.SecureAudioPta, "on_invoke", checked)
        pipeline = SecurePipeline(IotPlatform.create(seed=437), provisioned.bundle)
        pipeline.process(make_workload(provisioned, MIXED[:2]))
        pipeline.close()
        assert {cmd for cmd, _ in seen} >= {
            pta_audio.CMD_INIT, pta_audio.CMD_OPEN, pta_audio.CMD_START,
            pta_audio.CMD_READ, pta_audio.CMD_STOP, pta_audio.CMD_CLOSE,
        }
        assert [pending for _, pending in seen] == [0] * len(seen)

    def test_baseline_syscalls_leave_nothing_pending(
        self, provisioned, monkeypatch
    ):
        seen = []
        for name in ("sys_open", "sys_read", "sys_ioctl", "sys_close"):
            syscall = getattr(Kernel, name)

            def checked(kernel, *args, _name=name, _syscall=syscall):
                try:
                    return _syscall(kernel, *args)
                finally:
                    seen.append((_name, kernel.driver_host.pending))

            monkeypatch.setattr(Kernel, name, checked)
        pipeline = BaselinePipeline(
            IotPlatform.create(seed=41), provisioned.bundle.asr, use_tls=True
        )
        pipeline.process(make_workload(provisioned, MIXED[:2]))
        assert {name for name, _ in seen} == {
            "sys_open", "sys_read", "sys_ioctl", "sys_close",
        }
        assert [pending for _, pending in seen] == [0] * len(seen)

    def test_gic_delivered_irq_handler_settles(self, provisioned):
        """A flood between utterances of a supervised run overruns the
        FIFO; the GIC delivers the line to the secure driver's
        ``irq_handler`` across worlds, which settles before returning."""
        platform = IotPlatform.create(seed=437)
        pipeline = SecurePipeline(
            platform, provisioned.bundle, supervisor=SupervisorPolicy()
        )
        workload = make_workload(provisioned, MIXED[:2])
        pipeline.process_item(workload.items[0])
        controller = platform.i2s_controller
        gic = platform.machine.gic
        delivered = gic.line_count(IRQ_I2S)
        controller.capture(2 * controller.fifo_depth)
        assert gic.line_count(IRQ_I2S) == delivered + 1
        assert not controller._overrun_sticky  # the handler cleared it
        assert pipeline.pta.driver.host.pending == 0
        pipeline.process_item(workload.items[1])
        pipeline.close()

    # Per-domain totals recorded before entry points settled their host,
    # when every driver charge went to the clock at once.

    def test_raising_read_chunk_charges_its_call(self, machine):
        controller, region = _audio_rig(machine)
        driver = I2sDriver(KernelDriverHost(machine), controller, region)
        driver.probe()
        driver.pcm_open_capture(64)  # prepared, not capturing
        with pytest.raises(DeviceStateError):
            driver.read_chunk()
        assert machine.clock.snapshot().per_domain == {
            CycleDomain.NORMAL_CPU: 6250
        }

    def test_tzasc_fault_in_reg_read_charges_what_ran(self, machine):
        """A kernel-hosted driver whose MMIO partition was claimed secure:
        ``pcm_pointer`` → ``_reg_read`` faults, and both calls' bookkeeping
        is still charged (the faulting load itself never is)."""
        controller, region = _audio_rig(machine)
        driver = I2sDriver(KernelDriverHost(machine), controller, region)
        driver.probe()
        driver.pcm_open_capture(64)
        machine.cpu._set_world(World.SECURE)
        machine.secure_peripheral(region)
        machine.cpu._set_world(World.NORMAL)
        with pytest.raises(SecureAccessViolation):
            driver.pcm_pointer()
        assert machine.clock.snapshot().per_domain == {
            CycleDomain.NORMAL_CPU: 6400
        }
