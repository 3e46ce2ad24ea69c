"""Unit tests: kernel syscalls, char devices, tracer."""

import numpy as np
import pytest

from repro.drivers.i2s_driver import I2sDriver
from repro.errors import DeviceNotFound, KernelError, SyscallError
from repro.kernel.kernel import I2sCharDevice, Kernel
from repro.peripherals.audio import BufferSource, ToneSource
from repro.peripherals.i2s import I2sBus, I2sController
from repro.peripherals.microphone import DigitalMicrophone
from repro.tz.memory import MemoryRegion, SecurityAttr


@pytest.fixture
def kernel_rig(machine):
    region = machine.memory.add_region(
        MemoryRegion("i2s_mmio", 0x0400_0000, 0x1000,
                     SecurityAttr.NONSECURE, device=True)
    )
    controller = I2sController(machine.clock, machine.obs.tracer)
    machine.memory.attach_mmio("i2s_mmio", controller)
    mic = DigitalMicrophone(ToneSource(), fmt=controller.format)
    I2sBus(controller, mic)
    kernel = Kernel(machine)
    driver = I2sDriver(kernel.driver_host, controller, region)
    kernel.register_device("/dev/snd/i2s0", I2sCharDevice(driver))
    return kernel, driver, mic


class TestSyscalls:
    def test_open_returns_fd(self, kernel_rig):
        kernel, _, _ = kernel_rig
        fd = kernel.sys_open("/dev/snd/i2s0")
        assert fd >= 3

    def test_open_missing_device(self, kernel_rig):
        kernel, _, _ = kernel_rig
        with pytest.raises(SyscallError, match="ENOENT"):
            kernel.sys_open("/dev/null0")

    def test_bad_fd(self, kernel_rig):
        kernel, _, _ = kernel_rig
        with pytest.raises(SyscallError, match="EBADF"):
            kernel.sys_read(99, 4)
        with pytest.raises(SyscallError, match="EBADF"):
            kernel.sys_close(99)

    def test_close_invalidates_fd(self, kernel_rig):
        kernel, _, _ = kernel_rig
        fd = kernel.sys_open("/dev/snd/i2s0")
        kernel.sys_close(fd)
        with pytest.raises(SyscallError, match="EBADF"):
            kernel.sys_ioctl(fd, "GET_VOLUME")

    def test_syscalls_charge_cycles(self, kernel_rig):
        kernel, _, _ = kernel_rig
        before = kernel.machine.clock.now
        kernel.sys_open("/dev/snd/i2s0")
        assert kernel.machine.clock.now > before
        assert kernel.syscall_count == 1

    def test_device_lookup(self, kernel_rig):
        kernel, _, _ = kernel_rig
        assert kernel.device("/dev/snd/i2s0") is not None
        with pytest.raises(DeviceNotFound):
            kernel.device("/dev/ghost")


class TestCharDevice:
    def test_ioctl_volume(self, kernel_rig):
        kernel, driver, _ = kernel_rig
        fd = kernel.sys_open("/dev/snd/i2s0")
        kernel.sys_ioctl(fd, "SET_VOLUME", 70)
        assert kernel.sys_ioctl(fd, "GET_VOLUME") == 70
        assert driver.volume_pct == 70

    def test_unknown_ioctl(self, kernel_rig):
        kernel, _, _ = kernel_rig
        fd = kernel.sys_open("/dev/snd/i2s0")
        with pytest.raises(SyscallError, match="ENOTTY"):
            kernel.sys_ioctl(fd, "FROBNICATE")

    def test_read_before_start(self, kernel_rig):
        kernel, _, _ = kernel_rig
        fd = kernel.sys_open("/dev/snd/i2s0")
        with pytest.raises(SyscallError, match="EINVAL"):
            kernel.sys_read(fd, 16)

    def test_read_assembles_chunks(self, kernel_rig):
        kernel, _, mic = kernel_rig
        expect = np.arange(1, 601, dtype=np.int16)
        mic.swap_source(BufferSource(expect))
        fd = kernel.sys_open("/dev/snd/i2s0")
        kernel.sys_ioctl(fd, "OPEN_CAPTURE", 256)
        kernel.sys_ioctl(fd, "START")
        raw = kernel.sys_read(fd, 600 * 2)
        got = np.frombuffer(raw, dtype="<i2")
        assert np.array_equal(got, expect)

    def test_capture_pcm_helper(self, kernel_rig):
        kernel, _, mic = kernel_rig
        mic.swap_source(BufferSource(np.full(500, 123, dtype=np.int16)))
        pcm = kernel.capture_pcm("/dev/snd/i2s0", 500)
        assert len(pcm) == 500
        assert pcm[0] == 123

    def test_dump_regs_ioctl(self, kernel_rig):
        kernel, _, _ = kernel_rig
        fd = kernel.sys_open("/dev/snd/i2s0")
        kernel.sys_ioctl(fd, "OPEN_CAPTURE", 64)
        kernel.sys_ioctl(fd, "START")
        dump = kernel.sys_ioctl(fd, "DUMP_REGS")
        assert "ctrl" in dump


class TestTracer:
    def test_trace_captures_driver_calls(self, kernel_rig):
        kernel, _, _ = kernel_rig
        kernel.tracer.start("record")
        kernel.capture_pcm("/dev/snd/i2s0", 256)
        session = kernel.tracer.stop()
        used = session.functions_used()
        assert "probe" in used
        assert "read_chunk" in used
        assert "_drain_fifo_pio" in used
        # Functions the task never touches must not appear.
        assert "suspend" not in used
        assert "write_chunk" not in used

    def test_caller_attribution(self, kernel_rig):
        kernel, _, _ = kernel_rig
        kernel.tracer.start("record")
        kernel.capture_pcm("/dev/snd/i2s0", 64)
        session = kernel.tracer.stop()
        edges = session.call_edges()
        assert ("read_chunk", "_drain_fifo_pio") in edges
        assert (None, "probe") in edges  # external entry

    def test_no_recording_when_inactive(self, kernel_rig):
        kernel, _, _ = kernel_rig
        kernel.capture_pcm("/dev/snd/i2s0", 64)
        assert kernel.tracer.sessions == {}

    def test_concurrent_sessions_rejected(self, kernel_rig):
        kernel, _, _ = kernel_rig
        kernel.tracer.start("a")
        with pytest.raises(KernelError):
            kernel.tracer.start("b")
        kernel.tracer.stop()

    def test_stop_without_start(self, kernel_rig):
        kernel, _, _ = kernel_rig
        with pytest.raises(KernelError):
            kernel.tracer.stop()

    def test_sessions_archived_by_task(self, kernel_rig):
        kernel, _, _ = kernel_rig
        kernel.tracer.start("record")
        kernel.capture_pcm("/dev/snd/i2s0", 64)
        kernel.tracer.stop()
        assert kernel.tracer.session("record").task == "record"
        with pytest.raises(KernelError):
            kernel.tracer.session("ghost")

    def test_loc_used_below_total(self, kernel_rig):
        kernel, _, _ = kernel_rig
        kernel.tracer.start("record")
        kernel.capture_pcm("/dev/snd/i2s0", 64)
        session = kernel.tracer.stop()
        assert 0 < session.loc_used() < I2sDriver.total_loc()

    def test_calls_by_subsystem(self, kernel_rig):
        kernel, _, _ = kernel_rig
        kernel.tracer.start("record")
        kernel.capture_pcm("/dev/snd/i2s0", 64)
        session = kernel.tracer.stop()
        by_subsystem = session.calls_by_subsystem()
        assert by_subsystem.get("pcm", 0) > 0
        assert by_subsystem.get("regmap", 0) > 0
        assert "tx" not in by_subsystem
