"""The normal-world kernel: char devices and syscalls.

A thin but real kernel layer: drivers are exposed as character devices,
userland reaches them through a file-descriptor table and syscalls with
errno-style failures, and the ftrace tracer can be armed around any task.
The baseline (insecure) pipeline drives audio capture through this exact
interface, so the overhead comparison against the TEE path is apples to
apples: both pay their respective entry costs (syscall vs SMC).
"""

from __future__ import annotations

from typing import Any, Protocol

import numpy as np

from repro.drivers.hosting import KernelDriverHost
from repro.drivers.i2s_driver import STALL_BUDGET, I2sDriver
from repro.errors import DeviceNotFound, SyscallError
from repro.kernel.tracer import FunctionTracer
from repro.tz.machine import TrustZoneMachine


class CharDevice(Protocol):
    """Character-device operations a driver adapter implements."""

    def dev_open(self) -> None: ...

    def dev_read(self, n: int) -> bytes: ...

    def dev_ioctl(self, request: str, arg: Any = None) -> Any: ...

    def dev_close(self) -> None: ...


class I2sCharDevice:
    """ALSA-flavoured char device adapter over :class:`I2sDriver`.

    ioctl requests (string-keyed, one per driver entry point the capture
    and mixer tasks need):

    ====================  =============================================
    request               effect
    ====================  =============================================
    ``OPEN_CAPTURE``      ``pcm_open_capture(arg=chunk_frames)``
    ``START`` / ``STOP``  trigger start/stop
    ``CLOSE_PCM``         close the stream
    ``SET_VOLUME``        mixer volume (arg=percent)
    ``GET_VOLUME``        returns percent
    ``SET_MUTE``          arg=bool
    ``POINTER``           frames captured so far
    ``DUMP_REGS``         debugfs-style register dump
    ====================  =============================================
    """

    def __init__(self, driver: I2sDriver):
        self.driver = driver
        self._open = False
        self._pending = b""

    def dev_open(self) -> None:
        """Open the device node (probes the driver on first open)."""
        if self.driver.state == "unbound":
            self.driver.probe()
        self._open = True

    def dev_read(self, n: int) -> bytes:
        """Read ``n`` bytes of captured PCM (captures chunks on demand).

        ``STALL_BUDGET`` empty periods in a row fail the read with ``EIO``.
        """
        if not self._open:
            raise SyscallError("EBADF", "device not open")
        if self.driver.state != "capturing":
            raise SyscallError("EINVAL", "capture not started")
        empty_reads = 0
        while len(self._pending) < n:
            pcm = self.driver.read_chunk()
            if len(pcm) == 0:
                empty_reads += 1
                if empty_reads >= STALL_BUDGET:
                    raise SyscallError(
                        "EIO", f"capture stalled: {empty_reads} consecutive "
                        f"empty periods at {len(self._pending)}/{n} bytes"
                    )
                continue
            empty_reads = 0
            self._pending += pcm.astype("<i2").tobytes()
        out, self._pending = self._pending[:n], self._pending[n:]
        return out

    def dev_ioctl(self, request: str, arg: Any = None) -> Any:
        """Dispatch one control request."""
        if not self._open:
            raise SyscallError("EBADF", "device not open")
        driver = self.driver
        if request == "OPEN_CAPTURE":
            driver.pcm_open_capture(int(arg))
            return None
        if request == "START":
            driver.trigger_start()
            return None
        if request == "STOP":
            driver.trigger_stop()
            return None
        if request == "CLOSE_PCM":
            driver.pcm_close()
            self._pending = b""
            return None
        if request == "SET_VOLUME":
            driver.set_volume(int(arg))
            return None
        if request == "GET_VOLUME":
            return driver.get_volume()
        if request == "SET_MUTE":
            driver.set_mute(bool(arg))
            return None
        if request == "POINTER":
            return driver.pcm_pointer()
        if request == "DUMP_REGS":
            return driver.dump_registers()
        raise SyscallError("ENOTTY", f"unknown ioctl {request!r}")

    def dev_close(self) -> None:
        """Close the device node."""
        self._open = False
        self._pending = b""


class Kernel:
    """The untrusted OS: device registry, fd table, syscall surface."""

    def __init__(self, machine: TrustZoneMachine):
        self.machine = machine
        self.driver_host = KernelDriverHost(machine)
        self.tracer = FunctionTracer()
        self.driver_host.attach_tracer(self.tracer)
        self._devices: dict[str, CharDevice] = {}
        self._fds: dict[int, CharDevice] = {}
        self._next_fd = 3  # 0-2 reserved, as tradition demands
        self.syscall_count = 0

    # -- device management ----------------------------------------------------

    def register_device(self, path: str, device: CharDevice) -> None:
        """Create a device node at ``path`` (e.g. ``"/dev/snd/i2s0"``)."""
        self._devices[path] = device

    def device(self, path: str) -> CharDevice:
        """Look up a registered device."""
        if path not in self._devices:
            raise DeviceNotFound(path)
        return self._devices[path]

    # -- syscalls ------------------------------------------------------------------

    def _enter(self) -> None:
        self.syscall_count += 1
        self.machine.cpu.execute(self.machine.costs.syscall_cycles)

    def sys_open(self, path: str) -> int:
        """Open a device node; returns a file descriptor."""
        self._enter()
        device = self._devices.get(path)
        if device is None:
            raise SyscallError("ENOENT", path)
        device.dev_open()
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = device
        return fd

    def sys_read(self, fd: int, n: int) -> bytes:
        """Read from an open descriptor."""
        self._enter()
        return self._fd(fd).dev_read(n)

    def sys_ioctl(self, fd: int, request: str, arg: Any = None) -> Any:
        """Control an open descriptor."""
        self._enter()
        return self._fd(fd).dev_ioctl(request, arg)

    def sys_close(self, fd: int) -> None:
        """Close a descriptor."""
        self._enter()
        device = self._fds.pop(fd, None)
        if device is None:
            raise SyscallError("EBADF", str(fd))
        device.dev_close()

    def _fd(self, fd: int) -> CharDevice:
        device = self._fds.get(fd)
        if device is None:
            raise SyscallError("EBADF", str(fd))
        return device

    # -- convenience: capture PCM via the syscall interface -------------------------

    def capture_pcm(self, path: str, frames: int, chunk_frames: int = 256) -> np.ndarray:
        """Record ``frames`` samples through open/ioctl/read/close."""
        fd = self.sys_open(path)
        try:
            self.sys_ioctl(fd, "OPEN_CAPTURE", chunk_frames)
            self.sys_ioctl(fd, "START")
            raw = self.sys_read(fd, frames * 2)
            self.sys_ioctl(fd, "STOP")
            self.sys_ioctl(fd, "CLOSE_PCM")
        finally:
            self.sys_close(fd)
        return np.frombuffer(raw, dtype="<i2").astype(np.int16)
