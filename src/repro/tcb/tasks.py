"""The traced tasks: one rig and one task body per driver.

``repro tcb``, T2, T8, the TCB example and the tests all trace these, so
a keep-set quoted anywhere comes from the same calls.  Every task runs on
a fresh machine under the normal-world kernel host, where the paper's
tracer runs.
"""

from __future__ import annotations

import numpy as np

from repro.drivers.base import Driver
from repro.drivers.camera_driver import CameraDriver
from repro.drivers.hosting import KernelDriverHost
from repro.drivers.i2s_driver import I2sDriver
from repro.drivers.usb_audio_driver import UsbAudioDriver
from repro.kernel.kernel import I2sCharDevice, Kernel
from repro.kernel.tracer import FunctionTracer, TraceSession
from repro.peripherals.audio import ToneSource
from repro.peripherals.camera import Camera, SyntheticScene
from repro.peripherals.i2s import I2sBus, I2sController
from repro.peripherals.microphone import DigitalMicrophone
from repro.peripherals.usb import UsbAudioMicrophone, UsbBus
from repro.sim.rng import SimRng
from repro.tz.machine import TrustZoneMachine
from repro.tz.memory import MemoryRegion, SecurityAttr

I2S_DEVICE = "/dev/snd/i2s0"

#: T2's I²S task profiles; each adds one ioctl to the one before.
I2S_PROFILES = ("record", "record+volume", "record+volume+debug")

#: Rare I²S paths a deployed build needs but a clean trace never runs.
I2S_ALWAYS_KEEP = frozenset({"irq_handler", "_handle_overrun"})


def i2s_rig() -> tuple[Kernel, I2sController, MemoryRegion]:
    """A kernel with a tone-fed I²S capture device at ``/dev/snd/i2s0``."""
    machine = TrustZoneMachine()
    region = machine.memory.add_region(
        MemoryRegion("i2s_mmio", 0x0400_0000, 0x1000,
                     SecurityAttr.NONSECURE, device=True)
    )
    controller = I2sController(machine.clock, machine.obs.tracer)
    machine.memory.attach_mmio("i2s_mmio", controller)
    I2sBus(controller, DigitalMicrophone(ToneSource(), fmt=controller.format))
    kernel = Kernel(machine)
    kernel.register_device(
        I2S_DEVICE,
        I2sCharDevice(I2sDriver(kernel.driver_host, controller, region)),
    )
    return kernel, controller, region


def trace_i2s(kernel: Kernel, profile: str = "record") -> TraceSession:
    """Trace one I²S profile through the kernel's syscalls.

    ``record`` is the paper's "recording a sound": open, capture one
    chunk, poll the pointer, encode, stop, close.  ``+volume`` also sets
    the mixer volume and ``+debug`` also dumps the registers.
    """
    if profile not in I2S_PROFILES:
        raise ValueError(f"unknown I2S task profile {profile!r}")
    kernel.tracer.start(profile)
    fd = kernel.sys_open(I2S_DEVICE)
    kernel.sys_ioctl(fd, "OPEN_CAPTURE", 128)
    if "volume" in profile:
        kernel.sys_ioctl(fd, "SET_VOLUME", 80)
    kernel.sys_ioctl(fd, "START")
    raw = kernel.sys_read(fd, 512)
    kernel.sys_ioctl(fd, "POINTER")  # ALSA polls the pointer during capture
    kernel.device(I2S_DEVICE).driver.encode_chunk(
        np.frombuffer(raw, dtype="<i2").copy()
    )
    if "debug" in profile:
        kernel.sys_ioctl(fd, "DUMP_REGS")
    kernel.sys_ioctl(fd, "STOP")
    kernel.sys_ioctl(fd, "CLOSE_PCM")
    kernel.sys_close(fd)
    return kernel.tracer.stop()


def usb_rig() -> tuple[UsbBus, UsbAudioDriver]:
    """A tone-fed USB audio microphone and its kernel-hosted driver."""
    machine = TrustZoneMachine()
    bus = UsbBus(machine.clock, UsbAudioMicrophone(ToneSource()))
    return bus, UsbAudioDriver(KernelDriverHost(machine), bus)


def trace_usb_record(driver: UsbAudioDriver) -> TraceSession:
    """Trace the I²S ``record`` task's USB counterpart: one chunk."""
    tracer = FunctionTracer()
    driver.host.attach_tracer(tracer)
    tracer.start("record")
    driver.probe()
    driver.pcm_open_capture(128)
    driver.trigger_start()
    driver.read_chunk()
    driver.trigger_stop()
    driver.pcm_close()
    return tracer.stop()


def trace_camera(seed: int = 7) -> TraceSession:
    """Trace the image branch: probe, stream, 1 + 4 frames, teardown."""
    host = KernelDriverHost(TrustZoneMachine())
    driver = CameraDriver(
        host, Camera(SyntheticScene(SimRng(seed)), width=16, height=12)
    )
    tracer = FunctionTracer()
    host.attach_tracer(tracer)
    tracer.start("camera")
    driver.probe()
    driver.stream_on()
    driver.capture_frame()
    driver.capture_frames(4)
    driver.stream_off()
    driver.remove()
    return tracer.stop()


def traced_tasks(
    seed: int = 7,
) -> list[tuple[type[Driver], TraceSession, frozenset[str]]]:
    """``repro tcb``'s table, traced: (driver, session, always-keep) rows.

    ``seed`` drives the camera's synthetic scene.
    """
    return [
        (I2sDriver, trace_i2s(i2s_rig()[0]), I2S_ALWAYS_KEEP),
        (UsbAudioDriver, trace_usb_record(usb_rig()[1]),
         frozenset({"_handle_stall", "clear_halt"})),
        (CameraDriver, trace_camera(seed), frozenset({"remove"})),
    ]
