#!/usr/bin/env python3
"""TCB minimization walkthrough (paper research plan, item 2).

1. Run the target task ("recording a sound") with the kernel's ftrace-style
   tracer armed.
2. Analyze the call log into a minimal function set.
3. Produce a conditional-compilation build excluding the rest.
4. Verify the minimized driver still passes the capture conformance suite.
5. Print the full-vs-minimized TCB table, per subsystem.

Run:  python examples/tcb_minimization.py
"""

import numpy as np

from repro.drivers.conformance import run_capture_conformance
from repro.drivers.i2s_driver import I2sDriver
from repro.kernel.kernel import I2sCharDevice, Kernel
from repro.peripherals.audio import ToneSource
from repro.peripherals.i2s import I2sBus, I2sController
from repro.peripherals.microphone import DigitalMicrophone
from repro.tcb.analyze import TcbAnalyzer
from repro.tcb.minimize import MinimizedBuild
from repro.tz.machine import TrustZoneMachine
from repro.tz.memory import MemoryRegion, SecurityAttr


def build_device():
    machine = TrustZoneMachine()
    region = machine.memory.add_region(
        MemoryRegion("i2s_mmio", 0x0400_0000, 0x1000,
                     SecurityAttr.NONSECURE, device=True)
    )
    controller = I2sController(machine.clock, machine.obs.tracer)
    machine.memory.attach_mmio("i2s_mmio", controller)
    I2sBus(controller, DigitalMicrophone(ToneSource(), fmt=controller.format))
    kernel = Kernel(machine)
    driver = I2sDriver(kernel.driver_host, controller, region)
    kernel.register_device("/dev/snd/i2s0", I2sCharDevice(driver))
    return kernel, controller, region


def trace_task(kernel, task: str):
    """Trace one of three task profiles."""
    kernel.tracer.start(task)
    fd = kernel.sys_open("/dev/snd/i2s0")
    device = kernel.device("/dev/snd/i2s0")
    kernel.sys_ioctl(fd, "OPEN_CAPTURE", 128)
    if task != "record":
        kernel.sys_ioctl(fd, "SET_VOLUME", 80)
    kernel.sys_ioctl(fd, "START")
    raw = kernel.sys_read(fd, 512)
    kernel.sys_ioctl(fd, "POINTER")  # ALSA polls the pointer during capture
    device.driver.encode_chunk(np.frombuffer(raw, dtype="<i2").copy())
    if task == "record+volume+debug":
        kernel.sys_ioctl(fd, "DUMP_REGS")
    kernel.sys_ioctl(fd, "STOP")
    kernel.sys_ioctl(fd, "CLOSE_PCM")
    kernel.sys_close(fd)
    return kernel.tracer.stop()


def main() -> None:
    full_loc = I2sDriver.total_loc()
    full_fns = len(I2sDriver.functions())
    print(f"Full I2S driver: {full_fns} functions, {full_loc} LoC\n")

    analyzer = TcbAnalyzer(I2sDriver)
    keep_handlers = frozenset({"irq_handler", "_handle_overrun"})

    print(f"{'task':24s} {'fns':>5s} {'LoC':>6s} {'fn red.':>8s} {'LoC red.':>9s} {'conform':>8s}")
    print("-" * 66)
    for task in ("record", "record+volume", "record+volume+debug"):
        kernel, _, _ = build_device()
        session = trace_task(kernel, task)
        plan = analyzer.analyze([session], task=task, always_keep=keep_handlers)
        build = MinimizedBuild(I2sDriver, plan)

        # Deploy the minimized build on a fresh device and verify.
        kernel2, controller2, region2 = build_device()
        driver = build.instantiate(kernel2.driver_host, controller2, region2)
        driver.probe()
        report = run_capture_conformance(driver, chunk_frames=128)

        r = plan.report
        print(f"{task:24s} {r.functions_kept:>5d} {r.loc_kept:>6d} "
              f"{r.function_reduction_pct:>7.1f}% {r.loc_reduction_pct:>8.1f}% "
              f"{'PASS' if report.passed else 'FAIL':>8s}")

    print("\nPer-subsystem breakdown for task 'record':")
    kernel, _, _ = build_device()
    plan = analyzer.analyze(
        [trace_task(kernel, "record")], task="record", always_keep=keep_handlers
    )
    print(f"  {'subsystem':10s} {'LoC total':>10s} {'LoC kept':>9s} {'reduction':>10s}")
    for row in plan.report.rows():
        print(f"  {row['subsystem']:10s} {row['loc_total']:>10d} "
              f"{row['loc_kept']:>9d} {row['reduction_pct']:>9.1f}%")


if __name__ == "__main__":
    main()
