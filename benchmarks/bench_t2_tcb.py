"""T2: TCB minimization — trace-and-strip per task profile.

The paper's research-plan item 2.  For each task profile the kernel
tracer logs the driver functions executed, the analyzer computes the
minimal set, and the resulting build must still pass capture conformance.
Reported: functions and LoC, full vs minimized, reduction percentages.
"""

import pathlib

import numpy as np

from benchmarks.conftest import write_result
from repro.analysis.deadtcb import compute_dead_tcb
from repro.analysis.modgraph import load_project
from repro.analysis.worlds import DEFAULT_WORLD_MAP
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

ALWAYS_KEEP = frozenset({"irq_handler", "_handle_overrun"})


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
    kernel.register_device(
        "/dev/snd/i2s0",
        I2sCharDevice(I2sDriver(kernel.driver_host, controller, region)),
    )
    return kernel, controller, region


def run_task(kernel, task):
    kernel.tracer.start(task)
    fd = kernel.sys_open("/dev/snd/i2s0")
    device = kernel.device("/dev/snd/i2s0")
    kernel.sys_ioctl(fd, "OPEN_CAPTURE", 128)
    if "volume" in task:
        kernel.sys_ioctl(fd, "SET_VOLUME", 80)
    kernel.sys_ioctl(fd, "START")
    raw = kernel.sys_read(fd, 512)
    kernel.sys_ioctl(fd, "POINTER")
    device.driver.encode_chunk(np.frombuffer(raw, dtype="<i2").copy())
    if "debug" in task:
        kernel.sys_ioctl(fd, "DUMP_REGS")
    kernel.sys_ioctl(fd, "STOP")
    kernel.sys_ioctl(fd, "CLOSE_PCM")
    kernel.sys_close(fd)
    return kernel.tracer.stop()


TASKS = ("record", "record+volume", "record+volume+debug")


def test_t2_tcb_reduction(benchmark):
    analyzer = TcbAnalyzer(I2sDriver)
    full_loc = I2sDriver.total_loc()
    full_fns = len(I2sDriver.functions())

    rows = [f"full driver: {full_fns} functions, {full_loc} LoC", ""]
    rows.append(f"{'task':24s} {'fns':>5s} {'LoC':>6s} {'fn red.':>8s} "
                f"{'LoC red.':>9s} {'conform':>8s}")
    reductions = {}
    dynamic_union: frozenset[str] = frozenset()
    for task in TASKS:
        kernel, _, _ = build_device()
        session = run_task(kernel, task)
        plan = analyzer.analyze([session], task=task, always_keep=ALWAYS_KEEP)
        build = MinimizedBuild(I2sDriver, plan)

        kernel2, controller2, region2 = build_device()
        driver = build.instantiate(kernel2.driver_host, controller2, region2)
        driver.probe()
        conform = run_capture_conformance(driver, chunk_frames=128)

        r = plan.report
        reductions[task] = r.loc_reduction_pct
        dynamic_union |= plan.keep
        rows.append(
            f"{task:24s} {r.functions_kept:>5d} {r.loc_kept:>6d} "
            f"{r.function_reduction_pct:>7.1f}% {r.loc_reduction_pct:>8.1f}% "
            f"{'PASS' if conform.passed else 'FAIL':>8s}"
        )
        assert conform.passed

    # Static complement (dead-TCB): driver functions reachable from the
    # TA's entry points that no task profile above ever executed.
    package_root = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    dead = compute_dead_tcb(
        load_project(package_root), DEFAULT_WORLD_MAP, I2sDriver,
        dynamic_hit=dynamic_union,
    )
    rows += [
        "",
        f"dead TCB (static reach \\ dynamic, all tasks): "
        f"{len(dead.dead)}/{len(dead.static_reachable)} functions, "
        f"{dead.dead_loc} LoC",
    ]
    rows += [f"  dead: {fn} ({dead.loc.get(fn, 0)} LoC)" for fn in dead.dead]

    write_result("t2_tcb", "\n".join(rows))
    benchmark.extra_info["loc_reduction_pct"] = reductions
    benchmark.extra_info["dead_tcb"] = {
        "static_reachable": len(dead.static_reachable),
        "dynamic_hit": len(dead.dynamic_hit),
        "dead_functions": len(dead.dead),
        "dead_loc": dead.dead_loc,
    }

    # Benchmark the analysis step itself (trace -> plan).
    kernel, _, _ = build_device()
    session = run_task(kernel, "record")
    benchmark(
        lambda: TcbAnalyzer(I2sDriver).analyze(
            [session], task="record", always_keep=ALWAYS_KEEP
        )
    )
    # Shape: every profile drops at least a third of the driver.
    assert all(v > 33.0 for v in reductions.values())
    # And richer tasks keep (weakly) more code.
    assert reductions["record"] >= reductions["record+volume+debug"]
