"""Unit + integration tests: TCB analysis and minimization."""

import pytest

from repro.drivers.conformance import run_capture_conformance
from repro.drivers.i2s_driver import I2sDriver
from repro.errors import DriverError
from repro.kernel.kernel import I2sCharDevice, Kernel
from repro.peripherals.audio import ToneSource
from repro.peripherals.i2s import I2sBus, I2sController
from repro.peripherals.microphone import DigitalMicrophone
from repro.tcb.analyze import TcbAnalyzer
from repro.tcb.callgraph import CallGraph
from repro.tcb.metrics import TcbReport
from repro.tcb.minimize import MinimizedBuild
from repro.tz.machine import TrustZoneMachine
from repro.tz.memory import MemoryRegion, SecurityAttr


def build_rig():
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
    return machine, kernel, controller, region


def trace_record_task(kernel, with_encode=True):
    """Trace the paper's 'recording a sound' task."""
    kernel.tracer.start("record")
    fd = kernel.sys_open("/dev/snd/i2s0")
    kernel.sys_ioctl(fd, "OPEN_CAPTURE", 128)
    kernel.sys_ioctl(fd, "START")
    raw = kernel.sys_read(fd, 512)
    kernel.sys_ioctl(fd, "POINTER")
    if with_encode:
        device = kernel.device("/dev/snd/i2s0")
        import numpy as np

        device.driver.encode_chunk(np.frombuffer(raw, dtype="<i2").copy())
    kernel.sys_ioctl(fd, "STOP")
    kernel.sys_ioctl(fd, "CLOSE_PCM")
    kernel.sys_close(fd)
    return kernel.tracer.stop()


class TestCallGraph:
    def test_static_graph_has_all_functions(self):
        graph = CallGraph.static_of(I2sDriver)
        assert len(graph.nodes) == len(I2sDriver.functions())
        assert graph.edges == set()

    def test_dynamic_graph_subset_of_static(self):
        _, kernel, _, _ = build_rig()
        session = trace_record_task(kernel)
        dynamic = CallGraph.dynamic_of(I2sDriver, [session])
        static = CallGraph.static_of(I2sDriver)
        assert set(dynamic.nodes) <= set(static.nodes)
        assert 0 < len(dynamic.nodes) < len(static.nodes)

    def test_roots_are_entry_points(self):
        _, kernel, _, _ = build_rig()
        session = trace_record_task(kernel)
        dynamic = CallGraph.dynamic_of(I2sDriver, [session])
        assert "probe" in dynamic.roots()
        assert "_pll_configure" not in dynamic.roots()

    def test_reachability_closure(self):
        _, kernel, _, _ = build_rig()
        session = trace_record_task(kernel)
        dynamic = CallGraph.dynamic_of(I2sDriver, [session])
        reachable = dynamic.reachable_from(dynamic.roots())
        assert "_drain_fifo_pio" in reachable  # via read_chunk
        assert reachable == set(dynamic.nodes)  # trace was complete

    def test_by_subsystem_grouping(self):
        graph = CallGraph.static_of(I2sDriver)
        groups = graph.by_subsystem()
        assert sum(len(v) for v in groups.values()) == len(graph.nodes)


class TestAnalyzer:
    def test_plan_keeps_observed_functions(self):
        _, kernel, _, _ = build_rig()
        session = trace_record_task(kernel)
        plan = TcbAnalyzer(I2sDriver).analyze([session], task="record")
        assert "read_chunk" in plan.keep
        assert "write_chunk" in plan.compiled_out
        assert plan.keep.isdisjoint(plan.compiled_out)
        assert plan.keep | plan.compiled_out == set(I2sDriver.functions())

    def test_meaningful_reduction(self):
        """The paper's core claim: one task needs a fraction of the driver."""
        _, kernel, _, _ = build_rig()
        session = trace_record_task(kernel)
        plan = TcbAnalyzer(I2sDriver).analyze([session], task="record")
        assert plan.report.loc_reduction_pct > 30.0
        assert plan.report.function_reduction_pct > 30.0

    def test_always_keep_respected(self):
        _, kernel, _, _ = build_rig()
        session = trace_record_task(kernel)
        plan = TcbAnalyzer(I2sDriver).analyze(
            [session], task="record",
            always_keep=frozenset({"irq_handler", "_handle_overrun"}),
        )
        assert "irq_handler" in plan.keep

    def test_always_keep_typo_rejected(self):
        _, kernel, _, _ = build_rig()
        session = trace_record_task(kernel)
        with pytest.raises(ValueError, match="unknown functions"):
            TcbAnalyzer(I2sDriver).analyze(
                [session], task="record", always_keep=frozenset({"irq_handlr"})
            )

    def test_union_of_tasks(self):
        _, kernel, _, _ = build_rig()
        record = trace_record_task(kernel)
        kernel.tracer.start("volume")
        fd = kernel.sys_open("/dev/snd/i2s0")
        kernel.sys_ioctl(fd, "SET_VOLUME", 60)
        kernel.sys_close(fd)
        volume = kernel.tracer.stop()

        analyzer = TcbAnalyzer(I2sDriver)
        plan_r = analyzer.analyze([record], task="record")
        plan_v = analyzer.analyze([volume], task="volume")
        union = analyzer.analyze_union([plan_r, plan_v])
        assert plan_r.keep <= union.keep
        assert plan_v.keep <= union.keep
        assert "set_volume" in union.keep


class TestReport:
    def test_report_totals(self):
        report = TcbReport.compute(I2sDriver, frozenset({"probe", "read_chunk"}))
        assert report.functions_kept == 2
        assert report.loc_kept == 96 + 88
        assert report.loc_total == I2sDriver.total_loc()

    def test_reduction_percentages(self):
        full = frozenset(I2sDriver.functions())
        assert TcbReport.compute(I2sDriver, full).loc_reduction_pct == 0.0
        assert TcbReport.compute(
            I2sDriver, frozenset()
        ).loc_reduction_pct == 100.0

    def test_rows_cover_all_subsystems(self):
        report = TcbReport.compute(I2sDriver, frozenset({"probe"}))
        subsystems = {r["subsystem"] for r in report.rows()}
        assert subsystems == {
            f.subsystem for f in I2sDriver.functions().values()
        }


class TestMinimizedBuild:
    def test_minimized_build_passes_conformance(self):
        """End-to-end: trace -> minimize -> the build still records."""
        _, kernel, _, _ = build_rig()
        session = trace_record_task(kernel)
        plan = TcbAnalyzer(I2sDriver).analyze([session], task="record")
        build = MinimizedBuild(I2sDriver, plan)

        machine2, kernel2, controller2, region2 = build_rig()
        driver = build.instantiate(kernel2.driver_host, controller2, region2)
        driver.probe()
        report = run_capture_conformance(driver, chunk_frames=128)
        assert report.passed, report.failed_checks() or report.failure

    def test_minimized_build_rejects_unported_tasks(self):
        _, kernel, _, _ = build_rig()
        session = trace_record_task(kernel)
        plan = TcbAnalyzer(I2sDriver).analyze([session], task="record")
        build = MinimizedBuild(I2sDriver, plan)

        _, kernel2, controller2, region2 = build_rig()
        driver = build.instantiate(kernel2.driver_host, controller2, region2)
        driver.probe()
        with pytest.raises(DriverError, match="compiled out"):
            driver.pcm_open_playback(64)

    def test_build_validates_plan_driver(self):
        from repro.tcb.analyze import MinimizationPlan

        plan = MinimizationPlan(
            driver="other-driver", task="t",
            keep=frozenset(), compiled_out=frozenset(),
        )
        with pytest.raises(DriverError, match="plan is for driver"):
            MinimizedBuild(I2sDriver, plan)

    def test_build_validates_stray_exclusions(self):
        from repro.tcb.analyze import MinimizationPlan

        plan = MinimizationPlan(
            driver=I2sDriver.NAME, task="t",
            keep=frozenset(), compiled_out=frozenset({"not_a_function"}),
        )
        with pytest.raises(DriverError, match="does not declare"):
            MinimizedBuild(I2sDriver, plan)

    def test_build_size_properties(self):
        _, kernel, _, _ = build_rig()
        session = trace_record_task(kernel)
        plan = TcbAnalyzer(I2sDriver).analyze([session], task="record")
        build = MinimizedBuild(I2sDriver, plan)
        assert build.loc == plan.report.loc_kept
        assert build.functions == plan.report.functions_kept
