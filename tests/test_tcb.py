"""Unit + integration tests: TCB analysis and minimization."""

import pytest

from repro.drivers.conformance import run_capture_conformance
from repro.drivers.i2s_driver import I2sDriver
from repro.errors import DriverError
from repro.tcb.analyze import TcbAnalyzer
from repro.tcb.metrics import TcbReport
from repro.tcb.minimize import MinimizedBuild
from repro.tcb.tasks import i2s_rig, trace_i2s


class TestAnalyzer:
    def test_plan_keeps_observed_functions(self):
        session = trace_i2s(i2s_rig()[0])
        plan = TcbAnalyzer(I2sDriver).analyze([session], task="record")
        assert "read_chunk" in plan.keep
        assert "write_chunk" in plan.compiled_out
        assert plan.keep.isdisjoint(plan.compiled_out)
        assert plan.keep | plan.compiled_out == set(I2sDriver.functions())

    def test_meaningful_reduction(self):
        """The paper's core claim: one task needs a fraction of the driver."""
        session = trace_i2s(i2s_rig()[0])
        plan = TcbAnalyzer(I2sDriver).analyze([session], task="record")
        assert plan.report.loc_reduction_pct > 30.0
        assert plan.report.function_reduction_pct > 30.0

    def test_always_keep_respected(self):
        session = trace_i2s(i2s_rig()[0])
        plan = TcbAnalyzer(I2sDriver).analyze(
            [session], task="record",
            always_keep=frozenset({"irq_handler", "_handle_overrun"}),
        )
        assert "irq_handler" in plan.keep

    def test_always_keep_typo_rejected(self):
        session = trace_i2s(i2s_rig()[0])
        with pytest.raises(ValueError, match="unknown functions"):
            TcbAnalyzer(I2sDriver).analyze(
                [session], task="record", always_keep=frozenset({"irq_handlr"})
            )

    def test_union_of_tasks(self):
        kernel, _, _ = i2s_rig()
        record = trace_i2s(kernel)
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
        session = trace_i2s(i2s_rig()[0])
        plan = TcbAnalyzer(I2sDriver).analyze([session], task="record")
        build = MinimizedBuild(I2sDriver, plan)

        kernel2, controller2, region2 = i2s_rig()
        driver = build.instantiate(kernel2.driver_host, controller2, region2)
        driver.probe()
        report = run_capture_conformance(driver, chunk_frames=128)
        assert report.passed, report.failed_checks() or report.failure

    def test_minimized_build_rejects_unported_tasks(self):
        session = trace_i2s(i2s_rig()[0])
        plan = TcbAnalyzer(I2sDriver).analyze([session], task="record")
        build = MinimizedBuild(I2sDriver, plan)

        kernel2, controller2, region2 = i2s_rig()
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
        session = trace_i2s(i2s_rig()[0])
        plan = TcbAnalyzer(I2sDriver).analyze([session], task="record")
        build = MinimizedBuild(I2sDriver, plan)
        assert build.loc == plan.report.loc_kept
        assert build.functions == plan.report.functions_kept
