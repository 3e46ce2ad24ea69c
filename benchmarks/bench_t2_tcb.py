"""T2: TCB minimization — trace-and-strip per task profile.

The paper's research-plan item 2.  For each task profile the kernel
tracer logs the driver functions executed, the analyzer computes the
minimal set, and the resulting build must still pass capture conformance.
Reported: functions and LoC, full vs minimized, reduction percentages.
"""

import pathlib

from benchmarks.conftest import write_result
from repro.analysis.deadtcb import compute_dead_tcb, driver_statics
from repro.analysis.modgraph import load_project
from repro.analysis.worlds import DEFAULT_WORLD_MAP
from repro.drivers.conformance import run_capture_conformance
from repro.drivers.i2s_driver import I2sDriver
from repro.tcb.analyze import TcbAnalyzer
from repro.tcb.minimize import MinimizedBuild
from repro.tcb.tasks import I2S_ALWAYS_KEEP, I2S_PROFILES, i2s_rig, trace_i2s


def test_t2_tcb_reduction(benchmark):
    analyzer = TcbAnalyzer(I2sDriver)
    full_loc = I2sDriver.total_loc()
    full_fns = len(I2sDriver.functions())

    rows = [f"full driver: {full_fns} functions, {full_loc} LoC", ""]
    rows.append(f"{'task':24s} {'fns':>5s} {'LoC':>6s} {'fn red.':>8s} "
                f"{'LoC red.':>9s} {'conform':>8s}")
    reductions = {}
    dynamic_union: frozenset[str] = frozenset()
    for task in I2S_PROFILES:
        session = trace_i2s(i2s_rig()[0], task)
        plan = analyzer.analyze([session], task=task,
                                always_keep=I2S_ALWAYS_KEEP)
        build = MinimizedBuild(I2sDriver, plan)

        kernel2, controller2, region2 = i2s_rig()
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
    project = load_project(package_root)
    dead = compute_dead_tcb(
        project, DEFAULT_WORLD_MAP, driver_statics(project)[I2sDriver.NAME],
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
    session = trace_i2s(i2s_rig()[0])
    benchmark(
        lambda: TcbAnalyzer(I2sDriver).analyze(
            [session], task="record", always_keep=I2S_ALWAYS_KEEP
        )
    )
    # Shape: every profile drops at least a third of the driver.
    assert all(v > 33.0 for v in reductions.values())
    # And richer tasks keep (weakly) more code.
    assert reductions["record"] >= reductions["record+volume+debug"]
