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

from repro.drivers.conformance import run_capture_conformance
from repro.drivers.i2s_driver import I2sDriver
from repro.tcb.analyze import TcbAnalyzer
from repro.tcb.minimize import MinimizedBuild
from repro.tcb.tasks import I2S_ALWAYS_KEEP, I2S_PROFILES, i2s_rig, trace_i2s


def main() -> None:
    full_loc = I2sDriver.total_loc()
    full_fns = len(I2sDriver.functions())
    print(f"Full I2S driver: {full_fns} functions, {full_loc} LoC\n")

    analyzer = TcbAnalyzer(I2sDriver)

    print(f"{'task':24s} {'fns':>5s} {'LoC':>6s} {'fn red.':>8s} {'LoC red.':>9s} {'conform':>8s}")
    print("-" * 66)
    for task in I2S_PROFILES:
        session = trace_i2s(i2s_rig()[0], task)
        plan = analyzer.analyze([session], task=task,
                                always_keep=I2S_ALWAYS_KEEP)
        build = MinimizedBuild(I2sDriver, plan)

        # Deploy the minimized build on a fresh device and verify.
        kernel2, controller2, region2 = i2s_rig()
        driver = build.instantiate(kernel2.driver_host, controller2, region2)
        driver.probe()
        report = run_capture_conformance(driver, chunk_frames=128)

        r = plan.report
        print(f"{task:24s} {r.functions_kept:>5d} {r.loc_kept:>6d} "
              f"{r.function_reduction_pct:>7.1f}% {r.loc_reduction_pct:>8.1f}% "
              f"{'PASS' if report.passed else 'FAIL':>8s}")

    print("\nPer-subsystem breakdown for task 'record':")
    plan = analyzer.analyze(
        [trace_i2s(i2s_rig()[0])], task="record", always_keep=I2S_ALWAYS_KEEP
    )
    print(f"  {'subsystem':10s} {'LoC total':>10s} {'LoC kept':>9s} {'reduction':>10s}")
    for row in plan.report.rows():
        print(f"  {row['subsystem']:10s} {row['loc_total']:>10d} "
              f"{row['loc_kept']:>9d} {row['reduction_pct']:>9.1f}%")


if __name__ == "__main__":
    main()
