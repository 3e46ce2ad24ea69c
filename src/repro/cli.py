"""Command-line interface.

Gives downstream users one entry point to the headline flows without
writing Python::

    repro demo                 # Fig. 1 pipeline on a sample stream
    repro privacy              # secure vs baseline leak audit
    repro profile              # per-stage cycle/energy profile, secure vs baseline
    repro trace                # span and event dump of one run
    repro fleet                # N simulated devices, merged fleet telemetry
    repro health               # SLO evaluation + flight-recorder dump
    repro tcb                  # trace-and-strip I2S/USB/camera (+ dead-TCB)
    repro analyze              # world-boundary static analysis gate
    repro models               # architecture comparison table
    repro info                 # platform/memory-map/cost-model summary

Every subcommand accepts ``--seed`` for reproducibility; heavier flows
accept ``--utterances``.  Installed as the ``repro`` console script.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

# Default artifact paths resolve against the repo checkout that holds
# this file, not the CWD, so `repro profile` / `repro fleet` work from
# any directory.  When the package is installed (the `repro` console
# script) that walk lands in site-packages' parents, so fall back to
# CWD-relative defaults instead of paths that can never exist.
def _repo_root() -> pathlib.Path:
    try:
        root = pathlib.Path(__file__).resolve().parents[2]
    except IndexError:
        return pathlib.Path.cwd()
    return root if (root / "benchmarks").is_dir() else pathlib.Path.cwd()


_REPO_ROOT = _repo_root()
_DEFAULT_PROFILE_OUT = _REPO_ROOT / "benchmarks" / "results" / "profile.json"
_DEFAULT_HEALTH_DUMP = (
    _REPO_ROOT / "benchmarks" / "results" / "health_flight.jsonl"
)


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import build_demo_pipeline

    secure, workload, platform = build_demo_pipeline(
        seed=args.seed, utterances=args.utterances
    )
    try:
        run = secure.process(workload)
    finally:
        # The TA session holds secure memory; close it even if the run
        # raises so repeated CLI invocations in one process can't leak.
        secure.close()
    for result in run.results:
        action = "forwarded" if result.forwarded else "BLOCKED  "
        print(f"  {action}  \"{result.utterance.text}\"")
    summary = run.summary()
    print(f"\n{summary['forwarded']}/{summary['utterances']} forwarded, "
          f"accuracy {summary['accuracy']:.2f}, "
          f"{summary['total_energy_mj']:.1f} mJ, "
          f"{platform.machine.cpu.switch_count} world switches")
    return 0


def _cmd_privacy(args: argparse.Namespace) -> int:
    from repro.cloud.auditor import LeakAuditor
    from repro.core.baseline import BaselinePipeline
    from repro.core.pipeline import SecurePipeline
    from repro.core.platform import IotPlatform
    from repro.core.workload import UtteranceWorkload
    from repro.kernel.attacks import BufferSnoopAttack
    from repro.ml.dataset import UtteranceGenerator
    from repro.provision import provision_bundle
    from repro.sim.rng import SimRng

    provisioned = provision_bundle(seed=args.seed)
    bundle = provisioned.bundle

    print(f"{'configuration':16s} {'cloud leak':>11s} {'device leak':>12s} "
          f"{'utility':>8s}")
    for label, secure in (("baseline", False), ("secure (ours)", True)):
        platform = IotPlatform.create(seed=args.seed)
        if secure:
            pipeline = SecurePipeline(platform, bundle)
        else:
            pipeline = BaselinePipeline(platform, bundle.asr, use_tls=True)
        corpus = UtteranceGenerator(SimRng(args.seed, "cli")).generate(
            args.utterances, sensitive_fraction=0.5
        )
        workload = UtteranceWorkload.from_corpus(corpus, bundle.vocoder)
        snoop = BufferSnoopAttack(platform.machine)
        captures = []
        try:
            pipeline.process(
                workload,
                after_each=lambda p: captures.extend(
                    snoop.run(p.attack_targets()).captured
                ),
            )
        finally:
            pipeline.close()
        auditor = LeakAuditor(workload.utterances, reference_asr=bundle.asr)
        auditor.decode_device_captures(captures)
        report = auditor.report(platform.cloud.received_transcripts)
        print(f"{label:16s} {report.cloud_leak_rate:>11.0%} "
              f"{report.device_leak_rate:>12.0%} {report.utility_rate:>8.0%}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from repro.obs.profile import collect_profile

    report = collect_profile(
        seed=args.seed,
        utterances=args.utterances,
        continuous=args.continuous,
    )
    print(report.table())
    # The default path is repo-rooted (not CWD-relative) so the command
    # works from any directory; --output "" skips writing entirely.
    out = _DEFAULT_PROFILE_OUT if args.output is None else (
        pathlib.Path(args.output) if args.output else None
    )
    if out is not None:
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report.to_doc(), indent=2) + "\n")
        print(f"\nwrote {out}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import build_demo_pipeline

    secure, workload, platform = build_demo_pipeline(
        seed=args.seed, utterances=args.utterances
    )
    try:
        if args.continuous:
            secure.process_continuous(workload)
        else:
            secure.process(workload)
    finally:
        secure.close()

    tracer = platform.machine.obs.tracer
    if args.format == "chrome":
        print(tracer.to_chrome_trace(args.category))
        return 0
    lines = tracer.to_jsonl(args.category).splitlines()
    if args.limit > 0:
        dropped = max(0, len(lines) - args.limit)
        lines = lines[:args.limit]
        if dropped:
            lines.append(f"... {dropped} more (raise --limit)")
    print("\n".join(lines))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from repro.obs.export import (
        fleet_chrome_trace,
        fleet_trace_jsonl,
        to_openmetrics,
    )
    from repro.obs.fleet import run_fleet

    collect_traces = bool(args.traces or args.trace_chrome)
    report = run_fleet(
        devices=args.devices, seed=args.seed, utterances=args.utterances,
        chaos=args.chaos, overload=args.overload,
        client_crashes=args.client_crashes, collect_traces=collect_traces,
    )
    print(report.table())
    if args.output:
        out = pathlib.Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report.to_doc(), indent=2) + "\n")
        print(f"\nwrote {out}")
    if args.metrics_out:
        out = pathlib.Path(args.metrics_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(to_openmetrics(report.merged_registry()))
        print(f"wrote {out}")
    if args.traces:
        out = pathlib.Path(args.traces)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(fleet_trace_jsonl(report) + "\n")
        print(f"wrote {out}")
    if args.trace_chrome:
        out = pathlib.Path(args.trace_chrome)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(fleet_chrome_trace(report) + "\n")
        print(f"wrote {out}")
    return 0


def _cmd_health(args: argparse.Namespace) -> int:
    from repro.obs.fleet import DeviceSpec, simulate_device_runtime
    from repro.obs.health import (
        FlightRecorder,
        HealthMonitor,
        default_slo_rules,
    )
    from repro.provision import provision_bundle

    bundle = provision_bundle(seed=args.seed).bundle
    spec = DeviceSpec(
        device_id="health",
        seed=args.seed,
        utterances=args.utterances,
        sensitive_fraction=0.5,
        fault_profile=args.fault_profile,
        secure_fault_profile="chaos" if args.chaos else "none",
    )
    recorder = FlightRecorder(capacity=args.flight_capacity)
    runtime = simulate_device_runtime(spec, bundle, recorder=recorder)
    device = runtime.report
    monitor = HealthMonitor(
        device.registry,
        rules=default_slo_rules(
            latency_budget_cycles=args.latency_budget_ms / 1e3
            * device.freq_hz,
            relay_success_min=args.relay_success_min,
            max_queue_depth=args.max_queue_depth,
            recovery_budget_cycles=args.recovery_budget_ms / 1e3
            * device.freq_hz,
        ),
        recorder=recorder,
        watchdog=device.stalled,
    )
    # The default dump path is repo-rooted (not CWD-relative) so the
    # command works from any directory; --dump "" skips writing.
    dump = _DEFAULT_HEALTH_DUMP if args.dump is None else (
        pathlib.Path(args.dump) if args.dump else None
    )
    report = monitor.evaluate(dump_path=dump, trace_only=args.trace_only)
    print(f"device {spec.device_id} (seed {spec.seed}, "
          f"{spec.fault_profile} network, "
          f"{spec.secure_fault_profile} secure faults, "
          f"{device.summary['utterances']} utterances)")
    print(report.table())
    if report.flight_dump is not None:
        spans = len(report.flight_dump.splitlines())
        where = f" -> {dump}" if dump is not None else ""
        print(f"\nflight recorder: {spans} spans captured{where}")
    if not report.ok and args.route_alerts:
        from repro.relay.alerts import route_health_alert

        outcome = route_health_alert(
            runtime.platform, runtime.ta_uuid, report,
            device_id=spec.device_id,
        )
        print(f"alert routed through relay: {outcome.get('status')}"
              + (f" (attempts {outcome['attempts']})"
                 if "attempts" in outcome else ""))
    return report.exit_code


def _cmd_tcb(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.deadtcb import (
        build_deadtcb_doc,
        compute_dead_tcb,
        deadtcb_baseline_path,
        driver_statics,
        static_reachability,
    )
    from repro.analysis.modgraph import load_project
    from repro.analysis.worlds import DEFAULT_WORLD_MAP
    from repro.tcb.analyze import TcbAnalyzer
    from repro.tcb.tasks import traced_tasks

    # Trace each driver's task and strip it, then size the static
    # complement: driver functions the TA can reach that the traced task
    # never executed (the dead-TCB cross-check).
    project = load_project(pathlib.Path(__file__).resolve().parent)
    statics = driver_statics(project)
    reach = static_reachability(project, DEFAULT_WORLD_MAP)
    dynamic_hits = {}
    for i, (driver_class, session, always_keep) in enumerate(
        traced_tasks(args.seed)
    ):
        plan = TcbAnalyzer(driver_class).analyze(
            [session], task=session.task, always_keep=always_keep
        )
        dynamic_hits[driver_class.NAME] = plan.keep
        r = plan.report
        if i:
            print()
        print(f"driver       : {driver_class.NAME} (task {session.task!r})")
        print(f"full driver  : {r.functions_total} functions, {r.loc_total} LoC")
        print(f"minimized    : {r.functions_kept} functions, {r.loc_kept} LoC")
        print(f"reduction    : {r.function_reduction_pct:.1f}% functions, "
              f"{r.loc_reduction_pct:.1f}% LoC")
        for row in r.rows():
            print(f"  {row['subsystem']:10s} {row['loc_kept']:>5d}/"
                  f"{row['loc_total']:<5d} LoC kept")
        dead = compute_dead_tcb(project, DEFAULT_WORLD_MAP,
                                statics[driver_class.NAME], plan.keep, reach)
        print(f"dead TCB     : {len(dead.dead)}/{len(dead.static_reachable)} "
              f"statically reachable functions never traced "
              f"({dead.dead_loc} LoC)")
        for fn in dead.dead:
            print(f"  dead       {fn} ({dead.loc.get(fn, 0)} LoC)")

    # Dead-TCB regression baseline: the committed document the analyzer's
    # T001 gate (and CI) diff against.
    doc = build_deadtcb_doc(project, DEFAULT_WORLD_MAP, dynamic_hits)
    default_path = deadtcb_baseline_path(project)

    if args.write_deadtcb_baseline is not None:
        out = (
            pathlib.Path(args.write_deadtcb_baseline)
            if args.write_deadtcb_baseline else default_path
        )
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"\nwrote dead-TCB baseline: {out}")

    if args.check_deadtcb_baseline:
        if not default_path.exists():
            print(f"\nno committed dead-TCB baseline at {default_path}; "
                  f"run `repro tcb --write-deadtcb-baseline`",
                  file=sys.stderr)
            return 1
        committed = json.loads(default_path.read_text())
        if committed != doc:
            print("\ndead-TCB baseline drifted from the committed document:",
                  file=sys.stderr)
            for name in sorted(set(doc["drivers"]) | set(
                committed.get("drivers", {})
            )):
                now = doc["drivers"].get(name)
                was = committed.get("drivers", {}).get(name)
                if now != was:
                    print(f"  {name}:", file=sys.stderr)
                    print(f"    committed: {was}", file=sys.stderr)
                    print(f"    current  : {now}", file=sys.stderr)
            print("re-trace and regenerate with "
                  "`repro tcb --write-deadtcb-baseline`", file=sys.stderr)
            return 1
        print("\ndead-TCB baseline matches the committed document")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.runner import DEFAULT_BASELINE_PATH, run_analysis
    from repro.analysis.worlds import DEFAULT_WORLD_MAP, load_world_map

    root = (
        pathlib.Path(args.root)
        if args.root
        else pathlib.Path(__file__).resolve().parent
    )
    world_map = (
        load_world_map(pathlib.Path(args.world_map))
        if args.world_map else DEFAULT_WORLD_MAP
    )
    expect = (
        [r.strip() for r in args.expect.split(",") if r.strip()]
        if args.expect else None
    )
    baseline = None if (args.no_baseline or expect) else (
        pathlib.Path(args.baseline) if args.baseline else DEFAULT_BASELINE_PATH
    )
    report = run_analysis(
        root, package=args.package, world_map=world_map,
        baseline_path=baseline,
    )
    if args.format == "json":
        text = json.dumps(report.to_doc(), indent=2)
    else:
        text = report.render_text()
    print(text)
    if args.output:
        out = pathlib.Path(args.output)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text + "\n")
        print(f"wrote {out}", file=sys.stderr)
    if args.sarif:
        sarif_path = pathlib.Path(args.sarif)
        sarif_path.parent.mkdir(parents=True, exist_ok=True)
        sarif_path.write_text(json.dumps(report.to_sarif(), indent=2) + "\n")
        print(f"wrote {sarif_path}", file=sys.stderr)
    if expect is not None:
        fired = {f.rule for f in report.findings}
        missing = [r for r in expect if r not in fired]
        if missing:
            print(f"expected rules did not fire: {', '.join(missing)} "
                  f"(analyzer self-test over seeded violations FAILED)",
                  file=sys.stderr)
            return 1
        print(f"all expected rules fired: {', '.join(expect)}",
              file=sys.stderr)
        return 0
    status = 0
    if args.fail_on_new and report.new_findings:
        status = 1
    if args.fail_on_stale and report.stale:
        print(f"{len(report.stale)} stale baseline entr"
              f"{'y' if len(report.stale) == 1 else 'ies'} "
              f"(--fail-on-stale)", file=sys.stderr)
        status = 1
    return status


def _cmd_models(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.provision import provision_bundle
    from repro.sim.clock import cycles_to_ms
    from repro.tz.costs import DEFAULT_COSTS

    print(f"{'arch':12s} {'accuracy':>9s} {'params':>8s} {'bytes':>8s} "
          f"{'us/inference':>13s}")
    for arch in ("cnn", "transformer", "hybrid"):
        provisioned = provision_bundle(
            seed=args.seed, architecture=arch, epochs=args.epochs
        )
        model = provisioned.bundle.filter.classifier
        cycles = DEFAULT_COSTS.ml_inference_cycles(
            model.macs_per_inference(), secure=True, int8=False
        )
        print(f"{arch:12s} {provisioned.test_accuracy:>9.3f} "
              f"{model.num_params():>8d} {model.size_bytes():>8d} "
              f"{cycles_to_ms(cycles) * 1e3:>13.2f}")
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.tz.machine import TrustZoneMachine

    machine = TrustZoneMachine()
    print("memory map:")
    for region in machine.memory.regions():
        attr = machine.memory.tzasc.attr_of(region).value
        kind = "device" if region.device else "memory"
        print(f"  {region.name:12s} 0x{region.base:08x}  "
              f"{region.size // 1024:>8d} KiB  {attr:10s} {kind}")
    costs = machine.costs
    print("\ncost model (cycles):")
    print(f"  world switch (one way)  : {costs.full_world_switch_cycles()}")
    print(f"  TA command dispatch     : {costs.ta_invoke_cycles}")
    print(f"  TA->PTA call            : {costs.pta_invoke_cycles}")
    print(f"  supplicant RPC          : {costs.supplicant_rpc_cycles}")
    print(f"  session open            : {costs.session_open_cycles}")
    print(f"  TLS handshake           : {costs.handshake_cycles}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument grammar."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Enhancing IoT Security and Privacy "
                    "with TEEs and ML' (DSN 2023).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the Fig. 1 pipeline on a sample")
    demo.add_argument("--seed", type=int, default=7)
    demo.add_argument("--utterances", type=int, default=10)
    demo.set_defaults(func=_cmd_demo)

    privacy = sub.add_parser("privacy", help="secure vs baseline leak audit")
    privacy.add_argument("--seed", type=int, default=7)
    privacy.add_argument("--utterances", type=int, default=12)
    privacy.set_defaults(func=_cmd_privacy)

    profile = sub.add_parser(
        "profile", help="per-stage cycle/energy profile, secure vs baseline"
    )
    profile.add_argument("--seed", type=int, default=7)
    profile.add_argument("--utterances", type=int, default=8)
    profile.add_argument(
        "--continuous", action="store_true",
        help="drive the secure pipeline in continuous-capture mode",
    )
    profile.add_argument(
        "--output", default=None,
        help="JSON report path (default: benchmarks/results/profile.json "
             "under the repo root; empty string to skip writing)",
    )
    profile.set_defaults(func=_cmd_profile)

    fleet = sub.add_parser(
        "fleet", help="simulate N devices and merge their telemetry"
    )
    fleet.add_argument("--seed", type=int, default=7)
    fleet.add_argument("--devices", type=int, default=8)
    fleet.add_argument(
        "--utterances", type=int, default=6,
        help="base workload size per device (varies +0..2 across the fleet)",
    )
    fleet.add_argument(
        "--output", default="",
        help="write the fleet JSON document here (empty = print only)",
    )
    fleet.add_argument(
        "--metrics-out", default="",
        help="write the merged registry as OpenMetrics text here",
    )
    fleet.add_argument(
        "--chaos", action="store_true",
        help="inject secure-world faults (TA panics, heap/PTA/DMA/storage) "
             "on every device and run the TAs supervised",
    )
    fleet.add_argument(
        "--overload", action="store_true",
        help="starve the cloud admission tier (token buckets + tiny tenant "
             "queues) so devices see Throttled verdicts and spill into "
             "their sealed store-and-forward queues",
    )
    fleet.add_argument(
        "--client-crashes", action="store_true",
        help="crash/restart the normal-world client app mid-run on every "
             "device; recovery comes from the TA's sealed checkpoint + "
             "queue via CMD_RESUME (runs the TAs supervised)",
    )
    fleet.add_argument(
        "--traces", default="",
        help="write the fleet-wide correlated trace timeline (JSONL, one "
             "doc per trace-stamped span; a relay span's dialog_id joins "
             "the cloud record) here; keeps each device's spans",
    )
    fleet.add_argument(
        "--trace-chrome", default="",
        help="write the fleet timeline as a Chrome trace (one track per "
             "device, load in about://tracing or Perfetto) here; keeps "
             "each device's spans",
    )
    fleet.set_defaults(func=_cmd_fleet)

    health = sub.add_parser(
        "health", help="evaluate SLO rules on one device; dump on violation",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  every rule holds, nothing stalled\n"
            "  1  SLO violation or watchdog stall\n"
            "  2  NO DATA only: a rule's metric was never recorded"
        ),
    )
    health.add_argument("--seed", type=int, default=7)
    health.add_argument("--utterances", type=int, default=8)
    health.add_argument(
        "--fault-profile", default="clean",
        choices=("clean", "light", "lossy", "congested"),
        help="network conditions for the device under test",
    )
    health.add_argument(
        "--latency-budget-ms", type=float, default=1000.0,
        help="p99 end-to-end latency SLO in simulated milliseconds",
    )
    health.add_argument(
        "--relay-success-min", type=float, default=0.9,
        help="minimum immediate-delivery rate over forwarded decisions",
    )
    health.add_argument(
        "--max-queue-depth", type=int, default=4,
        help="maximum store-and-forward backlog",
    )
    health.add_argument(
        "--flight-capacity", type=int, default=256,
        help="flight-recorder ring size (spans)",
    )
    health.add_argument(
        "--dump", default=None,
        help="write the flight-recorder JSONL here on violation "
             "(default: benchmarks/results/health_flight.jsonl under the "
             "repo root; empty string to skip writing)",
    )
    health.add_argument(
        "--trace-only", action="store_true",
        help="on violation, narrow the flight dump to the offending "
             "trace's spans",
    )
    health.add_argument(
        "--chaos", action="store_true",
        help="inject secure-world faults and run the TA supervised",
    )
    health.add_argument(
        "--recovery-budget-ms", type=float, default=50.0,
        help="p99 TA panic-to-recovered SLO in simulated milliseconds "
             "(gated: only applies when restarts happened)",
    )
    health.add_argument(
        "--route-alerts", action=argparse.BooleanOptionalAction, default=True,
        help="on violation, ship the rule verdicts and stalls (no spans, "
             "no trace ids) through the TA's secure relay (sealed "
             "store-and-forward on outage)",
    )
    health.set_defaults(func=_cmd_health)

    trace = sub.add_parser(
        "trace", help="dump spans and events from one secure run"
    )
    trace.add_argument("--seed", type=int, default=7)
    trace.add_argument("--utterances", type=int, default=4)
    trace.add_argument(
        "--continuous", action="store_true",
        help="run in continuous-capture mode",
    )
    trace.add_argument(
        "--category", default=None,
        help="filter to one category subtree "
             "(e.g. stage.secure, rpc, tz.fault)",
    )
    trace.add_argument(
        "--format", choices=("jsonl", "chrome"), default="jsonl",
        help="span output format (chrome = trace_event JSON for Perfetto)",
    )
    trace.add_argument(
        "--limit", type=int, default=200,
        help="max lines to print (0 = unlimited)",
    )
    trace.set_defaults(func=_cmd_trace)

    analyze = sub.add_parser(
        "analyze",
        help="world-boundary static analysis (layering, taint, lints)",
    )
    analyze.add_argument(
        "--root", default=None,
        help="package directory to analyze (default: the installed "
             "repro package)",
    )
    analyze.add_argument(
        "--baseline", default=None,
        help="baseline JSON path (default: the committed "
             "analysis/baseline.json)",
    )
    analyze.add_argument(
        "--no-baseline", action="store_true",
        help="ignore the baseline; report every finding as new",
    )
    analyze.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    analyze.add_argument(
        "--output", default=None,
        help="also write the report to this file",
    )
    analyze.add_argument(
        "--fail-on-new", action="store_true",
        help="exit 1 if any finding is not in the baseline (the CI gate)",
    )
    analyze.add_argument(
        "--fail-on-stale", action="store_true",
        help="exit 1 if the baseline carries fingerprints no longer "
             "produced (dead suppressions)",
    )
    analyze.add_argument(
        "--sarif", default=None, metavar="PATH",
        help="also write a SARIF 2.1.0 document for code-scanning upload",
    )
    analyze.add_argument(
        "--package", default="repro",
        help="dotted package name of --root (default: repro)",
    )
    analyze.add_argument(
        "--world-map", default=None, metavar="PATH",
        help="world-map JSON for non-default packages (fixtures)",
    )
    analyze.add_argument(
        "--expect", default=None, metavar="RULES",
        help="comma-separated rule ids that MUST fire; exit 1 if any is "
             "missing (self-test over seeded fixtures; skips the baseline)",
    )
    analyze.set_defaults(func=_cmd_analyze)

    tcb = sub.add_parser(
        "tcb", help="trace-and-strip the I2S/USB/camera drivers"
    )
    tcb.add_argument("--seed", type=int, default=7)
    tcb.add_argument(
        "--write-deadtcb-baseline", nargs="?", const="", default=None,
        metavar="PATH",
        help="write the per-driver dead-TCB baseline JSON from this run's "
             "traces (default path: the committed "
             "analysis/deadtcb_baseline.json)",
    )
    tcb.add_argument(
        "--check-deadtcb-baseline", action="store_true",
        help="recompute the dead-TCB document and exit 1 if it drifted "
             "from the committed baseline (the CI gate)",
    )
    tcb.set_defaults(func=_cmd_tcb)

    models = sub.add_parser("models", help="classifier architecture table")
    models.add_argument("--seed", type=int, default=7)
    models.add_argument("--epochs", type=int, default=5)
    models.set_defaults(func=_cmd_models)

    info = sub.add_parser("info", help="platform and cost-model summary")
    info.set_defaults(func=_cmd_info)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Piping into `head` etc. closes stdout early; exit quietly like
        # any well-behaved CLI.
        import os

        os.close(sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
