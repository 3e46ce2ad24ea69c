"""End-to-end fleet benchmark on both of the repo's clocks.

One invocation runs one workload (``--workload``) in this process, or
every workload one after another, each in its own subprocess.  A run:

1. provisions the classifier bundle several times (``setup_s`` is the
   import time plus the median provisioning time);
2. runs a warm-up device, then the workload's roster closed-loop,
   then keeps cycling through it until ``--seconds`` have passed; the
   speed probe (:mod:`benchmarks.e2e.calib`) runs after every utterance,
   and devices are timed in blocks of about two seconds;
3. checks every device's outputs against regenerated ground truth;
4. with ``--trace 1``, runs the roster once more with
   :class:`~benchmarks.e2e.layers.LayerTracer` installed and reports the
   per-layer split instead of the end-to-end metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full document,
with raw host values and sample counts, goes to ``results/<workload>.json``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import itertools
import json
import math
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from repro.core.pipeline import SecurePipeline
from repro.core.results import PipelineRunResult
from repro.ml.dataset import UtteranceGenerator
from repro.obs import fleet
from repro.obs.fleet import DeviceReport, FleetReport
from repro.provision import provision_bundle
from repro.sim.clock import cycles_to_ms
from repro.sim.rng import SimRng

from benchmarks.e2e.calib import probe, reference_ms
from benchmarks.e2e.layers import (
    OBS_LAYERS,
    PROBE_LAYER,
    UTTERANCE_LAYER,
    LayerTracer,
)
from benchmarks.e2e.workloads import BUNDLE_ARGS, WORKLOADS, Workload

RESULTS = Path(__file__).resolve().parent / "results"
SETUP_REPEATS = 5
SETUP_PROBES = 10  # base-mix probes after each provisioning
WARMUP_UTTERANCES = 8

#: End-to-end metrics (``--trace 0``) and their units.
E2E_UNITS = {
    "setup_s": "s",
    "utt_per_s": "1/s",
    "devices_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "proc_sim_ms_mean": "sim_ms",
    "proc_sim_ms_p95": "sim_ms",
    "energy_mj_per_utt": "mJ",
    "world_switches_per_utt": "count",
    "served_frac": "ratio",
    "sensitive_withheld_frac": "ratio",
    "accuracy": "ratio",
}

SIM_STAGES = ("capture", "asr", "classify", "filter", "relay", "tls_handshake")

#: Per-layer metrics (``--trace 1``) and their units.
LAYER_UNITS = {
    "drivers.read_chunk.calls_per_utt": "count",
    "drivers.read_chunk.self_ms_per_utt": "ms",
    "sim.clock_advance.calls_per_utt": "count",
    "sim.clock_advance.self_ms_per_utt": "ms",
    "tz.smc.calls_per_utt": "count",
    "tz.smc.self_ms_per_utt": "ms",
    "optee.invoke_pta.calls_per_utt": "count",
    "optee.invoke_pta.self_ms_per_utt": "ms",
    "cloud.receive.calls_per_utt": "count",
    "cloud.receive.self_ms_per_utt": "ms",
    "ml.asr.self_ms_per_utt": "ms",
    "ml.classify.self_ms_per_utt": "ms",
    "crypto.aead.self_ms_per_utt": "ms",
    "core.process_item.self_ms_per_utt": "ms",
    "ml.train.s": "s",
    "crypto.modexp.calls_per_device": "count",
    "crypto.modexp.self_ms_per_device": "ms",
    "relay.handshakes_per_device": "count",
    "relay.handshake.ms_per_device": "ms",
    "core.platform_create.ms_per_device": "ms",
    "core.pipeline_init.ms_per_device": "ms",
    "core.workload_build.ms_per_device": "ms",
    "obs.device_reduce.ms_per_device": "ms",
    "obs.span.calls_per_utt": "count",
    "obs.observe.calls_per_utt": "count",
    "obs.self_ms_per_utt": "ms",
    "optee.storage_put.calls_per_utt": "count",
    "optee.storage_put.ms_per_utt": "ms",
    "optee.storage_get.calls_per_utt": "count",
    "relay.queue_enqueue.calls_per_utt": "count",
    "relay.queue_drain.ms_per_utt": "ms",
    "relay.sends_per_forwarded": "ratio",
    "cloud.throttled_frac": "ratio",
    "cloud.admission_cycles_p99": "cycles",
    "core.process_item.host_ms_p50": "ms",
    "core.process_item.host_ms_p99": "ms",
    **{f"sim.cycles_per_utt.{s}": "cycles"
       for s in (*SIM_STAGES, "supplicant_rpc")},
    "trace.overhead_frac": "ratio",
    "host.calib_ms": "ms",
    "host.raw_utt_per_s": "1/s",
    "host.unattributed_frac": "ratio",
}


@dataclass(frozen=True)
class Block:
    """Consecutive devices timed together, probe time excluded."""

    utterances: int
    devices: int
    seconds: float
    calib_ms: float  # mean probe time over the block
    ref_ms: float  # the same probe's time on the reference machine

    def rate(self, count: int) -> float:
        """``count`` per host second, scaled to the reference machine."""
        return count / self.seconds * self.calib_ms / self.ref_ms


@dataclass
class RunResult:
    """One timed run: the roster once, then repeated devices until time.

    ``reports``, ``outcomes`` and ``proc_cycles`` cover the first pass
    over the roster, so simulated and outcome metrics do not depend on
    host speed; ``blocks`` and the totals cover every device run.
    """

    reports: list[DeviceReport] = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)
    proc_cycles: list[int] = field(default_factory=list)
    blocks: list[Block] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def utterances(self) -> int:
        """Utterances of the first-pass devices that completed."""
        return sum(r.summary["utterances"] for r in self.reports)

    @property
    def wall_s(self) -> float:
        """Host seconds spent inside ``simulate_device_runtime``."""
        return sum(b.seconds for b in self.blocks)

    @property
    def calib_ms(self) -> float:
        """Median over blocks of the mean probe time."""
        return statistics.median(b.calib_ms for b in self.blocks)

    def digest(self, seed: int) -> str:
        """sha256 of the first pass's fleet document: every
        decision-derived number."""
        return _sha256(FleetReport(seed=seed, devices=self.reports).to_doc())


def _sha256(doc: Any) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class _ResultTap:
    """Wraps ``process_item`` for one run: keeps every decision for the
    correctness checks and runs the speed probe after each one.

    Installed for every run, traced or not, so both do identical work.
    It wraps any tracer wrapper, so the probe stays outside the
    utterance's own span.
    """

    def __init__(self, speed_probe: Callable[[], float]) -> None:
        self.results: list = []
        self.probe_ms = 0.0
        self._probe = speed_probe
        self._original = None

    def reset(self) -> None:
        """Forget the previous device."""
        self.results.clear()
        self.probe_ms = 0.0

    def __enter__(self) -> "_ResultTap":
        original = self._original = SecurePipeline.process_item

        def process_item(pipeline, item):
            result = original(pipeline, item)
            self.results.append(result)
            self.probe_ms += self._probe()
            return result

        SecurePipeline.process_item = process_item
        return self

    def __exit__(self, *exc_info: Any) -> None:
        SecurePipeline.process_item = self._original


def check_device(
    spec, runtime, results: list, violations: list[str]
) -> Counter:
    """Check one device's outputs; returns its outcome counts.

    Ground truth is the device's corpus, regenerated by the same public
    generator call the fleet runner makes.
    """
    corpus = UtteranceGenerator(SimRng(spec.seed, "fleet")).generate(
        spec.utterances, sensitive_fraction=spec.sensitive_fraction
    )
    truth = corpus.utterances
    report, platform = runtime.report, runtime.platform
    where = spec.device_id
    if not len(truth) == report.summary["utterances"] == len(results):
        violations.append(
            f"{where}: {len(truth)} generated, "
            f"{report.summary['utterances']} reported, "
            f"{len(results)} processed"
        )
    if [r.utterance.text for r in results] != [u.text for u in truth]:
        violations.append(f"{where}: processed utterances out of order")
    wire = b"\x00".join(platform.supplicant.net.wire_log)
    for u in truth:
        if u.text.encode() in wire:
            violations.append(f"{where}: plaintext on the wire: {u.text!r}")
    for record in platform.cloud.received:
        if not record.encrypted_transport:
            violations.append(
                f"{where}: cloud record {record.dialog_id} not encrypted"
            )
    run = PipelineRunResult(pipeline="secure", results=list(results))
    if run.lost_count() != run.shed_count():
        violations.append(
            f"{where}: lost {run.lost_count()} != shed {run.shed_count()}"
        )
    out = Counter(
        attempted=len(results),
        forwarded=run.forwarded_count(),
        sent=run.sent_count(),
        correct=sum(r.correct for r in results),
        degraded=run.degraded_count(),
        shed=run.shed_count(),
    )
    stored = Counter(platform.cloud.received_transcripts)
    for r in results:
        if r.utterance.sensitive:
            out["sensitive"] += 1
            if r.forwarded and stored[r.payload] > 0:
                stored[r.payload] -= 1
                out["leaked"] += 1
    return out


def run_roster(
    workload: Workload,
    bundle,
    seconds: float = 0.0,
    tracer: LayerTracer | None = None,
) -> RunResult:
    """Run the roster closed-loop, one device at a time, then keep
    cycling through it, block by block, until ``seconds`` have passed.

    Only ``simulate_device_runtime`` is timed, less the probes run inside
    it; checks and reduction run between devices.  A repeated device must
    reproduce its first-pass report exactly.
    """
    out = RunResult()
    specs = workload.specs
    first_docs: dict[str, str] = {}
    started = time.perf_counter()
    utts = devs = 0
    secs = probe_ms = 0.0
    ref_ms = reference_ms(workload.probe_modexps)
    speed_probe = functools.partial(probe, workload.probe_modexps)
    if tracer is not None:
        speed_probe = tracer.fold(speed_probe, PROBE_LAYER)
    with _ResultTap(speed_probe) as tap:
        for n, spec in enumerate(itertools.cycle(specs), start=1):
            first_pass = n <= len(specs)
            tap.reset()
            if tracer is not None:
                tracer.begin_device(spec.device_id)
            t0 = time.perf_counter()
            try:
                runtime = fleet.simulate_device_runtime(spec, bundle)
            except Exception:
                # Keep running: a device that raised counts its utterances
                # as failed, and the traceback says why.
                traceback.print_exc()
                out.attempted += spec.utterances
                out.failed += spec.utterances
                if first_pass:
                    out.outcomes.update(attempted=spec.utterances,
                                        failed=spec.utterances)
            else:
                secs += time.perf_counter() - t0 - tap.probe_ms / 1e3
                probe_ms += tap.probe_ms
                utts += len(tap.results)
                devs += 1
                _record_device(spec, runtime, tap.results, out, first_pass,
                               first_docs)
                del runtime
            position = (n - 1) % len(specs) + 1
            if position % workload.block == 0 or position == len(specs):
                if utts:
                    out.blocks.append(
                        Block(utts, devs, secs, probe_ms / utts, ref_ms)
                    )
                utts = devs = 0
                secs = probe_ms = 0.0
                if (n >= len(specs)
                        and time.perf_counter() - started >= seconds):
                    break
    return out


def _record_device(spec, runtime, results, out: RunResult, first_pass: bool,
                   first_docs: dict[str, str]) -> None:
    """Check one completed device and file its report and outcomes."""
    outcome = check_device(spec, runtime, results, out.violations)
    out.attempted += outcome["attempted"]
    doc = _sha256(runtime.report.to_doc())
    if first_pass:
        out.reports.append(runtime.report)
        out.outcomes.update(outcome)
        out.proc_cycles += PipelineRunResult(
            pipeline="secure", results=list(results)
        ).processing_latency_cycles().tolist()
        first_docs[spec.device_id] = doc
    elif first_docs.get(spec.device_id) != doc:
        out.violations.append(
            f"{spec.device_id}: repeated run changed the decisions"
        )


def timed_setup(
    repeats: int,
) -> tuple[Any, list[float], list[float], list[str]]:
    """Provision the bundle ``repeats`` times.

    Returns the last bundle, each provisioning time, the times of the
    base-mix probes run after each provisioning (set-up is training, not
    handshakes, so it is scaled by the base mix whatever the workload) and
    any violation (set-up must be deterministic, so every bundle must
    pickle to the same bytes).
    """
    times, probe_ms, digests, bundle = [], [], set(), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        bundle = provision_bundle(**BUNDLE_ARGS).bundle
        times.append(time.perf_counter() - t0)
        digests.add(hashlib.sha256(pickle.dumps(bundle)).hexdigest())
        probe_ms += [probe() for _ in range(SETUP_PROBES)]
    violations = [] if len(digests) == 1 else [
        f"set-up is not deterministic: {len(digests)} distinct bundles"
    ]
    return bundle, times, probe_ms, violations


def _metric(
    value: float, unit: str, n: int, raw: float | None = None
) -> dict[str, Any]:
    """One reported metric with its sample count (and, for host-time
    metrics, the unscaled value measured on this machine)."""
    out = {"value": value, "unit": unit, "n": n}
    if raw is not None:
        out["raw"] = raw
    return out


def _frac(num: float, den: float, empty: float) -> float:
    return num / den if den else empty


def failed_frac(o: Counter) -> float:
    """(shed + degraded + utterances of devices that raised) / attempted."""
    return _frac(o["shed"] + o["degraded"] + o["failed"], o["attempted"], 0.0)


def sensitive_leak_frac(o: Counter) -> float:
    """Sensitive utterances whose transcript the cloud stored / sensitive."""
    return _frac(o["leaked"], o["sensitive"], 0.0)


def e2e_metrics(
    run: RunResult,
    import_s: float,
    setup_times: list[float],
    setup_probe_ms: list[float],
) -> dict[str, dict[str, Any]]:
    """The end-to-end metrics of the untraced run.

    Throughputs are the median over timing blocks of each block's rate,
    scaled to the reference machine by the block's mean probe time;
    ``setup_s`` is scaled by the median of the probes run during set-up.  The
    simulated latency is the program's processing latency: an utterance's
    latency less its real-time audio capture, so it measures the pipeline
    and not how long the generated utterances happen to be.  It is given
    as a mean, not a median: the median sits on one of a few path costs
    (withheld, sent, throttled) and jumps between them with the seed.
    """
    blocks, o = run.blocks, run.outcomes
    utts = run.utterances
    setup_s = import_s + statistics.median(setup_times)
    freq_hz = FleetReport(seed=0, devices=run.reports).freq_hz
    proc = run.proc_cycles
    u = E2E_UNITS

    def throughput(name: str, count: str) -> dict[str, Any]:
        return _metric(
            statistics.median(b.rate(getattr(b, count)) for b in blocks),
            u[name], len(blocks),
            raw=statistics.median(
                getattr(b, count) / b.seconds for b in blocks
            ),
        )

    return {
        "setup_s": _metric(
            setup_s * reference_ms(0) / statistics.median(setup_probe_ms),
            u["setup_s"], len(setup_times), raw=setup_s,
        ),
        "utt_per_s": throughput("utt_per_s", "utterances"),
        "devices_per_s": throughput("devices_per_s", "devices"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            u["peak_rss_mb"], 1,
        ),
        "proc_sim_ms_mean": _metric(
            cycles_to_ms(sum(proc) / len(proc), freq_hz),
            u["proc_sim_ms_mean"], len(proc),
        ),
        "proc_sim_ms_p95": _metric(
            cycles_to_ms(_nearest_rank(proc, 0.95), freq_hz),
            u["proc_sim_ms_p95"], len(proc),
        ),
        "energy_mj_per_utt": _metric(
            sum(r.energy_mj for r in run.reports) / utts,
            u["energy_mj_per_utt"], utts,
        ),
        "world_switches_per_utt": _metric(
            sum(r.world_switches for r in run.reports) / utts,
            u["world_switches_per_utt"], utts,
        ),
        "served_frac": _metric(1.0 - failed_frac(o), u["served_frac"],
                               o["attempted"]),
        "sensitive_withheld_frac": _metric(
            1.0 - sensitive_leak_frac(o), u["sensitive_withheld_frac"],
            o["sensitive"],
        ),
        "accuracy": _metric(o["correct"] / o["attempted"], u["accuracy"],
                            o["attempted"]),
    }


def _nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(len(ordered) * q) - 1)] if ordered else 0.0


def layer_metrics(
    traced: RunResult,
    tracer: LayerTracer,
    untraced_wall_s: float,
    raw_utt_per_s: float,
) -> dict[str, dict[str, Any]]:
    """The per-layer split of the traced run (host times unscaled)."""
    stats = tracer.stats
    utts, devs = traced.utterances, len(traced.reports)
    wall = traced.wall_s
    merged = FleetReport(seed=0, devices=traced.reports).merged_registry()
    out: dict[str, dict[str, Any]] = {}

    def put(name: str, value: float, n: int) -> None:
        out[name] = _metric(value, LAYER_UNITS[name], n)

    def calls(layer: str) -> int:
        return stats[layer][0]

    def self_ms(layer: str) -> float:
        return stats[layer][1] / 1e6

    def incl_ms(layer: str) -> float:
        return stats[layer][2] / 1e6

    for layer in ("drivers.read_chunk", "sim.clock_advance", "tz.smc",
                  "optee.invoke_pta", "cloud.receive"):
        put(f"{layer}.calls_per_utt", calls(layer) / utts, calls(layer))
        put(f"{layer}.self_ms_per_utt", self_ms(layer) / utts, calls(layer))
    for layer in ("ml.asr", "ml.classify", "crypto.aead", UTTERANCE_LAYER):
        put(f"{layer}.self_ms_per_utt", self_ms(layer) / utts, calls(layer))
    put("ml.train.s", incl_ms("ml.train") / 1e3, calls("ml.train"))
    put("crypto.modexp.calls_per_device", calls("crypto.modexp") / devs,
        calls("crypto.modexp"))
    put("crypto.modexp.self_ms_per_device", self_ms("crypto.modexp") / devs,
        calls("crypto.modexp"))
    put("relay.handshakes_per_device", calls("relay.handshake") / devs,
        calls("relay.handshake"))
    put("relay.handshake.ms_per_device", incl_ms("relay.handshake") / devs,
        calls("relay.handshake"))
    for layer in ("core.platform_create", "core.pipeline_init",
                  "core.workload_build"):
        put(f"{layer}.ms_per_device", incl_ms(layer) / devs, calls(layer))
    put("obs.device_reduce.ms_per_device",
        self_ms("obs.device_reduce") / devs, devs)
    put("obs.span.calls_per_utt", calls("obs.span") / utts, calls("obs.span"))
    put("obs.observe.calls_per_utt", calls("obs.observe") / utts,
        calls("obs.observe"))
    put("obs.self_ms_per_utt", sum(self_ms(x) for x in OBS_LAYERS) / utts,
        sum(calls(x) for x in OBS_LAYERS))
    put("optee.storage_put.calls_per_utt", calls("optee.storage_put") / utts,
        calls("optee.storage_put"))
    put("optee.storage_put.ms_per_utt", incl_ms("optee.storage_put") / utts,
        calls("optee.storage_put"))
    put("optee.storage_get.calls_per_utt", calls("optee.storage_get") / utts,
        calls("optee.storage_get"))
    put("relay.queue_enqueue.calls_per_utt",
        calls("relay.queue_enqueue") / utts, calls("relay.queue_enqueue"))
    put("relay.queue_drain.ms_per_utt", incl_ms("relay.queue_drain") / utts,
        calls("relay.queue_drain"))
    forwarded = traced.outcomes["forwarded"]
    put("relay.sends_per_forwarded",
        _frac(calls("relay.send"), forwarded, 0.0), forwarded)
    throttled = merged.counter("cloud.ingest.throttled").value
    admitted = merged.counter("cloud.ingest.accepted").value + throttled
    put("cloud.throttled_frac", _frac(throttled, admitted, 0.0), admitted)
    admission = merged.histogram("cloud.ingest.admission_cycles")
    put("cloud.admission_cycles_p99", admission.p99, admission.count)
    item_ms = tracer.span_durations_ms(UTTERANCE_LAYER)
    put("core.process_item.host_ms_p50", _nearest_rank(item_ms, 0.50),
        len(item_ms))
    put("core.process_item.host_ms_p99", _nearest_rank(item_ms, 0.99),
        len(item_ms))
    for stage in SIM_STAGES:
        hist = merged.histogram(f"stage.secure.{stage}.cycles")
        put(f"sim.cycles_per_utt.{stage}", hist.total / utts, hist.count)
    rpc = merged.histograms("rpc.").values()
    put("sim.cycles_per_utt.supplicant_rpc",
        sum(h.total for h in rpc) / utts, sum(h.count for h in rpc))
    put("trace.overhead_frac", wall / untraced_wall_s - 1.0, devs)
    put("host.calib_ms", traced.calib_ms, len(traced.blocks))
    put("host.raw_utt_per_s", raw_utt_per_s, len(traced.blocks))
    put("host.unattributed_frac", self_ms("obs.device_reduce") / 1e3 / wall,
        devs)
    return out


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float = 0.0,
    setup_repeats: int = SETUP_REPEATS,
) -> tuple[dict[str, Any], LayerTracer | None]:
    """Run one workload end to end.

    Returns the result document and, for a traced run, the tracer that
    holds its spans.
    """
    tracer = LayerTracer() if trace else None  # fails fast on table drift
    bundle, setup_times, setup_probe_ms, violations = timed_setup(
        setup_repeats
    )
    warmup = replace(
        workload.specs[0], device_id="warmup",
        utterances=min(WARMUP_UTTERANCES, workload.specs[0].utterances),
    )
    violations += run_roster(
        replace(workload, specs=(warmup,)), bundle
    ).violations
    run = run_roster(workload, bundle, seconds)
    violations += run.violations
    digest = run.digest(seed)
    traced = None
    if tracer is not None:
        with tracer.installed():
            provision_bundle(**BUNDLE_ARGS)
            traced = run_roster(workload, bundle, tracer=tracer)
        violations += traced.violations
        if traced.digest(seed) != digest:
            violations.append("traced run changed the decisions")
    metrics = e2e_metrics(run, import_s, setup_times, setup_probe_ms)
    doc: dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "devices": len(workload.specs),
        "devices_run": sum(b.devices for b in run.blocks),
        "digest": digest,
        "correct": not violations,
        "violations": violations,
        "attempted": run.attempted + (traced.attempted if traced else 0),
        "failed": run.failed + (traced.failed if traced else 0),
        "metrics": metrics,
        "raw": {
            "import_s": import_s,
            "provision_s": setup_times,
            "setup_probe_ms": setup_probe_ms,
            "blocks": [
                [b.utterances, b.devices, b.seconds, b.calib_ms]
                for b in run.blocks
            ],
        },
        "outcomes": {
            "delivered_frac": _frac(run.outcomes["sent"],
                                    run.outcomes["forwarded"], 1.0),
            "failed_frac": failed_frac(run.outcomes),
            "sensitive_leak_frac": sensitive_leak_frac(run.outcomes),
            **run.outcomes,
        },
    }
    if traced is not None:
        doc["traced_digest"] = traced.digest(seed)
        # Per-device host time of the untraced run against the traced
        # pass, which runs every device exactly once.
        untraced_wall = run.wall_s * len(traced.reports) / doc["devices_run"]
        doc["layers"] = layer_metrics(
            traced, tracer, untraced_wall, metrics["utt_per_s"]["raw"]
        )
    return doc, tracer


def _print_metrics(name: str, metrics: dict[str, dict[str, Any]]) -> None:
    for key, m in metrics.items():
        raw = f"  (raw {m['raw']:.6g})" if "raw" in m else ""
        print(f"{name:9s} {key:40s} {m['value']:>14.6g} {m['unit']:7s} "
              f"n={m['n']}{raw}")


def _run_one(args: argparse.Namespace, import_s: float) -> int:
    workload = WORKLOADS[args.workload](args.seed)
    doc, tracer = run_workload(workload, args.seed, args.seconds,
                               bool(args.trace), import_s=import_s)
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{workload.name}.json").write_text(
        json.dumps(doc, indent=1) + "\n"
    )
    if tracer is not None:
        tracer.write_jsonl(RESULTS / f"{workload.name}.trace.jsonl")
    metrics = doc["layers"] if args.trace else doc["metrics"]
    print(f"{workload.name}: {doc['devices']} devices "
          f"({doc['devices_run']} run), seed {args.seed}, "
          f"digest {doc['digest'][:16]}")
    _print_metrics(workload.name, metrics)
    print(f"{workload.name:9s} failed_frac {doc['outcomes']['failed_frac']} "
          f"sensitive_leak_frac {doc['outcomes']['sensitive_leak_frac']} "
          f"delivered_frac {doc['outcomes']['delivered_frac']}")
    for v in doc["violations"]:
        print(f"VIOLATION {v}", file=sys.stderr)
    print(json.dumps({
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {
            k: {"value": m["value"], "unit": m["unit"]}
            for k, m in metrics.items()
        },
    }))
    return 0 if doc["correct"] else 1


def _run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process, one at a time; merged document."""
    merged, status = {}, 0
    for name in WORKLOADS:
        result = RESULTS / f"{name}.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, str(Path(__file__).resolve().parent),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = subprocess.run(cmd, check=False).returncode or status
        if result.exists():
            merged[name] = json.loads(result.read_text())
    out = RESULTS / f"{args.run}.json"
    out.write_text(json.dumps(merged, indent=1) + "\n")
    print(f"wrote {out}")
    return status


def main(argv: list[str] | None = None, import_s: float = 0.0) -> int:
    """Command line: one workload in-process, or all in subprocesses."""
    parser = argparse.ArgumentParser(prog="python3 benchmarks/e2e",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1000)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="host seconds to keep cycling the roster "
                             "(at least one full pass)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add a traced run and report per-layer metrics")
    parser.add_argument("--run", default="last",
                        help="without --workload, write results/<run>.json")
    args = parser.parse_args(argv)
    if args.workload is None:
        return _run_all(args)
    return _run_one(args, import_s)
