"""Fleet simulation: N devices, one merged picture.

This module runs a simulated fleet — each device its own freshly seeded
:class:`~repro.core.platform.IotPlatform` with a varied workload and
network fault profile — and folds the per-device telemetry into a single
:class:`FleetReport` via :meth:`BucketHistogram.merge` and
:meth:`MetricsRegistry.merge`.  The merged latency quantiles equal the
quantiles of the concatenated per-device streams within one bucket's
relative error (exactly, while under the sample cap).

Devices run one after another.  Each is reduced to a
:class:`DeviceReport` *document* — plain picklable telemetry, no machine
or platform object graphs — so the runner holds a report per device,
never a simulation.  Each device's :class:`MetricsRegistry` is the one
record of its telemetry: the report's latency histogram is a view of the
registry's ``fleet.e2e_latency_cycles``, not a copy.
:func:`simulate_device_runtime` also hands back the device's live
machine and platform, for in-process consumers like the health CLI; the
fleet runner keeps only the report.

Everything stays inside the repo's determinism contract: device seeds
derive from the fleet seed, fault sequences come from each device's
:class:`~repro.sim.faults.FaultInjector` fork, and no wall-clock or
global RNG is consulted — the same ``(seed, devices)`` pair always
produces the same fleet report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Any

from repro.cloud.service import IngestionConfig
from repro.energy.battery import project_battery_life
from repro.obs.health import WatchdogAlert, check_heartbeats, span_heartbeats
from repro.obs.metrics import BucketHistogram, MetricsRegistry
from repro.sim.clock import DEFAULT_FREQ_HZ, cycles_to_ms
from repro.sim.faults import (
    ClientCrashConfig,
    ClientCrashInjector,
    FaultConfig,
    SecureFaultConfig,
)

# Deterministic rotation of network conditions across the fleet.
FAULT_PROFILES: dict[str, FaultConfig | None] = {
    "clean": None,
    "light": FaultConfig.send_failure(0.1),
    "lossy": FaultConfig.send_failure(0.3),
    "congested": FaultConfig(latency_rate=0.5, latency_cycles=400_000),
}

# Secure-world (TEE) fault profiles — chaos engineering for the enclave.
# Orthogonal to the network profiles above: a device can have a lossy
# link AND a panicking TA.
SECURE_FAULT_PROFILES: dict[str, SecureFaultConfig | None] = {
    "none": None,
    "chaos": SecureFaultConfig.chaos(),
}

# Cloud admission-tier profiles.  "none" never throttles and commits at
# admission.  "overload" starves the token buckets and shrinks the tenant
# queues so the cloud actively throttles — the knob the backpressure round
# trip (throttle → sealed queue → drain) is proved under.
INGEST_PROFILES: dict[str, IngestionConfig] = {
    "none": IngestionConfig.unthrottled(),
    "overload": IngestionConfig.overload(),
}

# Normal-world client crash/restart chaos.  Orthogonal to every profile
# above: the client process dies mid-run and recovery must come from the
# TA's sealed checkpoint + store-and-forward queue via CMD_RESUME.
CLIENT_CRASH_PROFILES: dict[str, ClientCrashConfig | None] = {
    "none": None,
    "chaos": ClientCrashConfig.chaos(),
}

_SENSITIVE_MIX = (0.25, 0.5, 0.75)

LATENCY_METRIC = "fleet.e2e_latency_cycles"
ENERGY_METRIC = "fleet.e2e_energy_mj"

@dataclass(frozen=True)
class DeviceSpec:
    """One simulated device's identity and operating conditions."""

    device_id: str
    seed: int
    utterances: int
    sensitive_fraction: float
    fault_profile: str
    secure_fault_profile: str = "none"
    ingest_profile: str = "none"
    client_crash_profile: str = "none"

    def fault_config(self) -> FaultConfig | None:
        """The named fault profile's config (``None`` for a clean link)."""
        return FAULT_PROFILES[self.fault_profile]

    def secure_fault_config(self) -> SecureFaultConfig | None:
        """The named secure-world profile (``None`` = faults off)."""
        return SECURE_FAULT_PROFILES[self.secure_fault_profile]

    def ingest_config(self) -> IngestionConfig:
        """The named cloud admission profile."""
        return INGEST_PROFILES[self.ingest_profile]

    def client_crash_config(self) -> ClientCrashConfig | None:
        """The named client-crash profile (``None`` = crashes off)."""
        return CLIENT_CRASH_PROFILES[self.client_crash_profile]


def device_specs(
    devices: int,
    seed: int = 7,
    utterances: int = 6,
    chaos: bool = False,
    overload: bool = False,
    client_crashes: bool = False,
) -> list[DeviceSpec]:
    """Deterministic fleet roster: varied seeds, workloads and networks.

    Device ``i`` gets seed ``seed + 1000 + i`` (offset so no device
    shares the provisioning seed), a workload size in
    ``utterances .. utterances + 2``, a rotating sensitive-content mix
    and a rotating fault profile.  ``chaos=True`` additionally puts every
    device under the ``chaos`` secure-world fault profile (and thus TA
    supervision).  ``overload=True`` puts every device's cloud behind the
    starved ``overload`` admission profile, and ``client_crashes=True``
    applies the client crash/restart chaos profile (which also runs the
    TA supervised, since recovery needs sealed checkpoints).
    """
    if devices <= 0:
        raise ValueError("fleet needs at least one device")
    profiles = list(FAULT_PROFILES)
    return [
        DeviceSpec(
            device_id=f"d{i:02d}",
            seed=seed + 1000 + i,
            utterances=utterances + (i % 3),
            sensitive_fraction=_SENSITIVE_MIX[i % len(_SENSITIVE_MIX)],
            fault_profile=profiles[i % len(profiles)],
            secure_fault_profile="chaos" if chaos else "none",
            ingest_profile="overload" if overload else "none",
            client_crash_profile="chaos" if client_crashes else "none",
        )
        for i in range(devices)
    ]


@dataclass
class DeviceReport:
    """One device's run, reduced to mergeable, *picklable* telemetry.

    A pure document: plain data plus the device's :class:`MetricsRegistry`,
    never the machine or platform object graphs, so a fleet runner can
    hold hundreds of reports without holding their simulations.
    Consumers that need the live platform (the health CLI's alert
    routing) use the :class:`DeviceRuntime` that
    :func:`simulate_device_runtime` returns.

    ``clock_now``/``heartbeats``/``freq_hz`` carry the serializable
    inputs of the span watchdog and the cycle→wall-clock conversion, so
    both work from a deserialized report.
    """

    spec: DeviceSpec
    summary: dict[str, Any]
    relay: dict[str, int]
    registry: MetricsRegistry
    world_switches: int
    energy_mj: float
    battery_days: float
    restarts: int = 0
    client_restarts: int = 0
    freq_hz: float = DEFAULT_FREQ_HZ
    clock_now: int = 0
    heartbeats: dict[str, int] = field(default_factory=dict)
    # The trace-stamped span docs kept for the fleet timeline (empty
    # unless the run collected traces).
    trace_spans: list[dict[str, Any]] = field(default_factory=list)

    @property
    def latency_hist(self) -> BucketHistogram:
        """End-to-end utterance latencies, read from the registry.

        The registry's ``fleet.e2e_latency_cycles``; a device that ran no
        utterance has none and reads as an empty histogram of that name.
        """
        hist = self.registry.histograms().get(LATENCY_METRIC)
        return hist if hist is not None else BucketHistogram(LATENCY_METRIC)

    @property
    def relay_success_rate(self) -> float:
        """Forwarded decisions delivered without spilling to the queue."""
        forwarded = self.summary["forwarded"]
        return self.summary["sent"] / forwarded if forwarded else 1.0

    def stalled(
        self, stall_cycles: int = 10_000_000_000
    ) -> list[WatchdogAlert]:
        """The span watchdog's verdict from the serialized heartbeats.

        :func:`~repro.obs.health.check_heartbeats` over the device's span
        heartbeats as of its final cycle, computed from the report
        document alone — no live tracer or clock needed, so it works on
        a deserialized report.  A report without heartbeats reports the
        ``(no spans)`` sentinel.
        """
        return check_heartbeats(self.heartbeats, self.clock_now, stall_cycles)

    def to_doc(self) -> dict[str, Any]:
        """JSON-ready per-device row for ``fleet.json``."""
        hist = self.latency_hist
        return {
            "device": self.spec.device_id,
            "seed": self.spec.seed,
            "fault_profile": self.spec.fault_profile,
            "utterances": self.summary["utterances"],
            "sensitive_fraction": self.spec.sensitive_fraction,
            "accuracy": self.summary["accuracy"],
            "forwarded": self.summary["forwarded"],
            "sent": self.summary["sent"],
            "queued": self.summary["queued"],
            "throttled": self.summary.get("throttled", 0),
            "shed": self.summary.get("shed", 0),
            "relay_attempts": self.summary["relay_attempts"],
            "relay_success_rate": self.relay_success_rate,
            "queue_depth": self.relay.get("queue_depth", 0),
            "retries": self.relay.get("retries", 0),
            "latency_p50_cycles": hist.p50,
            "latency_p95_cycles": hist.p95,
            "latency_p99_cycles": hist.p99,
            "world_switches": self.world_switches,
            "energy_mj": self.energy_mj,
            "battery_days": self.battery_days,
            "secure_fault_profile": self.spec.secure_fault_profile,
            "ingest_profile": self.spec.ingest_profile,
            "client_crash_profile": self.spec.client_crash_profile,
            "restarts": self.restarts,
            "degraded": self.summary["degraded"],
            "client_restarts": self.client_restarts,
        }


@dataclass
class DeviceRuntime:
    """A device report plus the live simulation objects behind it.

    For in-process consumers only (the health CLI routes alerts through
    the platform's relay); never appears in fleet documents.
    """

    report: DeviceReport
    machine: Any
    platform: Any
    ta_uuid: Any


def _run_with_client_crashes(pipeline, workload, config: ClientCrashConfig):
    """Run a workload with client crash/restart chaos at utterance bounds.

    Before each utterance the injector may kill the client application
    (:meth:`SecurePipeline.crash_client` — session, supervisor and
    sequence counter gone, TA instance torn down with it) and immediately
    restart it (:meth:`SecurePipeline.recover_client` — fresh session,
    TA restored from sealed checkpoint + queue, sequence resumed from
    ``CMD_RESUME``).  The results list lives harness-side (it stands in
    for decisions already committed at the cloud), so the run document
    keeps every utterance while the client loses all in-process state.
    """
    from repro.core.results import PipelineRunResult

    injector = ClientCrashInjector(config, pipeline.platform.rng)
    run = PipelineRunResult(pipeline=pipeline.name)
    for item in workload:
        if injector.fires():
            pipeline.crash_client()
            pipeline.recover_client()
        run.results.append(pipeline.process_item(item))
    pipeline._collect_stats(run)
    return run


def simulate_device_runtime(
    spec: DeviceSpec,
    bundle,
    recorder=None,
    collect_traces: bool = False,
) -> DeviceRuntime:
    """Run one device's workload; the report plus the live machine.

    Fleet-level metrics (``fleet.*``) are recorded into the device's own
    registry so that merging registries yields the fleet rollup for free;
    recording is passive, so the pipeline's decisions are untouched.
    ``recorder`` attaches a health
    :class:`~repro.obs.health.FlightRecorder` before the run so a later
    SLO violation can dump the spans that led up to it.

    ``collect_traces`` retains the trace-stamped span docs on the report
    (every utterance's stage spans carry its trace id either way).
    """
    from repro.core.pipeline import SecurePipeline
    from repro.core.platform import IotPlatform
    from repro.core.workload import UtteranceWorkload
    from repro.ml.dataset import UtteranceGenerator
    from repro.optee.supervise import SupervisorPolicy
    from repro.sim.rng import SimRng

    secure_faults = spec.secure_fault_config()
    crash_config = spec.client_crash_config()
    platform = IotPlatform.create(
        seed=spec.seed,
        network_faults=spec.fault_config(),
        secure_faults=secure_faults,
        ingestion=spec.ingest_config(),
    )
    if recorder is not None:
        platform.machine.obs.attach_recorder(recorder)
    # Secure-world faults without supervision would just kill the run;
    # chaos devices therefore run supervised (checkpoint + restart).
    # Client-crash devices run supervised too: CMD_RESUME recovery is
    # only meaningful when checkpoints are actually sealed.
    supervised = secure_faults is not None or (
        crash_config is not None and crash_config.enabled
    )
    pipeline = SecurePipeline(
        platform,
        bundle,
        supervisor=SupervisorPolicy() if supervised else None,
        device_id=spec.device_id,
    )
    corpus = UtteranceGenerator(SimRng(spec.seed, "fleet")).generate(
        spec.utterances, sensitive_fraction=spec.sensitive_fraction
    )
    workload = UtteranceWorkload.from_corpus(corpus, bundle.vocoder)
    try:
        if crash_config is not None and crash_config.enabled:
            run = _run_with_client_crashes(pipeline, workload, crash_config)
        else:
            run = pipeline.process(workload)
        # Commit whatever the admission tier still holds in its tenant
        # queues so the device report reflects the cloud's final state
        # (only a throttling profile leaves records pending).
        platform.cloud.flush()
        client_restarts = pipeline.client_restarts
    finally:
        pipeline.close()

    summary = run.summary()
    relay = dict(run.relay_stats)

    machine = platform.machine
    energy_mj = platform.energy.report().total_mj
    per_utt_mj = energy_mj / len(run.results) if run.results else 0.0
    battery = project_battery_life(per_utt_mj)

    metrics = machine.obs.metrics
    # The run is over: freeze the clock-derived counters, so the report's
    # registry is a plain, picklable document that refers to no clock.
    metrics.derive_counters(None)
    # Pre-create every fleet counter so the registry's counter set is
    # identical whether the run had traffic for it or not (merges and
    # exports depend on the namespace, not the values).
    for name in (
        "fleet.utterances", "fleet.relay.forwarded", "fleet.relay.sent",
        "fleet.relay.queued", "fleet.relay.throttled", "fleet.relay.shed",
        "fleet.relay.retries", "fleet.relay.rehandshakes",
        "fleet.world_switches", "fleet.client_restarts",
    ):
        metrics.inc(name, 0)
    # Per-result recording: summary() counts exactly these predicates
    # over the same results.
    for r in run.results:
        metrics.observe(LATENCY_METRIC, r.latency_cycles)
        metrics.observe(ENERGY_METRIC, r.energy_mj)
        metrics.inc("fleet.utterances", 1)
        if r.forwarded:
            metrics.inc("fleet.relay.forwarded", 1)
        if r.relay_status == "sent":
            metrics.inc("fleet.relay.sent", 1)
        elif r.relay_status == "queued":
            metrics.inc("fleet.relay.queued", 1)
        elif r.relay_status == "throttled":
            metrics.inc("fleet.relay.throttled", 1)
        elif r.relay_status == "shed":
            metrics.inc("fleet.relay.shed", 1)
    metrics.inc("fleet.relay.retries", relay.get("retries", 0))
    metrics.inc("fleet.relay.rehandshakes", relay.get("rehandshakes", 0))
    metrics.inc("fleet.world_switches", machine.cpu.switch_count)
    metrics.inc("fleet.client_restarts", client_restarts)
    # Per-utterance energy lives in the ENERGY_METRIC histogram above —
    # an intensive (per-utterance) gauge would sum to devices× the true
    # value under registry merge.  Gauges here must stay extensive.
    metrics.set("fleet.relay.queue_depth", relay.get("queue_depth", 0))

    trace_spans: list[dict[str, Any]] = []
    if collect_traces:
        trace_spans = [
            sp.to_doc() for sp in machine.obs.tracer.spans if sp.trace_id
        ]

    restarts = (
        pipeline.supervisor.restarts if pipeline.supervisor is not None else 0
    )
    report = DeviceReport(
        spec=spec,
        summary=summary,
        relay=relay,
        registry=metrics,
        world_switches=machine.cpu.switch_count,
        energy_mj=energy_mj,
        battery_days=battery.days,
        restarts=restarts,
        client_restarts=client_restarts,
        freq_hz=machine.clock.freq_hz,
        clock_now=machine.clock.now,
        heartbeats=span_heartbeats(machine.obs.tracer.spans),
        trace_spans=trace_spans,
    )
    return DeviceRuntime(
        report=report,
        machine=machine,
        platform=platform,
        ta_uuid=pipeline.ta_uuid,
    )


@dataclass
class FleetReport:
    """Per-device rows plus the merged fleet-wide aggregates."""

    seed: int
    devices: list[DeviceReport] = field(default_factory=list)

    @property
    def latency_hist(self) -> BucketHistogram:
        """All devices' end-to-end latencies, merged.

        The empty-fleet reduction folds from an explicit empty histogram
        — an empty device list yields an empty histogram, not a
        ``TypeError`` from an initializer-less ``reduce``.
        """
        return reduce(
            BucketHistogram.merge,
            (d.latency_hist for d in self.devices),
            BucketHistogram(LATENCY_METRIC),
        )

    def merged_registry(self) -> MetricsRegistry:
        """Every device registry folded into one fleet registry."""
        merged = MetricsRegistry()
        for device in self.devices:
            merged.merge(device.registry)
        return merged

    @property
    def freq_hz(self) -> float:
        """The fleet's clock frequency (for cycle→ms rendering).

        Every roster device shares the default machine config today; the
        first device's frequency stands for the fleet, falling back to
        the simulator default for an empty report.
        """
        return self.devices[0].freq_hz if self.devices else DEFAULT_FREQ_HZ

    @property
    def relay_success_rate(self) -> float:
        """Fleet-wide immediate-delivery rate over forwarded decisions."""
        forwarded = sum(d.summary["forwarded"] for d in self.devices)
        sent = sum(d.summary["sent"] for d in self.devices)
        return sent / forwarded if forwarded else 1.0

    @property
    def queue_depth(self) -> int:
        """Store-and-forward backlog across the fleet."""
        return sum(d.relay.get("queue_depth", 0) for d in self.devices)

    @property
    def throttled(self) -> int:
        """Decisions spilled under cloud admission backpressure."""
        return sum(d.summary.get("throttled", 0) for d in self.devices)

    @property
    def shed(self) -> int:
        """Decisions refused fail-closed by bounded queues (accounted)."""
        return sum(d.summary.get("shed", 0) for d in self.devices)

    @property
    def restarts(self) -> int:
        """TA restarts across the fleet (chaos runs)."""
        return sum(d.restarts for d in self.devices)

    @property
    def client_restarts(self) -> int:
        """Client application crash/restart cycles across the fleet."""
        return sum(d.client_restarts for d in self.devices)

    @property
    def degraded(self) -> int:
        """Fail-closed (degraded) utterances across the fleet."""
        return sum(d.summary["degraded"] for d in self.devices)

    def to_doc(self) -> dict[str, Any]:
        """JSON document for ``benchmarks/results/fleet.json``."""
        hist = self.latency_hist
        return {
            "seed": self.seed,
            "devices": [d.to_doc() for d in self.devices],
            "fleet": {
                "devices": len(self.devices),
                "utterances": sum(
                    d.summary["utterances"] for d in self.devices
                ),
                "latency_p50_cycles": hist.p50,
                "latency_p95_cycles": hist.p95,
                "latency_p99_cycles": hist.p99,
                "latency_hist": hist.to_doc(),
                "relay_success_rate": self.relay_success_rate,
                "queue_depth": self.queue_depth,
                "throttled": self.throttled,
                "shed": self.shed,
                "restarts": self.restarts,
                "degraded": self.degraded,
                "client_restarts": self.client_restarts,
                "world_switches": sum(d.world_switches for d in self.devices),
                "energy_mj": sum(d.energy_mj for d in self.devices),
                "battery_days_min": min(
                    (d.battery_days for d in self.devices), default=0.0
                ),
            },
        }

    def table(self) -> str:
        """Human-readable fleet report (``repro fleet``)."""
        lines = [
            f"{'device':8s} {'profile':>10s} {'utt':>4s} {'fwd':>4s} "
            f"{'sent':>5s} {'queued':>6s} {'p50 ms':>7s} {'p95 ms':>7s} "
            f"{'switches':>8s} {'mJ':>8s} {'days':>7s}"
        ]
        for d in self.devices:
            lines.append(
                f"{d.spec.device_id:8s} {d.spec.fault_profile:>10s} "
                f"{d.summary['utterances']:>4d} {d.summary['forwarded']:>4d} "
                f"{d.summary['sent']:>5d} {d.summary['queued']:>6d} "
                f"{cycles_to_ms(d.latency_hist.p50, d.freq_hz):>7.2f} "
                f"{cycles_to_ms(d.latency_hist.p95, d.freq_hz):>7.2f} "
                f"{d.world_switches:>8d} {d.energy_mj:>8.1f} "
                f"{d.battery_days:>7.1f}"
            )
        hist = self.latency_hist
        freq = self.freq_hz
        lines.append("")
        lines.append(
            f"fleet    p50 {cycles_to_ms(hist.p50, freq):.2f} ms   "
            f"p95 {cycles_to_ms(hist.p95, freq):.2f} ms   "
            f"p99 {cycles_to_ms(hist.p99, freq):.2f} ms   "
            f"relay success {self.relay_success_rate:.0%}   "
            f"queue depth {self.queue_depth}"
        )
        if any(d.spec.secure_fault_profile != "none" for d in self.devices):
            lines.append(
                f"chaos    restarts {self.restarts}   "
                f"degraded {self.degraded}"
            )
        if self.throttled or self.shed or self.client_restarts:
            lines.append(
                f"ingest   throttled {self.throttled}   shed {self.shed}   "
                f"client restarts {self.client_restarts}"
            )
        return "\n".join(lines)


def run_fleet(
    devices: int = 8,
    seed: int = 7,
    utterances: int = 6,
    bundle=None,
    chaos: bool = False,
    overload: bool = False,
    client_crashes: bool = False,
    collect_traces: bool = False,
) -> FleetReport:
    """Simulate the fleet and return the merged report.

    One bundle is trained from ``seed`` and shared by every device (the
    fleet ships one model); pass a pre-provisioned ``bundle`` to skip
    training.  ``chaos=True`` injects secure-world faults on every
    device and runs the TAs supervised.  ``overload=True`` starves every
    device's cloud admission tier so throttling (and, at bounded queue
    depth, fail-closed shedding) actually happens; ``client_crashes=True``
    adds normal-world client crash/restart chaos recovered through the
    TA's sealed state.  ``collect_traces`` keeps each device's
    trace-stamped spans (see :func:`simulate_device_runtime`).
    """
    if bundle is None:
        from repro.provision import provision_bundle

        bundle = provision_bundle(seed=seed).bundle

    specs = device_specs(
        devices, seed=seed, utterances=utterances, chaos=chaos,
        overload=overload, client_crashes=client_crashes,
    )
    report = FleetReport(seed=seed)
    for spec in specs:
        report.devices.append(
            simulate_device_runtime(
                spec, bundle, collect_traces=collect_traces
            ).report
        )
    return report
