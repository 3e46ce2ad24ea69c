"""Per-stage cost profiling: secure vs baseline, from span data.

This is the measurement the paper defers ("we are yet to perform concrete
experiments"): a per-stage breakdown of where the secure path spends its
cycles and energy relative to the conventional baseline, in the style of
the secure-world cost tables of Fortress (Yuhala et al., 2023) and
Offline Model Guard (Bayerl et al., 2020).

:func:`collect_profile` runs both pipelines on the same workload (each on
its own freshly seeded platform), aggregates their ``stage.*`` spans into
:class:`StageRow` records with exact p50/p95/p99 cycle percentiles and
per-stage energy, and returns a :class:`ProfileReport` that renders as a
text table (``repro profile``) or a JSON document
(``benchmarks/results/profile.json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.metrics import BucketHistogram
from repro.obs.span import Span

# Fig. 1 order first, connection/transport sub-stages after.
STAGE_ORDER = (
    "capture", "vad", "asr", "classify", "filter", "relay",
    "tls_handshake", "tls_record", "relay_backoff", "supplicant_rpc",
)


@dataclass
class StageRow:
    """Aggregated cost of one pipeline stage across a run."""

    pipeline: str
    stage: str
    count: int
    total_cycles: int
    mean_cycles: float
    p50_cycles: float
    p95_cycles: float
    p99_cycles: float
    energy_mj: float
    world_switches: int

    def to_doc(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "pipeline": self.pipeline,
            "stage": self.stage,
            "count": self.count,
            "total_cycles": self.total_cycles,
            "mean_cycles": self.mean_cycles,
            "p50_cycles": self.p50_cycles,
            "p95_cycles": self.p95_cycles,
            "p99_cycles": self.p99_cycles,
            "energy_mj": self.energy_mj,
            "world_switches": self.world_switches,
        }


@dataclass
class ProfileReport:
    """The full secure-vs-baseline profile of one workload."""

    seed: int
    utterances: int
    mode: str
    stages: list[StageRow] = field(default_factory=list)
    pipelines: dict[str, dict[str, Any]] = field(default_factory=dict)

    def rows_for(self, pipeline: str) -> list[StageRow]:
        """Stage rows of one pipeline, in canonical stage order."""
        return [r for r in self.stages if r.pipeline == pipeline]

    def stage(self, pipeline: str, stage: str) -> StageRow | None:
        """One stage's row, or ``None`` if it never ran."""
        for row in self.stages:
            if row.pipeline == pipeline and row.stage == stage:
                return row
        return None

    def to_doc(self) -> dict[str, Any]:
        """JSON document for ``profile.json``."""
        return {
            "seed": self.seed,
            "utterances": self.utterances,
            "mode": self.mode,
            "stages": [r.to_doc() for r in self.stages],
            "pipelines": self.pipelines,
        }

    def table(self) -> str:
        """Human-readable per-stage table, one section per pipeline."""
        lines = []
        for name in sorted(self.pipelines):
            summary = self.pipelines[name]
            freq = summary.get("freq_hz", 2.0e9)
            lines.append(f"{name} pipeline "
                         f"({summary['total_cycles'] / freq * 1e3:.2f} ms "
                         f"simulated, {summary['energy_mj']:.1f} mJ, "
                         f"{summary['world_switches']} world switches)")
            lines.append(
                f"  {'stage':14s} {'count':>6s} {'total cycles':>13s} "
                f"{'p50':>11s} {'p95':>11s} {'energy mJ':>10s}"
            )
            for row in self.rows_for(name):
                lines.append(
                    f"  {row.stage:14s} {row.count:>6d} "
                    f"{row.total_cycles:>13d} {row.p50_cycles:>11.0f} "
                    f"{row.p95_cycles:>11.0f} {row.energy_mj:>10.2f}"
                )
            lines.append("")
        return "\n".join(lines).rstrip()


def _stage_key(stage: str) -> tuple[int, str]:
    try:
        return (STAGE_ORDER.index(stage), stage)
    except ValueError:
        return (len(STAGE_ORDER), stage)


def aggregate_stage_spans(
    spans: list[Span], pipeline: str
) -> list[StageRow]:
    """Collapse stage spans into per-stage rows with percentiles."""
    by_stage: dict[str, list[Span]] = {}
    for sp in spans:
        by_stage.setdefault(sp.name, []).append(sp)
    rows = []
    for stage in sorted(by_stage, key=_stage_key):
        group = by_stage[stage]
        hist = BucketHistogram(stage)
        for sp in group:
            hist.observe(sp.cycles)
        rows.append(
            StageRow(
                pipeline=pipeline,
                stage=stage,
                count=hist.count,
                total_cycles=int(hist.total),
                mean_cycles=hist.mean,
                p50_cycles=hist.p50,
                p95_cycles=hist.p95,
                p99_cycles=hist.p99,
                energy_mj=sum(sp.energy_mj for sp in group),
                world_switches=sum(sp.world_switches for sp in group),
            )
        )
    return rows


def profile_stage_rows(machine, pipeline: str) -> list[StageRow]:
    """Stage rows for one pipeline from its machine's retained spans.

    ``stage.<pipeline>`` spans become stages directly; top-level
    supplicant RPC spans (category ``rpc``) are folded into one
    ``supplicant_rpc`` pseudo-stage so the RPC round-trip cost the paper
    worries about shows up as its own line.
    """
    tracer = machine.obs.tracer
    spans = tracer.spans_in(f"stage.{pipeline}")
    rpc = [
        Span(
            id=sp.id, name="supplicant_rpc", category=sp.category,
            start_cycle=sp.start_cycle, end_cycle=sp.end_cycle,
            parent_id=sp.parent_id, domain_cycles=sp.domain_cycles,
            world_switches=sp.world_switches, energy_mj=sp.energy_mj,
            attrs=sp.attrs,
        )
        for sp in tracer.spans_in("rpc")
    ]
    return aggregate_stage_spans(spans + rpc, pipeline)


def collect_profile(
    seed: int = 7,
    utterances: int = 8,
    bundle=None,
    continuous: bool = False,
) -> ProfileReport:
    """Run secure and baseline pipelines and profile both.

    Each pipeline gets its own :class:`~repro.core.platform.IotPlatform`
    seeded identically, so the comparison differs only in the design under
    test.  Pass a pre-provisioned ``bundle`` to skip training (the
    benchmarks reuse their session fixture); otherwise one is trained from
    ``seed``.
    """
    from repro.core.baseline import BaselinePipeline
    from repro.core.pipeline import SecurePipeline
    from repro.core.platform import IotPlatform
    from repro.core.workload import UtteranceWorkload
    from repro.ml.dataset import UtteranceGenerator
    from repro.sim.rng import SimRng

    if bundle is None:
        from repro.provision import provision_bundle

        bundle = provision_bundle(seed=seed).bundle

    corpus = UtteranceGenerator(SimRng(seed, "profile")).generate(
        utterances, sensitive_fraction=0.5
    )
    workload = UtteranceWorkload.from_corpus(corpus, bundle.vocoder)

    report = ProfileReport(
        seed=seed,
        utterances=utterances,
        mode="continuous" if continuous else "batch",
    )
    for name in ("secure", "baseline"):
        platform = IotPlatform.create(seed=seed)
        if name == "secure":
            pipeline = SecurePipeline(platform, bundle)
        else:
            pipeline = BaselinePipeline(
                platform, bundle.asr, bundle=bundle, use_tls=True
            )
        try:
            if continuous and name == "secure":
                run = pipeline.process_continuous(workload)
            else:
                run = pipeline.process(workload)
        finally:
            pipeline.close()
        report.stages.extend(profile_stage_rows(platform.machine, name))
        machine = platform.machine
        report.pipelines[name] = {
            **run.summary(),
            "total_cycles": machine.clock.now,
            "freq_hz": machine.clock.freq_hz,
            "energy_mj": platform.energy.report().total_mj,
            "world_switches": machine.cpu.switch_count,
            "smc_calls": machine.monitor.smc_count,
            "supplicant_rpcs": platform.tee.rpc_count,
        }
    return report
