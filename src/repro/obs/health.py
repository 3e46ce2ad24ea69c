"""SLO health evaluation, span watchdog and flight recorder.

This is the alerting tier on top of the metrics registry: declarative
:class:`SloRule` budgets (latency quantiles, relay success ratios, queue
depth, battery drain) evaluated by a :class:`HealthMonitor`, a span
watchdog (:func:`check_heartbeats`) that flags pipelines whose span
heartbeats have gone quiet, and a bounded :class:`FlightRecorder` ring
that preserves the last N spans so a firing rule dumps the run-up to the
violation as JSONL — the in-simulator equivalent of a crash dump
attached to a page.

Like the rest of ``repro.obs``, all of it is passive: rules read the
registry, the watchdog reads span heartbeats and a cycle count, and the
recorder copies spans the tracer already measured.  Nothing here charges
cycles or consumes randomness, so health monitoring on or off leaves
pipeline decisions byte-identical.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.span import Span

_OPS = ("<=", ">=")


@dataclass(frozen=True)
class SloRule:
    """One declarative budget against the metrics registry.

    The measured value is, in order of precedence: the ``quantile`` of
    the histogram ``metric``; the ratio ``metric / denominator`` of two
    counters (1.0 when the denominator is zero or absent — no traffic
    means no violation); else the counter or gauge named ``metric``.
    The rule holds when ``value <op> threshold``.

    Measurement never creates metrics in the registry it observes: a
    quantile/scalar rule whose metric does not exist measures ``None``
    and :meth:`evaluate` reports it as failing with ``missing=True``, so
    a typo'd metric name surfaces instead of silently reading 0.

    ``gate`` names a counter that must be non-zero for the rule to apply
    at all: when the gate counter is absent or zero the rule passes
    vacuously (``gated=True``).  This is how conditional budgets avoid
    the no-data failure — e.g. ``recovery_time`` is only meaningful on
    runs where ``tee.restarts`` actually happened.
    """

    name: str
    metric: str
    op: str
    threshold: float
    quantile: float | None = None
    denominator: str | None = None
    description: str = ""
    gate: str | None = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"op must be one of {_OPS}, got {self.op!r}")
        if self.quantile is not None and not 0.0 <= self.quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {self.quantile}")

    def measure(self, registry: MetricsRegistry) -> float | None:
        """The rule's current value under ``registry`` (None = no data)."""
        if self.quantile is not None:
            hist = registry.histograms().get(self.metric)
            return None if hist is None else hist.quantile(self.quantile)
        counters = registry.counters()
        if self.denominator is not None:
            den = counters.get(self.denominator, 0)
            if den == 0:
                return 1.0
            return counters.get(self.metric, 0) / den
        if self.metric in counters:
            return float(counters[self.metric])
        gauges = registry.gauges()
        if self.metric in gauges:
            return float(gauges[self.metric])
        return None

    def evaluate(self, registry: MetricsRegistry) -> "SloEvaluation":
        """Measure and judge the rule (a missing metric fails as no-data).

        A gated rule whose gate counter is absent or zero passes
        vacuously — the condition it budgets never occurred.
        """
        if (
            self.gate is not None
            and registry.counters().get(self.gate, 0) == 0
        ):
            return SloEvaluation(rule=self, value=0.0, ok=True, gated=True)
        value = self.measure(registry)
        if value is None:
            return SloEvaluation(rule=self, value=0.0, ok=False, missing=True)
        ok = value <= self.threshold if self.op == "<=" else value >= self.threshold
        return SloEvaluation(rule=self, value=value, ok=ok)


@dataclass(frozen=True)
class SloEvaluation:
    """One rule's verdict (``missing`` = metric absent, not a budget miss)."""

    rule: SloRule
    value: float
    ok: bool
    missing: bool = False
    gated: bool = False

    def to_doc(self) -> dict[str, Any]:
        """JSON-ready row for health reports."""
        return {
            "rule": self.rule.name,
            "metric": self.rule.metric,
            "op": self.rule.op,
            "threshold": self.rule.threshold,
            "value": self.value,
            "ok": self.ok,
            "missing": self.missing,
            "gated": self.gated,
        }


def default_slo_rules(
    latency_budget_cycles: float = 2.0e9,  # 1 s at the 2 GHz sim clock
    relay_success_min: float = 0.9,
    max_queue_depth: int = 4,
    battery_drain_max_mj: float = 2_000.0,
    recovery_budget_cycles: float = 1.0e8,  # 50 ms at the 2 GHz sim clock
    shed_rate_max: float = 0.5,
    admission_p99_max_cycles: float = 50_000.0,
) -> list[SloRule]:
    """The stock fleet SLOs over the ``fleet.*`` metric namespace.

    Plus one recovery budget over ``tee.*``: the ``recovery_time`` rule
    bounds p99 panic-to-recovered time and is gated on ``tee.restarts``,
    so runs without any TA restart pass it vacuously instead of failing
    with NO DATA.  The two ingestion rules are gated the same way:
    ``shed_rate`` only applies once a bounded queue actually shed
    (fail-closed loss is budgeted, never unbounded), and
    ``admission_latency`` only applies once the cloud accepted a record,
    so a run that forwarded nothing passes it vacuously.
    """
    return [
        SloRule(
            name="p99_latency",
            metric="fleet.e2e_latency_cycles",
            quantile=0.99,
            op="<=",
            threshold=latency_budget_cycles,
            description="p99 end-to-end utterance latency budget",
        ),
        SloRule(
            name="relay_success",
            metric="fleet.relay.sent",
            denominator="fleet.relay.forwarded",
            op=">=",
            threshold=relay_success_min,
            description="forwarded decisions delivered without queueing",
        ),
        SloRule(
            name="queue_depth",
            metric="fleet.relay.queue_depth",
            op="<=",
            threshold=float(max_queue_depth),
            description="store-and-forward backlog bound",
        ),
        # Histogram-backed (not a gauge): per-utterance values merge
        # distribution-exactly across devices, so the rule reads the same
        # on one registry or a fleet-merged one.
        SloRule(
            name="battery_drain",
            metric="fleet.e2e_energy_mj",
            quantile=0.99,
            op="<=",
            threshold=battery_drain_max_mj,
            description="p99 per-utterance energy (battery drain) budget",
        ),
        # Histogram-backed for the same merge-exactness reason; gated so
        # restart-free runs pass vacuously rather than failing NO DATA.
        SloRule(
            name="recovery_time",
            metric="tee.recovery_cycles",
            quantile=0.99,
            op="<=",
            threshold=recovery_budget_cycles,
            gate="tee.restarts",
            description="p99 TA panic-to-recovered time budget",
        ),
        # Shedding is deliberate, accounted loss under overload — but it
        # must stay a bounded fraction of forwarded decisions.  Gated on
        # the shed counter itself: no sheds, nothing to budget.
        SloRule(
            name="shed_rate",
            metric="fleet.relay.shed",
            denominator="fleet.relay.forwarded",
            op="<=",
            threshold=shed_rate_max,
            gate="fleet.relay.shed",
            description="fail-closed queue sheds per forwarded decision",
        ),
        # Histogram-backed admission decision latency at the cloud's
        # multi-tenant ingestion tier; gated so runs that forwarded
        # nothing pass vacuously rather than failing NO DATA.
        SloRule(
            name="admission_latency",
            metric="cloud.ingest.admission_cycles",
            quantile=0.99,
            op="<=",
            threshold=admission_p99_max_cycles,
            gate="cloud.ingest.accepted",
            description="p99 cloud admission decision latency budget",
        ),
    ]


@dataclass(frozen=True)
class WatchdogAlert:
    """A pipeline whose heartbeat went quiet."""

    category: str
    last_seen_cycle: int
    idle_cycles: int

    def to_doc(self) -> dict[str, Any]:
        """JSON-ready alert row."""
        return {
            "category": self.category,
            "last_seen_cycle": self.last_seen_cycle,
            "idle_cycles": self.idle_cycles,
        }


def span_heartbeats(spans) -> dict[str, int]:
    """Last heartbeat cycle per top-level span category.

    Each span counts as a heartbeat for its top-level category
    (``stage.secure`` beats ``stage``); the returned map is the newest
    ``end_cycle`` per track.  Zero-length spans are events, not work, so
    they beat nothing: a one-off boot event must not open a track the
    watchdog would later report as stalled.  This is the serializable
    essence of the watchdog's input: a fleet device report carries it
    so the watchdog can run without the live tracer.
    """
    last_end: dict[str, int] = {}
    for sp in spans:
        if sp.end_cycle == sp.start_cycle:
            continue
        track = sp.category.split(".")[0]
        last_end[track] = max(last_end.get(track, 0), sp.end_cycle)
    return last_end


def check_heartbeats(
    heartbeats: dict[str, int],
    now: int,
    stall_cycles: int = 10_000_000_000,
) -> list[WatchdogAlert]:
    """Stalled tracks in a heartbeat map as of cycle ``now``.

    The span watchdog: works on a serialized ``{track: last_end_cycle}``
    map (:func:`span_heartbeats`, carried by every fleet device report)
    rather than a live tracer.  A track whose newest span ended more than
    ``stall_cycles`` before ``now`` is stalled.  An *empty* map reports
    the sentinel ``(no spans)`` category so a dead pipeline cannot look
    healthy.
    """
    if stall_cycles <= 0:
        raise ValueError("stall_cycles must be positive")
    if not heartbeats:
        return [WatchdogAlert("(no spans)", 0, now)]
    return [
        WatchdogAlert(track, end, now - end)
        for track, end in sorted(heartbeats.items())
        if now - end > stall_cycles
    ]


class FlightRecorder:
    """Bounded ring of the most recent spans, dumped when a rule fires.

    The ring is fed by the tracer (``tracer.attach_recorder``) on every
    span close, independent of span *retention* — the recorder keeps
    working even when the tracer's own buffer is disabled or has evicted
    history, which is exactly when a post-incident dump matters.
    """

    def __init__(self, capacity: int = 256):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._ring: deque["Span"] = deque(maxlen=capacity)

    def record(self, span: "Span") -> None:
        """Append one closed span (oldest falls off when full)."""
        self._ring.append(span)

    def __len__(self) -> int:
        return len(self._ring)

    def spans(self) -> list["Span"]:
        """The retained window, oldest first."""
        return list(self._ring)

    def offending_trace(self) -> str:
        """The trace id of the worst trace-stamped span in the ring.

        "Worst" is the span with the most cycles (ties broken by later
        end cycle, then lexical trace id, so the choice is deterministic
        on any replay).  Returns ``""`` when no retained span carries a
        trace id.
        """
        best: tuple[tuple[int, int, str], str] | None = None
        for sp in self._ring:
            tid = sp.trace_id
            if not tid:
                continue
            key = (sp.cycles, sp.end_cycle, tid)
            if best is None or key > best[0]:
                best = (key, tid)
        return best[1] if best is not None else ""

    def dump_jsonl(self, trace_id: str | None = None) -> str:
        """The window as JSON Lines (same schema as span exports).

        With ``trace_id``, only spans stamped with that trace are dumped
        — the post-incident artifact is *the offending utterance's*
        device→relay→queue story, not everything the ring happened to
        hold.
        """
        import json

        spans = self._ring
        if trace_id:
            spans = [sp for sp in spans if sp.trace_id == trace_id]
        return "\n".join(
            json.dumps(sp.to_doc(), default=str) for sp in spans
        )


@dataclass
class HealthReport:
    """Every rule's verdict plus watchdog alerts and the dump."""

    evaluations: list[SloEvaluation] = field(default_factory=list)
    stalled: list[WatchdogAlert] = field(default_factory=list)
    flight_dump: str | None = None
    offending_trace: str = ""

    @property
    def violations(self) -> list[SloEvaluation]:
        """The rules that failed."""
        return [e for e in self.evaluations if not e.ok]

    @property
    def ok(self) -> bool:
        """True when every rule holds and nothing stalled."""
        return not self.violations and not self.stalled

    @property
    def exit_code(self) -> int:
        """The ``repro health`` process contract.

        ``1`` for a real problem — a measured rule violation or a
        watchdog stall; ``2`` when the only failures are NO DATA (a
        rule's metric was never recorded); ``0`` when everything holds.
        """
        real_violations = [e for e in self.violations if not e.missing]
        if real_violations or self.stalled:
            return 1
        if any(e.missing for e in self.evaluations):
            return 2
        return 0

    def to_doc(self) -> dict[str, Any]:
        """JSON-ready health document."""
        return {
            "ok": self.ok,
            "exit_code": self.exit_code,
            "rules": [e.to_doc() for e in self.evaluations],
            "stalled": [a.to_doc() for a in self.stalled],
            "offending_trace": self.offending_trace,
            "flight_recorder_spans": (
                len(self.flight_dump.splitlines()) if self.flight_dump else 0
            ),
        }

    def table(self) -> str:
        """Human-readable verdict table (``repro health``)."""
        lines = [
            f"{'rule':16s} {'value':>14s} {'budget':>14s} {'status':>8s}"
        ]
        for e in self.evaluations:
            if e.gated:
                status = "gated"
            else:
                status = "ok" if e.ok else ("NO DATA" if e.missing else "VIOLATED")
            lines.append(
                f"{e.rule.name:16s} {e.value:>14.3g} "
                f"{e.rule.op + ' ' + format(e.rule.threshold, '.3g'):>14s} "
                f"{status:>8s}"
            )
        for alert in self.stalled:
            lines.append(
                f"{'watchdog':16s} {alert.category:>14s} "
                f"{alert.idle_cycles:>14d} {'STALLED':>8s}"
            )
        if self.offending_trace:
            lines.append(f"offending trace: {self.offending_trace}")
        return "\n".join(lines)


class HealthMonitor:
    """Evaluates SLO rules and triggers the flight recorder.

    Wire it with the registry under observation, the rules, and
    optionally a recorder (for violation dumps) and a watchdog: a
    callable returning the stalled tracks, such as a device report's
    :meth:`~repro.obs.fleet.DeviceReport.stalled`.  :meth:`evaluate` is
    pure observation and can run at any cadence.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        rules: list[SloRule] | None = None,
        recorder: FlightRecorder | None = None,
        watchdog: Callable[[], list[WatchdogAlert]] | None = None,
    ):
        self.registry = registry
        self.rules = list(rules) if rules is not None else default_slo_rules()
        self.recorder = recorder
        self.watchdog = watchdog

    def evaluate(
        self, dump_path=None, trace_only: bool = False
    ) -> HealthReport:
        """Judge every rule; dump the flight recorder if anything fired.

        ``dump_path`` (a path-like) additionally writes the dump to disk,
        creating parent directories — the alerting hook a deployment
        would replace with its pager.  ``trace_only`` narrows the flight
        dump to the offending trace's spans when one can be identified.
        """
        report = HealthReport(
            evaluations=[rule.evaluate(self.registry) for rule in self.rules]
        )
        if self.watchdog is not None:
            report.stalled = self.watchdog()
        if not report.ok and self.recorder is not None:
            report.offending_trace = self.recorder.offending_trace()
            narrowed = (
                report.offending_trace
                if trace_only and report.offending_trace
                else None
            )
            report.flight_dump = self.recorder.dump_jsonl(trace_id=narrowed)
            if dump_path is not None:
                import pathlib

                path = pathlib.Path(dump_path)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(report.flight_dump + "\n")
        return report
