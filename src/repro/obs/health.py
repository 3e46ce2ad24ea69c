"""SLO health evaluation, burn rates, span watchdog and flight recorder.

This is the alerting tier on top of the metrics registry: declarative
:class:`SloRule` budgets (latency quantiles, relay success ratios, queue
depth, battery drain) evaluated by a :class:`HealthMonitor`, a span
watchdog (:func:`check_heartbeats`) that flags pipelines whose span
heartbeats have gone quiet, and a bounded :class:`FlightRecorder` ring
that preserves the last N spans so a firing rule dumps the run-up to the
violation as JSONL — the in-simulator equivalent of a crash dump
attached to a page.

Beyond point-in-time rule checks, rules that declare an *error budget*
(``budget_per_hour``) are evaluated as SRE-style multi-window burn rates
(:func:`evaluate_burn_rates`): bad events are counted from snapshot-ring
*deltas* — not lifetime totals — over a slow window and a 12×-faster
window, and the budget only "burns" when both windows exceed the factor.
Because the ring merges associatively (see
:func:`repro.obs.metrics.merge_snapshot_rings`), the same evaluation on a
merged sharded fleet report is byte-identical to the sequential run.

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

from repro.obs.metrics import MetricsRegistry, RegistrySnapshot
from repro.sim.clock import DEFAULT_FREQ_HZ

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.span import Span

_OPS = ("<=", ">=")

_SECONDS_PER_HOUR = 3600.0

#: Fast-window divisor for multi-window burn alerts: the classic SRE
#: pairing is a 1 h slow window with a 5 min fast window (12:1), so the
#: fast window is always ``window_hours / 12``.
FAST_WINDOW_DIVISOR = 12.0


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

    ``budget_per_hour`` opts the rule into burn-rate evaluation: it is
    the number of *bad events* the rule tolerates per simulated hour
    (observations past a quantile threshold, or failed events of a
    ratio/counter rule).  Rules without a budget — and gauge rules,
    whose values are not event streams — are skipped by
    :func:`evaluate_burn_rates`.
    """

    name: str
    metric: str
    op: str
    threshold: float
    quantile: float | None = None
    denominator: str | None = None
    description: str = ""
    gate: str | None = None
    budget_per_hour: float | None = None

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"op must be one of {_OPS}, got {self.op!r}")
        if self.quantile is not None and not 0.0 <= self.quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {self.quantile}")
        if self.budget_per_hour is not None and self.budget_per_hour <= 0:
            raise ValueError(
                f"budget_per_hour must be positive, got {self.budget_per_hour}"
            )

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
            budget_per_hour=60.0,
        ),
        SloRule(
            name="relay_success",
            metric="fleet.relay.sent",
            denominator="fleet.relay.forwarded",
            op=">=",
            threshold=relay_success_min,
            description="forwarded decisions delivered without queueing",
            budget_per_hour=60.0,
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
            budget_per_hour=60.0,
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
class BurnRateEvaluation:
    """One budgeted rule's multi-window burn verdict.

    ``burn_slow``/``burn_fast`` are the observed bad-event rate divided
    by the budgeted rate over the slow window and the 12×-faster window;
    a burn of 1.0 means the budget is being consumed exactly as fast as
    it refills.  ``firing`` requires *both* windows past the factor —
    the fast window confirms the problem is still happening, the slow
    window that it is material.  ``no_data`` means the snapshot ring had
    no usable window for the rule's metric (too few snapshots, or the
    metric never appeared).
    """

    rule: SloRule
    window_hours: float
    fast_window_hours: float
    bad_slow: int = 0
    bad_fast: int = 0
    burn_slow: float = 0.0
    burn_fast: float = 0.0
    firing: bool = False
    no_data: bool = False

    def to_doc(self) -> dict[str, Any]:
        """JSON-ready row for health reports."""
        return {
            "rule": self.rule.name,
            "metric": self.rule.metric,
            "budget_per_hour": self.rule.budget_per_hour,
            "window_hours": self.window_hours,
            "fast_window_hours": self.fast_window_hours,
            "bad_slow": self.bad_slow,
            "bad_fast": self.bad_fast,
            "burn_slow": self.burn_slow,
            "burn_fast": self.burn_fast,
            "firing": self.firing,
            "no_data": self.no_data,
        }


def _bad_events(rule: SloRule, delta: RegistrySnapshot) -> int | None:
    """Bad events for ``rule`` inside a snapshot delta (None = no data).

    Quantile rules count observations in wholly-violating histogram
    buckets — bucket ``idx`` spans ``(gamma**(idx-1), gamma**idx]``, so
    under ``<=`` a bucket is bad iff its lower bound already exceeds the
    threshold (a conservative, merge-stable count).  Ratio rules count
    failed events from the counter deltas; plain counters count their
    own increments.  Gauge rules have no event stream and return None.
    """
    if rule.quantile is not None:
        state = delta.hists.get(rule.metric)
        if state is None:
            return None
        gamma = state["gamma"]
        bad = 0
        if rule.op == "<=":
            for idx, n in state["buckets"].items():
                if gamma ** (idx - 1) >= rule.threshold:
                    bad += n
        else:
            if rule.threshold > 0.0:
                bad += state["zero"]
            for idx, n in state["buckets"].items():
                if gamma ** idx < rule.threshold:
                    bad += n
        return bad
    if rule.denominator is not None:
        num = delta.counters.get(rule.metric)
        den = delta.counters.get(rule.denominator)
        if num is None and den is None:
            return None
        num = num or 0
        den = den or 0
        return max(den - num, 0) if rule.op == ">=" else num
    if rule.metric in delta.counters:
        return delta.counters[rule.metric] if rule.op == "<=" else None
    return None


def _window_start(
    snaps: list[RegistrySnapshot], horizon_cycle: int
) -> RegistrySnapshot:
    """Newest snapshot at/before ``horizon_cycle`` (oldest when none).

    Clamping to the oldest snapshot means short runs evaluate over the
    history they actually have instead of reporting NO DATA — the window
    is "up to W hours", never more.
    """
    start = snaps[0]
    for s in snaps:
        if s.cycle <= horizon_cycle:
            start = s
        else:
            break
    return start


def evaluate_burn_rates(
    registry: MetricsRegistry,
    rules: list[SloRule] | None = None,
    window_hours: float = 1.0,
    freq_hz: float = DEFAULT_FREQ_HZ,
    factor: float = 1.0,
) -> list[BurnRateEvaluation]:
    """Multi-window burn rates for every budgeted rule.

    For each rule with ``budget_per_hour`` set, bad events are counted
    over two windows of the registry's snapshot ring — ``window_hours``
    and ``window_hours / 12`` (the SRE 1 h / 5 min pairing) — and the
    rule fires when *both* windows burn past ``factor``.  Windows clamp
    to recorded history; elapsed time comes from the snapshots' actual
    cycle stamps, so the math is exact on any ring, including a merged
    sharded fleet ring (where it is byte-identical to the sequential
    run's).
    """
    if window_hours <= 0:
        raise ValueError(f"window_hours must be positive, got {window_hours}")
    if freq_hz <= 0:
        raise ValueError(f"freq_hz must be positive, got {freq_hz}")
    if rules is None:
        rules = default_slo_rules()
    budgeted = [r for r in rules if r.budget_per_hour is not None]
    snaps = registry.snapshots
    out: list[BurnRateEvaluation] = []
    fast_hours = window_hours / FAST_WINDOW_DIVISOR
    for rule in budgeted:
        windows: list[tuple[int, float] | None] = []
        for hours in (window_hours, fast_hours):
            result: tuple[int, float] | None = None
            if len(snaps) >= 2:
                end = snaps[-1]
                horizon = end.cycle - int(
                    hours * _SECONDS_PER_HOUR * freq_hz
                )
                start = _window_start(snaps, horizon)
                elapsed = end.cycle - start.cycle
                if elapsed > 0:
                    bad = _bad_events(rule, end.delta(start))
                    if bad is not None:
                        elapsed_hours = elapsed / (
                            _SECONDS_PER_HOUR * freq_hz
                        )
                        burn = (bad / elapsed_hours) / rule.budget_per_hour
                        result = (bad, burn)
            windows.append(result)
        slow, fast = windows
        if slow is None or fast is None:
            out.append(BurnRateEvaluation(
                rule=rule, window_hours=window_hours,
                fast_window_hours=fast_hours, no_data=True,
            ))
            continue
        out.append(BurnRateEvaluation(
            rule=rule,
            window_hours=window_hours,
            fast_window_hours=fast_hours,
            bad_slow=slow[0],
            bad_fast=fast[0],
            burn_slow=slow[1],
            burn_fast=fast[1],
            firing=slow[1] >= factor and fast[1] >= factor,
        ))
    return out


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
    across process boundaries so the watchdog can run without the live
    tracer.
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
    """Every rule's verdict plus burn rates, watchdog alerts and the dump."""

    evaluations: list[SloEvaluation] = field(default_factory=list)
    stalled: list[WatchdogAlert] = field(default_factory=list)
    flight_dump: str | None = None
    burn_rates: list[BurnRateEvaluation] = field(default_factory=list)
    offending_trace: str = ""

    @property
    def violations(self) -> list[SloEvaluation]:
        """The rules that failed."""
        return [e for e in self.evaluations if not e.ok]

    @property
    def ok(self) -> bool:
        """True when every rule holds, no budget burns, nothing stalled."""
        return (
            not self.violations
            and not self.stalled
            and not any(b.firing for b in self.burn_rates)
        )

    @property
    def exit_code(self) -> int:
        """The ``repro health`` process contract.

        ``1`` for a real problem — a measured rule violation, a firing
        burn rate, or a watchdog stall; ``2`` when the only failures are
        NO DATA (missing metrics, or burn windows with no usable
        snapshots); ``0`` when everything holds.
        """
        real_violations = [e for e in self.violations if not e.missing]
        if (
            real_violations
            or self.stalled
            or any(b.firing for b in self.burn_rates)
        ):
            return 1
        if (
            any(e.missing for e in self.evaluations)
            or any(b.no_data for b in self.burn_rates)
        ):
            return 2
        return 0

    def to_doc(self) -> dict[str, Any]:
        """JSON-ready health document."""
        return {
            "ok": self.ok,
            "exit_code": self.exit_code,
            "rules": [e.to_doc() for e in self.evaluations],
            "burn_rates": [b.to_doc() for b in self.burn_rates],
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
        for b in self.burn_rates:
            if b.no_data:
                status = "NO DATA"
            else:
                status = "BURNING" if b.firing else "ok"
            lines.append(
                f"{'burn:' + b.rule.name:16s} {b.burn_slow:>14.3g} "
                f"{b.burn_fast:>14.3g} {status:>8s}"
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
        self,
        dump_path=None,
        burn_window_hours: float | None = None,
        burn_factor: float = 1.0,
        trace_only: bool = False,
        freq_hz: float = DEFAULT_FREQ_HZ,
    ) -> HealthReport:
        """Judge every rule; dump the flight recorder if anything fired.

        ``dump_path`` (a path-like) additionally writes the dump to disk,
        creating parent directories — the alerting hook a deployment
        would replace with its pager.

        ``burn_window_hours`` additionally evaluates multi-window burn
        rates over the registry's snapshot ring (see
        :func:`evaluate_burn_rates`); a firing burn fails the report the
        same way a violated rule does.  ``trace_only`` narrows the
        flight dump to the offending trace's spans when one can be
        identified.
        """
        report = HealthReport(
            evaluations=[rule.evaluate(self.registry) for rule in self.rules]
        )
        if burn_window_hours is not None:
            report.burn_rates = evaluate_burn_rates(
                self.registry,
                self.rules,
                window_hours=burn_window_hours,
                freq_hz=freq_hz,
                factor=burn_factor,
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
