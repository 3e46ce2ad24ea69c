"""Unit + acceptance tests: SLO rules, watchdog, flight recorder.

The acceptance path (mirrors the issue's criterion): run a device with a
flight recorder attached, evaluate an impossible SLO, and check the
dumped JSONL contains the pipeline-stage spans that led up to the
violation.
"""

import json

import pytest

from repro.obs.health import (
    FlightRecorder,
    HealthMonitor,
    SloRule,
    check_heartbeats,
    default_slo_rules,
    span_heartbeats,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import SpanTracer
from repro.sim.clock import CycleDomain, SimClock


class TestSloRule:
    def test_counter_resolution(self):
        reg = MetricsRegistry()
        reg.inc("errors", 3)
        rule = SloRule("errs", metric="errors", op="<=", threshold=5)
        ev = rule.evaluate(reg)
        assert ev.value == 3 and ev.ok

    def test_gauge_resolution_when_no_counter(self):
        reg = MetricsRegistry()
        reg.set("depth", 7)
        rule = SloRule("depth", metric="depth", op="<=", threshold=4)
        ev = rule.evaluate(reg)
        assert ev.value == 7 and not ev.ok

    def test_quantile_resolution(self):
        reg = MetricsRegistry()
        for v in range(1, 101):
            reg.observe("lat", v)
        rule = SloRule("p99", metric="lat", quantile=0.99, op="<=",
                       threshold=50)
        ev = rule.evaluate(reg)
        assert ev.value >= 99 and not ev.ok

    def test_ratio_resolution(self):
        reg = MetricsRegistry()
        reg.inc("sent", 9)
        reg.inc("forwarded", 10)
        rule = SloRule("success", metric="sent", denominator="forwarded",
                       op=">=", threshold=0.9)
        ev = rule.evaluate(reg)
        assert ev.value == pytest.approx(0.9) and ev.ok

    def test_zero_denominator_means_no_violation(self):
        rule = SloRule("success", metric="sent", denominator="forwarded",
                       op=">=", threshold=0.9)
        assert rule.measure(MetricsRegistry()) == 1.0

    def test_missing_metric_is_no_data_not_zero(self):
        reg = MetricsRegistry()
        rule = SloRule("typo", metric="no.such.metric", op="<=", threshold=5)
        assert rule.measure(reg) is None
        ev = rule.evaluate(reg)
        assert not ev.ok and ev.missing
        assert ev.to_doc()["missing"] is True

    def test_missing_histogram_is_no_data(self):
        reg = MetricsRegistry()
        rule = SloRule("typo", metric="no.such.hist", quantile=0.99,
                       op="<=", threshold=5)
        assert rule.measure(reg) is None
        assert rule.evaluate(reg).missing

    def test_measure_never_creates_metrics(self):
        reg = MetricsRegistry()
        SloRule("g", metric="ghost", op="<=", threshold=1).evaluate(reg)
        SloRule("h", metric="ghost.h", quantile=0.5, op="<=",
                threshold=1).evaluate(reg)
        SloRule("r", metric="ghost.n", denominator="ghost.d", op=">=",
                threshold=0.9).evaluate(reg)
        assert reg.counters() == {}
        assert reg.gauges() == {}
        assert reg.histograms() == {}

    def test_battery_drain_rule_is_histogram_backed(self):
        # An intensive gauge would sum to devices-times the true value
        # under registry merge; the stock rule reads the mergeable
        # per-utterance energy histogram instead.
        rule = next(r for r in default_slo_rules()
                    if r.name == "battery_drain")
        assert rule.metric == "fleet.e2e_energy_mj"
        assert rule.quantile is not None
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg in (a, b):
            for _ in range(10):
                reg.observe("fleet.e2e_energy_mj", 100.0)
        a.merge(b)
        assert rule.evaluate(a).value == pytest.approx(100.0)

    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            SloRule("r", metric="m", op="<", threshold=1)

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            SloRule("r", metric="m", op="<=", threshold=1, quantile=1.5)

    def test_default_rules_cover_the_fleet_namespace(self):
        rules = default_slo_rules()
        assert {r.name for r in rules} == {
            "p99_latency", "relay_success", "queue_depth", "battery_drain",
            "recovery_time", "shed_rate", "admission_latency",
        }
        # Fleet rules read fleet.*; the recovery budget reads the tee.*
        # namespace and the admission budget the cloud.* namespace, each
        # gated on its condition actually having happened.
        for r in rules:
            if r.name == "recovery_time":
                assert r.metric.startswith("tee.")
                assert r.gate == "tee.restarts"
            elif r.name == "admission_latency":
                assert r.metric.startswith("cloud.")
                assert r.gate == "cloud.ingest.accepted"
            elif r.name == "shed_rate":
                assert r.metric.startswith("fleet.")
                assert r.gate == "fleet.relay.shed"
            else:
                assert r.metric.startswith("fleet.")
                assert r.gate is None


class TestWatchdog:
    def _tracer_with_span(self, clock):
        tracer = SpanTracer(clock)
        with tracer.span("asr", "stage.secure"):
            clock.advance(100, CycleDomain.SECURE_CPU)
        return tracer

    def test_fresh_heartbeat_is_quiet(self):
        clock = SimClock()
        tracer = self._tracer_with_span(clock)
        beats = span_heartbeats(tracer.spans)
        assert check_heartbeats(beats, clock.now, stall_cycles=1_000) == []

    def test_stalled_category_flagged(self):
        clock = SimClock()
        tracer = self._tracer_with_span(clock)
        clock.advance(5_000, CycleDomain.NORMAL_CPU)
        beats = span_heartbeats(tracer.spans)
        alerts = check_heartbeats(beats, clock.now, stall_cycles=1_000)
        assert [a.category for a in alerts] == ["stage"]
        assert alerts[0].idle_cycles == 5_000
        assert alerts[0].last_seen_cycle == 100

    def test_empty_tracer_reports_sentinel(self):
        alerts = check_heartbeats({}, 700)
        assert [a.category for a in alerts] == ["(no spans)"]
        assert alerts[0].idle_cycles == 700

    def test_nonpositive_stall_rejected(self):
        with pytest.raises(ValueError):
            check_heartbeats({}, 0, stall_cycles=0)


class TestFlightRecorder:
    def _closed_spans(self, n):
        clock = SimClock()
        tracer = SpanTracer(clock)
        for i in range(n):
            with tracer.span(f"s{i}", "stage.secure"):
                clock.advance(10, CycleDomain.SECURE_CPU)
        return tracer.spans

    def test_ring_keeps_only_the_newest(self):
        rec = FlightRecorder(capacity=3)
        for sp in self._closed_spans(5):
            rec.record(sp)
        assert len(rec) == 3
        assert [sp.name for sp in rec.spans()] == ["s2", "s3", "s4"]

    def test_records_even_when_retention_disabled(self):
        clock = SimClock()
        tracer = SpanTracer(clock)
        tracer.enabled = False
        rec = FlightRecorder()
        tracer.attach_recorder(rec)
        with tracer.span("asr", "stage.secure"):
            clock.advance(10, CycleDomain.SECURE_CPU)
        assert tracer.spans == []  # retention off...
        assert len(rec) == 1      # ...but the black box still saw it.

    def test_dump_is_span_schema_jsonl(self):
        rec = FlightRecorder()
        for sp in self._closed_spans(2):
            rec.record(sp)
        docs = [json.loads(line) for line in rec.dump_jsonl().splitlines()]
        assert [d["name"] for d in docs] == ["s0", "s1"]
        assert all(d["category"] == "stage.secure" for d in docs)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestHealthMonitor:
    def test_all_green(self):
        reg = MetricsRegistry()
        reg.inc("errors", 0)
        rules = [SloRule("errs", metric="errors", op="<=", threshold=1)]
        report = HealthMonitor(reg, rules).evaluate()
        assert report.ok and report.violations == []
        assert report.to_doc()["ok"] is True

    def test_violation_without_recorder_has_no_dump(self):
        reg = MetricsRegistry()
        reg.inc("errors", 9)
        rules = [SloRule("errs", metric="errors", op="<=", threshold=1)]
        report = HealthMonitor(reg, rules).evaluate()
        assert not report.ok
        assert report.flight_dump is None

    def test_violation_triggers_dump_and_file(self, tmp_path):
        clock = SimClock()
        tracer = SpanTracer(clock)
        rec = FlightRecorder()
        tracer.attach_recorder(rec)
        with tracer.span("asr", "stage.secure"):
            clock.advance(10, CycleDomain.SECURE_CPU)
        reg = MetricsRegistry()
        reg.inc("errors", 9)
        rules = [SloRule("errs", metric="errors", op="<=", threshold=1)]
        dump = tmp_path / "alerts" / "flight.jsonl"
        report = HealthMonitor(reg, rules, recorder=rec).evaluate(
            dump_path=dump
        )
        assert not report.ok
        assert report.flight_dump is not None
        assert dump.exists()
        assert json.loads(dump.read_text().splitlines()[0])["name"] == "asr"

    def test_table_marks_violations(self):
        reg = MetricsRegistry()
        reg.inc("errors", 9)
        rules = [SloRule("errs", metric="errors", op="<=", threshold=1)]
        assert "VIOLATED" in HealthMonitor(reg, rules).evaluate().table()

    def test_table_marks_missing_metrics_as_no_data(self):
        rules = [SloRule("typo", metric="no.such", op="<=", threshold=1)]
        report = HealthMonitor(MetricsRegistry(), rules).evaluate()
        assert not report.ok
        assert "NO DATA" in report.table()

    def test_watchdog_stall_fails_health(self):
        clock = SimClock()
        tracer = SpanTracer(clock)
        report = HealthMonitor(
            MetricsRegistry(), rules=[],
            watchdog=lambda: check_heartbeats(
                span_heartbeats(tracer.spans), clock.now
            ),
        ).evaluate()
        assert not report.ok
        assert "STALLED" in report.table()


class TestExitCode:
    """``repro health``'s contract: 0 ok, 1 violation or stall, 2 NO DATA."""

    HOLDS = SloRule("holds", metric="errors", op="<=", threshold=1)
    VIOLATED = SloRule("violated", metric="errors", op=">=", threshold=5)
    MISSING = SloRule("typo", metric="no.such", op="<=", threshold=1)

    @staticmethod
    def _exit_code(rules, watchdog=None):
        reg = MetricsRegistry()
        reg.inc("errors", 0)
        return HealthMonitor(reg, rules, watchdog=watchdog).evaluate().exit_code

    def test_every_rule_holds_exits_0(self):
        assert self._exit_code([self.HOLDS]) == 0

    def test_measured_violation_exits_1(self):
        assert self._exit_code([self.HOLDS, self.VIOLATED]) == 1

    def test_stall_exits_1(self):
        def stalled():
            return check_heartbeats({}, now=100)

        assert self._exit_code([self.HOLDS], watchdog=stalled) == 1

    def test_only_missing_metrics_exit_2(self):
        assert self._exit_code([self.HOLDS, self.MISSING]) == 2

    def test_missing_metric_with_violation_exits_1(self):
        assert self._exit_code([self.MISSING, self.VIOLATED]) == 1


class TestAcceptanceFlightRecorderOnSloViolation:
    """Issue criterion: a violated SLO dumps the spans leading up to it."""

    def test_violation_dumps_pipeline_run_up(self, provisioned, tmp_path):
        from repro.obs.fleet import DeviceSpec, simulate_device_runtime

        spec = DeviceSpec(
            device_id="dut", seed=123, utterances=3,
            sensitive_fraction=0.5, fault_profile="clean",
        )
        rec = FlightRecorder(capacity=64)
        runtime = simulate_device_runtime(
            spec, provisioned.bundle, recorder=rec
        )
        device = runtime.report

        # An impossible latency budget: 1 cycle for p99.
        monitor = HealthMonitor(
            device.registry,
            rules=default_slo_rules(latency_budget_cycles=1.0),
            recorder=rec,
            watchdog=device.stalled,
        )
        dump = tmp_path / "flight.jsonl"
        report = monitor.evaluate(dump_path=dump)

        assert not report.ok
        assert [e.rule.name for e in report.violations] == ["p99_latency"]
        # The dump holds the run-up: the secure pipeline's stage spans.
        docs = [json.loads(line) for line in dump.read_text().splitlines()]
        names = {d["name"] for d in docs}
        assert {"capture", "asr", "classify", "relay"} <= names
        assert all(d["end"] >= d["start"] for d in docs)
        # Nothing stalled — spans ended just before evaluation.
        assert report.stalled == []
