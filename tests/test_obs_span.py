"""Unit tests: span tracing (nesting, attribution, events, export)."""

import json

import pytest

from repro.obs.health import FlightRecorder, span_heartbeats
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import SpanTracer
from repro.sim.clock import CycleDomain, SimClock


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def tracer(clock):
    return SpanTracer(clock)


class TestNesting:
    def test_parent_child_links(self, clock, tracer):
        with tracer.span("outer", "pipeline") as outer:
            clock.advance(10, CycleDomain.SECURE_CPU)
            with tracer.span("inner", "stage") as inner:
                clock.advance(5, CycleDomain.SECURE_CPU)
        assert inner.parent_id == outer.id
        assert outer.parent_id is None
        assert inner.cycles == 5
        assert outer.cycles == 15

    def test_siblings_share_parent(self, clock, tracer):
        with tracer.span("outer", "pipeline") as outer:
            with tracer.span("a", "stage") as a:
                clock.advance(1, CycleDomain.SECURE_CPU)
            with tracer.span("b", "stage") as b:
                clock.advance(1, CycleDomain.SECURE_CPU)
        assert a.parent_id == b.parent_id == outer.id

    def test_exception_unwind_keeps_stack_consistent(self, clock, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("outer", "pipeline"):
                with tracer.span("inner", "stage"):
                    raise RuntimeError("boom")
        # A later span must parent at top level again, not under a ghost.
        with tracer.span("after", "stage") as after:
            pass
        assert after.parent_id is None


class TestAttribution:
    def test_domain_cycles_sum_to_span_cycles(self, clock, tracer):
        with tracer.span("work", "stage") as sp:
            clock.advance(100, CycleDomain.SECURE_CPU)
            clock.advance(40, CycleDomain.MONITOR)
            clock.advance(60, CycleDomain.PERIPHERAL)
        assert sp.cycles == 200
        assert sum(sp.domain_cycles.values()) == sp.cycles
        assert sp.domain_cycles[CycleDomain.MONITOR] == 40

    def test_zero_domains_are_omitted(self, clock, tracer):
        with tracer.span("work", "stage") as sp:
            clock.advance(10, CycleDomain.SECURE_CPU)
        assert CycleDomain.NORMAL_CPU not in sp.domain_cycles

    def test_attrs_kept(self, clock, tracer):
        with tracer.span("asr", "stage", samples=2400) as sp:
            pass
        assert sp.attrs == {"samples": 2400}

    def test_measures_while_retention_disabled(self, clock, tracer):
        # The TA's stage accounting reads span durations, so disabling
        # observability must not stop spans from measuring.
        tracer.enabled = False
        with tracer.span("work", "stage") as sp:
            clock.advance(10, CycleDomain.SECURE_CPU)
        assert sp.cycles == 10
        assert tracer.spans == []


class TestCapacity:
    @pytest.mark.parametrize("capacity", [1, 2, 3, 10])
    def test_bound_holds(self, clock, capacity):
        tracer = SpanTracer(clock, capacity=capacity)
        for i in range(25):
            with tracer.span(f"s{i}", "stage"):
                clock.advance(1, CycleDomain.SECURE_CPU)
            assert len(tracer.spans) <= capacity
        assert tracer.spans[-1].name == "s24"
        assert tracer.dropped_spans == 25 - len(tracer.spans)

    def test_zero_capacity_rejected(self, clock):
        with pytest.raises(ValueError):
            SpanTracer(clock, capacity=0)


class TestIntegrations:
    def test_feeds_metrics(self, clock):
        metrics = MetricsRegistry()
        tracer = SpanTracer(clock, metrics=metrics)
        for _ in range(3):
            with tracer.span("asr", "stage.secure"):
                clock.advance(100, CycleDomain.SECURE_CPU)
        assert metrics.counter("stage.secure.asr.count").value == 3
        hist = metrics.histogram("stage.secure.asr.cycles")
        assert hist.count == 3 and hist.p50 == 100


class TestEvents:
    def test_event_is_zero_length_span_under_open_span(self, clock, tracer):
        clock.advance(7, CycleDomain.SECURE_CPU)
        with tracer.span("relay", "stage.secure") as relay:
            clock.advance(3, CycleDomain.SECURE_CPU)
            tracer.emit("optee.ta.filter", "relay_throttled", attempt=1)
        tracer.emit("tz.fault", "secure_access_violation")
        throttled, closed, fault = tracer.spans
        assert (throttled.start_cycle, throttled.end_cycle) == (10, 10)
        assert throttled.cycles == 0 and throttled.domain_cycles == {}
        assert throttled.parent_id == relay.id
        assert throttled.attrs == {"attempt": 1}
        assert closed is relay
        assert fault.parent_id is None

    def test_event_skips_metrics_and_heartbeats_but_reaches_recorder(
        self, clock
    ):
        metrics = MetricsRegistry()
        tracer = SpanTracer(clock, metrics=metrics)
        recorder = FlightRecorder(capacity=8)
        tracer.attach_recorder(recorder)
        with tracer.span("asr", "stage.secure"):
            clock.advance(5, CycleDomain.SECURE_CPU)
        registry_before = metrics.to_doc()
        heartbeats_before = span_heartbeats(tracer.spans)
        clock.advance(100, CycleDomain.SECURE_CPU)
        tracer.emit("optee.os", "boot")
        tracer.emit("stage.secure", "marker")
        assert metrics.to_doc() == registry_before
        assert span_heartbeats(tracer.spans) == heartbeats_before
        assert [s.name for s in recorder.spans()] == ["asr", "boot", "marker"]
        # Disabled: the recorder still sees the event, retention does not.
        tracer.enabled = False
        tracer.emit("optee.os", "ta_panic", ta="filter")
        assert [s.name for s in tracer.spans_in("optee.os")] == ["boot"]
        assert recorder.spans()[-1].name == "ta_panic"


class TestExport:
    def _run(self, clock, tracer):
        with tracer.span("utterance", "pipeline.secure", index=0):
            with tracer.span("asr", "stage.secure", samples=800):
                clock.advance(100, CycleDomain.SECURE_CPU)
            with tracer.span("relay", "stage.secure"):
                clock.advance(20, CycleDomain.MONITOR)
                clock.advance(30, CycleDomain.NORMAL_CPU)

    def test_jsonl_round_trip(self, clock, tracer):
        self._run(clock, tracer)
        docs = [json.loads(line) for line in tracer.to_jsonl().splitlines()]
        assert docs == [s.to_doc() for s in tracer.spans]
        # Domain keys are exported by their string value.
        relay = next(d for d in docs if d["name"] == "relay")
        assert relay["domains"] == {"monitor": 20, "normal_cpu": 30}

    def test_category_filter(self, clock, tracer):
        self._run(clock, tracer)
        assert {s.name for s in tracer.spans_in("stage.secure")} == {
            "asr", "relay",
        }
        assert {s.name for s in tracer.spans_in("pipeline")} == {"utterance"}
        # Prefix must not match substrings ("stage.secured" != "stage.secure").
        assert tracer.spans_in("stage.sec") == []

    def test_chrome_trace_is_valid(self, clock, tracer):
        self._run(clock, tracer)
        doc = json.loads(tracer.to_chrome_trace())
        events = doc["traceEvents"]
        assert len(events) == 3
        assert all(e["ph"] == "X" for e in events)
        asr = next(e for e in events if e["name"] == "asr")
        # ts/dur are microseconds at the simulated clock frequency.
        assert asr["dur"] == pytest.approx(100 * 1e6 / clock.freq_hz)
        assert asr["args"]["samples"] == 800
        assert doc["metadata"]["clock_freq_hz"] == clock.freq_hz
