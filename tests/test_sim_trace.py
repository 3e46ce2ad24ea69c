"""Unit tests: simulation events (zero-length spans on the tracer)."""

import pytest

from repro.obs.span import SpanTracer
from repro.sim.clock import CycleDomain, SimClock


class Timeline:
    """A tracer plus its clock, for emitting events at chosen cycles."""

    def __init__(self, **kwargs):
        self.clock = SimClock()
        self.tracer = SpanTracer(self.clock, **kwargs)

    def emit_at(self, cycle: int, category: str, name: str, **attrs):
        self.clock.advance(cycle - self.clock.now, CycleDomain.SECURE_CPU)
        self.tracer.emit(category, name, **attrs)


class TestEmit:
    def test_emit_and_len(self):
        tracer = Timeline().tracer
        tracer.emit("tz.fault", "violation")
        tracer.emit("tz.gic", "deliver")
        assert len(tracer.spans) == 2

    def test_event_fields(self):
        timeline = Timeline()
        timeline.emit_at(42, "optee.os", "install_ta", ta="probe")
        event = timeline.tracer.spans_in()[0]
        assert event.start_cycle == event.end_cycle == 42
        assert event.category == "optee.os"
        assert event.name == "install_ta"
        assert event.attrs == {"ta": "probe"}


class TestFiltering:
    def _populated(self) -> SpanTracer:
        timeline = Timeline()
        timeline.emit_at(0, "tz.gic", "configure")
        timeline.emit_at(1, "tz.fault", "violation")
        timeline.emit_at(2, "tz.gic", "deliver")
        timeline.emit_at(3, "optee.ta.echo", "cmd")
        return timeline.tracer

    def test_prefix_filter(self):
        tracer = self._populated()
        assert len(tracer.spans_in("tz")) == 3
        assert len(tracer.spans_in("tz.gic")) == 2
        assert len(tracer.spans_in("optee")) == 1

    def test_prefix_does_not_match_substring(self):
        tracer = Timeline().tracer
        tracer.emit("tzx.other", "e")
        assert tracer.spans_in("tz") == []

    def test_count(self):
        assert len(self._populated().spans_in("tz.gic")) == 2

    def test_last(self):
        tracer = self._populated()
        assert tracer.spans_in("tz.gic")[-1].name == "deliver"
        assert tracer.spans_in("nothing") == []


class TestCapacity:
    def test_capacity_drops_oldest(self):
        timeline = Timeline(capacity=10)
        tracer = timeline.tracer
        for i in range(15):
            timeline.emit_at(i, "c", f"e{i}")
        assert len(tracer.spans) <= 10
        assert tracer.dropped_spans >= 5
        names = [e.name for e in tracer.spans]
        assert "e14" in names  # newest retained
        assert "e0" not in names  # oldest dropped

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Timeline(capacity=0)

    @pytest.mark.parametrize("capacity", [1, 2, 3, 7, 10])
    def test_bound_holds_for_every_capacity(self, capacity):
        # capacity=1 is the regression case: capacity // 2 == 0 used to
        # evict nothing, so retention grew without bound.
        timeline = Timeline(capacity=capacity)
        tracer = timeline.tracer
        for i in range(25):
            timeline.emit_at(i, "c", f"e{i}")
            assert len(tracer.spans) <= capacity
        assert tracer.spans_in("c")[-1].name == "e24"  # newest retained
        assert tracer.dropped_spans == 25 - len(tracer.spans)

    def test_capacity_one_keeps_latest(self):
        timeline = Timeline(capacity=1)
        tracer = timeline.tracer
        for i in range(5):
            timeline.emit_at(i, "c", f"e{i}")
            assert [e.name for e in tracer.spans] == [f"e{i}"]
        assert tracer.dropped_spans == 4


class TestEnableDisable:
    def test_disable_stops_recording(self):
        tracer = Timeline().tracer
        tracer.emit("a", "kept")
        tracer.enabled = False
        tracer.emit("a", "dropped")
        tracer.enabled = True
        tracer.emit("a", "kept2")
        assert [e.name for e in tracer.spans] == ["kept", "kept2"]

    def test_clear(self):
        tracer = Timeline().tracer
        tracer.emit("a", "x")
        tracer.clear()
        assert len(tracer.spans) == 0
        assert tracer.dropped_spans == 0
