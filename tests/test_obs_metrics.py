"""Unit tests: the observability metrics registry."""

import pytest

from repro.obs.metrics import (
    BucketHistogram,
    Counter,
    Gauge,
    MetricsRegistry,
)


class TestCounter:
    def test_increments(self):
        c = Counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("n").inc(-1)


class TestGauge:
    def test_set_replaces(self):
        g = Gauge("depth")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5


class TestRegistry:
    def test_lazy_creation_is_idempotent(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.gauge("g") is reg.gauge("g")

    def test_one_line_recording(self):
        reg = MetricsRegistry()
        reg.inc("tz.smc")
        reg.inc("tz.smc", 2)
        reg.set("queue.depth", 7)
        reg.observe("lat", 100)
        assert reg.counter("tz.smc").value == 3
        assert reg.gauge("queue.depth").value == 7
        assert reg.histogram("lat").count == 1

    def test_disabled_is_a_noop(self):
        reg = MetricsRegistry()
        reg.enabled = False
        reg.inc("a")
        reg.set("b", 1)
        reg.observe("c", 1)
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_prefix_filtering(self):
        reg = MetricsRegistry()
        reg.inc("tz.smc")
        reg.inc("tz.world_switch", 4)
        reg.inc("optee.rpc")
        assert reg.counters("tz.") == {"tz.smc": 1, "tz.world_switch": 4}
        assert set(reg.counters()) == {"tz.smc", "tz.world_switch", "optee.rpc"}

    def test_reset(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.reset()
        assert reg.counters() == {}

    def test_histograms_are_bucketed_and_mergeable(self):
        reg = MetricsRegistry()
        reg.observe("lat", 100)
        assert isinstance(reg.histogram("lat"), BucketHistogram)

    def test_merge_folds_counters_gauges_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 2)
        b.inc("n", 3)
        b.inc("only_b")
        a.set("depth", 1)
        b.set("depth", 4)
        for v in (10, 20):
            a.observe("lat", v)
        for v in (30, 40):
            b.observe("lat", v)
        a.merge(b)
        assert a.counter("n").value == 5
        assert a.counter("only_b").value == 1
        assert a.gauge("depth").value == 5  # gauges sum (fleet totals)
        hist = a.histogram("lat")
        assert hist.count == 4
        assert hist.min == 10 and hist.max == 40

    def test_merge_does_not_alias_source_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.observe("lat", 10)
        a.merge(b)
        b.observe("lat", 99)
        assert a.histogram("lat").count == 1
        assert b.histogram("lat").count == 2
