"""Unit tests: simulation clock."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.clock import CycleDomain, SimClock


class TestAdvance:
    def test_starts_at_zero(self):
        assert SimClock().now == 0

    def test_advance_moves_time(self):
        clock = SimClock()
        clock.advance(100, CycleDomain.NORMAL_CPU)
        assert clock.now == 100

    def test_advance_returns_new_time(self):
        clock = SimClock()
        assert clock.advance(5, CycleDomain.DMA) == 5
        assert clock.advance(7, CycleDomain.DMA) == 12

    def test_negative_advance_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-1, CycleDomain.NORMAL_CPU)

    def test_zero_advance_is_noop(self):
        clock = SimClock()
        clock.advance(0, CycleDomain.NORMAL_CPU)
        assert clock.now == 0
        assert clock.cycles_in(CycleDomain.NORMAL_CPU) == 0


class TestDomains:
    def test_per_domain_attribution(self):
        clock = SimClock()
        clock.advance(10, CycleDomain.NORMAL_CPU)
        clock.advance(20, CycleDomain.SECURE_CPU)
        clock.advance(30, CycleDomain.NORMAL_CPU)
        assert clock.cycles_in(CycleDomain.NORMAL_CPU) == 40
        assert clock.cycles_in(CycleDomain.SECURE_CPU) == 20
        assert clock.cycles_in(CycleDomain.MONITOR) == 0

    def test_domains_sum_to_total(self):
        clock = SimClock()
        charges = [(13, CycleDomain.DMA), (7, CycleDomain.MONITOR),
                   (29, CycleDomain.PERIPHERAL)]
        for cycles, domain in charges:
            clock.advance(cycles, domain)
        total = sum(clock.cycles_in(d) for d in CycleDomain)
        assert total == clock.now == 49


class TestSeconds:
    def test_seconds_conversion(self):
        clock = SimClock(freq_hz=1e9)
        clock.advance(2_000_000_000, CycleDomain.NORMAL_CPU)
        assert clock.now_seconds == pytest.approx(2.0)


class TestSnapshot:
    def test_snapshot_delta(self):
        clock = SimClock()
        clock.advance(10, CycleDomain.NORMAL_CPU)
        before = clock.snapshot()
        clock.advance(15, CycleDomain.SECURE_CPU)
        clock.advance(5, CycleDomain.NORMAL_CPU)
        after = clock.snapshot()
        delta = after.delta(before)
        assert delta == {
            CycleDomain.SECURE_CPU: 15,
            CycleDomain.NORMAL_CPU: 5,
        }

    def test_snapshot_is_immutable_view(self):
        clock = SimClock()
        snap = clock.snapshot()
        clock.advance(100, CycleDomain.DMA)
        assert snap.now == 0


@given(st.lists(st.integers(min_value=0, max_value=10_000), max_size=50))
def test_property_time_is_monotonic_and_sums(charges):
    clock = SimClock()
    previous = 0
    for cycles in charges:
        now = clock.advance(cycles, CycleDomain.NORMAL_CPU)
        assert now >= previous
        previous = now
    assert clock.now == sum(charges)
