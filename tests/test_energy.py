"""Unit tests: power model and energy meter."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from repro.energy.model import EnergyMeter, PowerModel
from repro.sim.clock import CycleDomain, SimClock

# Random charge streams: any domain, cycles up to a few seconds' worth
# (zero charges included; the clock ignores them).
CHARGES = st.lists(
    st.tuples(
        st.sampled_from(list(CycleDomain)),
        st.integers(min_value=0, max_value=5_000_000_000),
    ),
    max_size=60,
)


def _metered(charges, before=()):
    """A meter created after ``before`` has been charged, then ``charges``."""
    clock = SimClock()
    for domain, cycles in before:
        clock.advance(cycles, domain)
    meter = EnergyMeter(clock)
    for domain, cycles in charges:
        clock.advance(cycles, domain)
    return clock, meter


class TestPowerModel:
    def test_all_domains_covered(self):
        model = PowerModel()
        for domain in CycleDomain:
            assert model.power_mw(domain) > 0

    def test_secure_draws_more_than_normal(self):
        model = PowerModel()
        assert model.power_mw(CycleDomain.SECURE_CPU) > model.power_mw(
            CycleDomain.NORMAL_CPU
        )

    def test_peripherals_cheap(self):
        model = PowerModel()
        assert model.power_mw(CycleDomain.PERIPHERAL) < model.power_mw(
            CycleDomain.NORMAL_CPU
        ) / 10


class TestEnergyMeter:
    def test_integrates_power_over_time(self):
        clock = SimClock(freq_hz=1e9)
        meter = EnergyMeter(clock, PowerModel(normal_cpu_mw=1000.0))
        clock.advance(1_000_000_000, CycleDomain.NORMAL_CPU)  # 1 second
        report = meter.report()
        assert report.total_mj == pytest.approx(1000.0)  # 1 W * 1 s

    def test_per_domain_split(self):
        clock = SimClock(freq_hz=1e9)
        meter = EnergyMeter(clock)
        clock.advance(500_000_000, CycleDomain.NORMAL_CPU)
        clock.advance(500_000_000, CycleDomain.DMA)
        report = meter.report()
        assert report.domain_mj(CycleDomain.NORMAL_CPU) > report.domain_mj(
            CycleDomain.DMA
        )
        assert report.total_mj == pytest.approx(
            report.domain_mj(CycleDomain.NORMAL_CPU)
            + report.domain_mj(CycleDomain.DMA)
        )

    def test_delta_measurement(self):
        clock = SimClock(freq_hz=1e9)
        meter = EnergyMeter(clock)
        clock.advance(100_000, CycleDomain.NORMAL_CPU)
        snap = clock.snapshot()
        clock.advance(200_000, CycleDomain.SECURE_CPU)
        delta = meter.of(clock.snapshot().delta(snap))
        assert delta.domain_mj(CycleDomain.NORMAL_CPU) == 0.0
        assert delta.domain_mj(CycleDomain.SECURE_CPU) > 0

    def test_same_cycles_secure_costs_more_energy(self):
        clock = SimClock(freq_hz=1e9)
        meter = EnergyMeter(clock)
        clock.advance(1_000_000, CycleDomain.NORMAL_CPU)
        normal = meter.report().total_mj
        clock2 = SimClock(freq_hz=1e9)
        meter2 = EnergyMeter(clock2)
        clock2.advance(1_000_000, CycleDomain.SECURE_CPU)
        assert meter2.report().total_mj > normal


class TestClosedForm:
    """Energy is a function of the clock's per-domain totals alone."""

    @given(CHARGES)
    def test_report_is_power_times_cycles_over_frequency(self, charges):
        clock, meter = _metered(charges)
        power = PowerModel()
        report = meter.report()
        assert report.per_domain_mj == {
            d: power.power_mw(d) * clock.cycles_in(d) / clock.freq_hz
            for d in CycleDomain
            if clock.cycles_in(d)
        }
        assert report.total_mj == math.fsum(report.per_domain_mj.values())

    @given(CHARGES, st.integers(min_value=0, max_value=2**32))
    def test_reordering_or_merging_charges_moves_no_float(self, charges, seed):
        shuffled = list(charges)
        random.Random(seed).shuffle(shuffled)
        merged: dict[CycleDomain, int] = {}
        for domain, cycles in charges:
            merged[domain] = merged.get(domain, 0) + cycles
        one_each = list(merged.items())
        report = _metered(charges)[1].report()
        for stream in (charges[::-1], shuffled, one_each):
            assert _metered(stream)[1].report() == report

    @given(CHARGES, CHARGES)
    def test_meter_counts_only_charges_after_its_creation(self, before, after):
        late = _metered(after, before=before)[1].report()
        assert late == _metered(after)[1].report()
