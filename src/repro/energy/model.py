"""Per-domain power model and energy meter.

Power figures are representative of a Jetson-class module in a mid DVFS
state (CPU rails a couple of watts, DMA and peripherals far below).  The
secure CPU draws slightly more than the normal CPU for the same cycle
count — TEE exception-level plumbing and cache behaviour — and the
monitor's world-switch work is charged at the higher secure rate too.
As with the cycle cost model, the *relative* structure is what the
reproduction's trends rest on.

Energy is a function of the clock's per-domain cycle totals, priced in
closed form (power × cycles / frequency) whenever it is read: the meter
is not notified of individual charges and keeps no float of its own.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.sim.clock import CycleDomain, SimClock


@dataclass(frozen=True)
class PowerModel:
    """Active power per clock domain, in milliwatts."""

    normal_cpu_mw: float = 2000.0
    secure_cpu_mw: float = 2150.0
    monitor_mw: float = 2400.0
    dma_mw: float = 180.0
    peripheral_mw: float = 60.0
    idle_mw: float = 15.0

    def power_mw(self, domain: CycleDomain) -> float:
        """Power drawn while executing in ``domain``."""
        return {
            CycleDomain.NORMAL_CPU: self.normal_cpu_mw,
            CycleDomain.SECURE_CPU: self.secure_cpu_mw,
            CycleDomain.MONITOR: self.monitor_mw,
            CycleDomain.DMA: self.dma_mw,
            CycleDomain.PERIPHERAL: self.peripheral_mw,
            CycleDomain.IDLE: self.idle_mw,
        }[domain]


@dataclass(frozen=True)
class EnergyReport:
    """Energy totals in millijoules, overall and per domain."""

    total_mj: float
    per_domain_mj: dict[CycleDomain, float]

    def domain_mj(self, domain: CycleDomain) -> float:
        """Energy charged to one domain."""
        return self.per_domain_mj.get(domain, 0.0)


@dataclass
class EnergyMeter:
    """Prices the clock's per-domain cycle totals with the power model.

    Energy is linear in cycles: a domain's share is ``power_mw × cycles /
    freq_hz`` (mW × s = mJ), and the total is their exactly rounded sum
    (``math.fsum``).  The meter keeps no running sum, so energy depends
    on the per-domain totals alone, never on how the charges that made
    them were ordered or split.  :meth:`of` prices any per-domain
    cycle counts (a span's ``domain_cycles``, a
    :meth:`~repro.sim.clock.ClockSnapshot.delta`); :meth:`report` prices
    everything charged since the meter was created.
    """

    clock: SimClock
    power: PowerModel = field(default_factory=PowerModel)
    _power_mw: dict[CycleDomain, float] = field(init=False, repr=False)
    _start: dict[CycleDomain, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # The power table is immutable (frozen dataclass): resolve it once.
        self._power_mw = {d: self.power.power_mw(d) for d in CycleDomain}
        self._start = self.clock.snapshot().per_domain

    def of(self, domain_cycles: Mapping[CycleDomain, int]) -> EnergyReport:
        """The energy of per-domain cycle counts, zero counts left out."""
        power_mw, freq_hz = self._power_mw, self.clock.freq_hz
        per_domain = {
            d: power_mw[d] * cycles / freq_hz
            for d, cycles in domain_cycles.items() if cycles
        }
        return EnergyReport(
            total_mj=math.fsum(per_domain.values()), per_domain_mj=per_domain
        )

    def report(self) -> EnergyReport:
        """Energy of every cycle charged since the meter's creation."""
        start = self._start
        return self.of({
            d: cycles - start.get(d, 0)
            for d, cycles in self.clock.snapshot().per_domain.items()
        })
