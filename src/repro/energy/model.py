"""Per-domain power model and energy meter.

Power figures are representative of a Jetson-class module in a mid DVFS
state (CPU rails a couple of watts, DMA and peripherals far below).  The
secure CPU draws slightly more than the normal CPU for the same cycle
count — TEE exception-level plumbing and cache behaviour — and the
monitor's world-switch work is charged at the higher secure rate too.
As with the cycle cost model, the *relative* structure is what the
reproduction's trends rest on.
"""

from __future__ import annotations

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
    """Integrates the power model over clock charges.

    Subscribe once per clock; read with :meth:`report`, or bracket a region
    with :meth:`snapshot` / :meth:`delta_since`.
    """

    clock: SimClock
    power: PowerModel = field(default_factory=PowerModel)
    _energy_mj: dict[CycleDomain, float] = field(default_factory=dict)
    _power_mw: dict[CycleDomain, float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # The power table is immutable (frozen dataclass): resolve it once
        # instead of rebuilding the lookup dict on every clock charge —
        # this listener runs on the simulator's hottest path.
        self._power_mw = {d: self.power.power_mw(d) for d in CycleDomain}
        self.clock.subscribe(self._on_charge)

    def _on_charge(self, domain: CycleDomain, cycles: int) -> None:
        energy = self._energy_mj
        # mW * s = mJ, accumulated in charge order (float sums depend on it).
        energy[domain] = energy.get(domain, 0.0) + self._power_mw[domain] * (
            cycles / self.clock.freq_hz
        )

    def report(self) -> EnergyReport:
        """Cumulative energy since meter creation."""
        return EnergyReport(
            total_mj=sum(self._energy_mj.values()),
            per_domain_mj=dict(self._energy_mj),
        )

    def snapshot(self) -> dict[CycleDomain, float]:
        """Current per-domain totals, for delta measurement."""
        return dict(self._energy_mj)

    def delta_since(self, snapshot: dict[CycleDomain, float]) -> EnergyReport:
        """Energy accumulated since a snapshot."""
        per_domain = {}
        for domain, mj in self._energy_mj.items():
            diff = mj - snapshot.get(domain, 0.0)
            if diff > 0:
                per_domain[domain] = diff
        return EnergyReport(
            total_mj=sum(per_domain.values()), per_domain_mj=per_domain
        )

    def detach(self) -> None:
        """Stop metering (unsubscribe from the clock)."""
        self.clock.unsubscribe(self._on_charge)
