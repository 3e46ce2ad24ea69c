"""Cycle-accurate simulation clock with per-domain accounting.

The clock is the single source of simulated time.  Components never call
``time.time()``; they *charge* cycles to the clock, tagged with the
:class:`CycleDomain` the work ran in (secure CPU, normal CPU, DMA, ...).
Its per-domain totals are the only record of simulated cost: nothing is
notified per charge.  The energy meter, the ``cycles.<domain>`` counters
and the benchmark harness read those totals back to compute latency,
throughput and energy.

The CPU frequency is fixed (the Jetson AGX Xavier's Carmel cores nominally
run at 2.26 GHz; we default to a round 2.0 GHz) so cycles convert to
wall-clock time deterministically.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field

#: The default simulated core frequency (see :class:`SimClock`).
DEFAULT_FREQ_HZ = 2.0e9


def cycles_to_ms(cycles: float, freq_hz: float = DEFAULT_FREQ_HZ) -> float:
    """Convert a cycle count to simulated milliseconds.

    Every wall-clock rendering of a cycle figure must go through this
    helper (or :meth:`SimClock.cycles_to_ms` when a clock is in hand)
    instead of hardcoding the 2 GHz default — a machine configured with a
    different ``freq_hz`` would otherwise report wrong milliseconds.
    """
    if freq_hz <= 0:
        raise ValueError(f"freq_hz must be positive, got {freq_hz}")
    return cycles / freq_hz * 1e3


class CycleDomain(enum.Enum):
    """Hardware domain work can be charged to.

    Each domain may draw different power, so the split matters to the
    energy model as well as to overhead attribution in benchmarks.
    """

    NORMAL_CPU = "normal_cpu"
    SECURE_CPU = "secure_cpu"
    MONITOR = "monitor"  # EL3 secure monitor (world switches)
    DMA = "dma"
    PERIPHERAL = "peripheral"
    IDLE = "idle"

    # Members are singletons, so identity hashing is exact — and it runs
    # at C speed on every per-domain dict access of every clock charge,
    # where Enum's default is a Python-level ``hash(self._name_)``.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class ClockSnapshot:
    """Immutable snapshot of the clock, used to delta-measure a region."""

    now: int
    per_domain: dict[CycleDomain, int]

    def delta(self, other: "ClockSnapshot") -> dict[CycleDomain, int]:
        """Return per-domain cycles elapsed between ``other`` (earlier) and self."""
        out: dict[CycleDomain, int] = {}
        for domain in CycleDomain:
            diff = self.per_domain.get(domain, 0) - other.per_domain.get(domain, 0)
            if diff:
                out[domain] = diff
        return out


@dataclass
class SimClock:
    """Monotonic cycle counter with per-domain attribution.

    Parameters
    ----------
    freq_hz:
        Simulated core frequency used to convert cycles to seconds.
    """

    freq_hz: float = DEFAULT_FREQ_HZ
    _now: int = 0
    _per_domain: dict[CycleDomain, int] = field(
        default_factory=lambda: defaultdict(int)
    )

    @property
    def now(self) -> int:
        """Current simulated time in cycles."""
        return self._now

    @property
    def now_seconds(self) -> float:
        """Current simulated time in seconds."""
        return self._now / self.freq_hz

    def advance(self, cycles: int, domain: CycleDomain) -> int:
        """Charge ``cycles`` of work to ``domain`` and move time forward.

        Returns the new current time.  Raises ``ValueError`` on negative
        charges — time never flows backwards in the simulator.
        """
        if cycles < 0:
            raise ValueError(f"cannot advance clock by negative cycles: {cycles}")
        if cycles == 0:
            return self._now
        self._now += cycles
        self._per_domain[domain] += cycles
        return self._now

    def cycles_in(self, domain: CycleDomain) -> int:
        """Total cycles charged to ``domain`` so far."""
        return self._per_domain.get(domain, 0)

    def cycles_to_ms(self, cycles: float) -> float:
        """Convert a cycle count to milliseconds at the configured frequency."""
        return cycles_to_ms(cycles, self.freq_hz)

    def snapshot(self) -> ClockSnapshot:
        """Capture current totals for later delta measurement."""
        return ClockSnapshot(now=self._now, per_domain=dict(self._per_domain))
