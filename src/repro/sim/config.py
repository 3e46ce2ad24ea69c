"""Top-level simulation configuration.

:class:`SimConfig` gathers the knobs that span subsystems — the master
seed and CPU frequency — and builds the shared substrate objects.
Subsystem-specific cost tables live next to their subsystems (e.g.
:class:`repro.tz.costs.CostModel`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.clock import DEFAULT_FREQ_HZ, SimClock
from repro.sim.rng import SimRng


@dataclass
class SimConfig:
    """Shared configuration for one simulation instance."""

    seed: int = 42
    freq_hz: float = DEFAULT_FREQ_HZ
    metadata: dict = field(default_factory=dict)

    def build_clock(self) -> SimClock:
        """Create the clock configured by this instance."""
        return SimClock(freq_hz=self.freq_hz)

    def build_rng(self) -> SimRng:
        """Create the master RNG configured by this instance."""
        return SimRng(self.seed)
