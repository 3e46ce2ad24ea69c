"""Deterministic simulation substrate.

Everything in the repro stack runs on top of this package: a cycle-accurate
:class:`~repro.sim.clock.SimClock` that subsystems charge work to and a
seeded :class:`~repro.sim.rng.SimRng` so every run is reproducible.
Simulation events are zero-length spans on the machine's tracer
(:meth:`repro.obs.span.SpanTracer.emit`).
"""

from repro.sim.clock import CycleDomain, SimClock
from repro.sim.config import SimConfig
from repro.sim.faults import FaultConfig, FaultInjector
from repro.sim.rng import SimRng

__all__ = [
    "CycleDomain",
    "FaultConfig",
    "FaultInjector",
    "SimClock",
    "SimConfig",
    "SimRng",
]
