"""The machine-level observability context.

One :class:`Observability` instance hangs off every
:class:`~repro.tz.machine.TrustZoneMachine` as ``machine.obs``, bundling
the span tracer and the metrics registry so instrumented subsystems reach
both through a single attribute.  It also subscribes to the clock to keep
live per-domain cycle counters in the registry (``cycles.<domain>``),
which gives ``repro profile`` whole-run domain totals without any
subsystem having to report them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.obs.metrics import MetricsRegistry
from repro.obs.span import SpanTracer, _ActiveSpan
from repro.sim.clock import CycleDomain, SimClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.energy.model import EnergyMeter
    from repro.obs.health import FlightRecorder
    from repro.tz.worlds import Cpu


class Observability:
    """Span tracer + metrics registry for one machine."""

    def __init__(self, clock: SimClock, cpu: "Cpu | None" = None):
        self.metrics = MetricsRegistry()
        self.tracer = SpanTracer(clock, cpu=cpu, metrics=self.metrics)
        self._clock = clock
        self._counter_names = {d: f"cycles.{d.value}" for d in CycleDomain}
        clock.subscribe(self._on_charge)

    def _on_charge(self, domain: CycleDomain, cycles: int) -> None:
        metrics = self.metrics
        if metrics.enabled:
            metrics.counter(self._counter_names[domain]).inc(cycles)

    # -- convenience -----------------------------------------------------------

    def span(self, name: str, category: str = "span", **attrs: Any) -> _ActiveSpan:
        """Open a span on the machine's tracer."""
        return self.tracer.span(name, category=category, **attrs)

    def attach_energy(self, meter: "EnergyMeter") -> None:
        """Wire the platform energy meter into span attribution."""
        self.tracer.attach_energy(meter)

    def attach_recorder(self, recorder: "FlightRecorder | None") -> None:
        """Feed closed spans and events into a health flight recorder."""
        self.tracer.attach_recorder(recorder)

    def enable(self) -> None:
        """Resume span and event retention and metric recording."""
        self.tracer.enabled = True
        self.metrics.enabled = True

    def disable(self) -> None:
        """Stop retaining spans and events and recording metrics.

        Spans and events already retained are dropped too, so a machine
        disabled right after construction keeps none of its boot events.
        Spans still *measure* (TA stage accounting depends on their
        durations); they just are not kept or counted, and events are
        discarded.  An attached flight recorder keeps receiving both.
        Because instrumentation is passive either way, a disabled run
        produces byte-identical pipeline outcomes to an enabled one.
        """
        self.tracer.enabled = False
        self.tracer.clear()
        self.metrics.enabled = False
