"""Span-based tracing: the simulator's one event model.

A :class:`Span` brackets one region of the simulated run — a pipeline
stage, a TLS handshake, a supplicant RPC — and attributes to it the cycles
(total and per :class:`~repro.sim.clock.CycleDomain`), world switches and
energy spent inside it.  Spans nest: the tracer keeps an enter/exit stack,
so a ``relay`` stage span naturally parents the ``tls_handshake`` and
``tls_record`` spans opened while it is active.

An *event* (a TZASC fault, a TA panic, a relay throttle) is a zero-length
span recorded by :meth:`SpanTracer.emit`: it starts and ends at the
current cycle, parents to the innermost open span, and is retained,
recorded and exported like any other span.  Events do not feed the
metrics registry (counters already count what they report) and do not
count as watchdog heartbeats.

Measurement is *passive*: opening or closing a span reads the clock and
the CPU switch counter (a span's energy is its ``domain_cycles`` priced
by the energy meter) but never charges cycles, never touches the RNG,
and never alters control flow — runs are byte-identical with tracing
enabled or disabled.  The TA-side stage accounting (``CMD_STATS``) reads
span durations, so spans always measure even while *retention* is
disabled; disabling only stops the tracer from keeping spans and events
and from feeding metrics.

Exports: JSON Lines (:meth:`SpanTracer.to_jsonl`, one
:meth:`Span.to_doc` per line, as ``repro trace`` prints them) and the
Chrome ``trace_event`` format (load in ``chrome://tracing`` / Perfetto)
via :meth:`SpanTracer.to_chrome_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.sim.clock import CycleDomain, SimClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.energy.model import EnergyMeter
    from repro.obs.health import FlightRecorder
    from repro.obs.metrics import MetricsRegistry
    from repro.tz.worlds import Cpu


@dataclass
class Span:
    """One measured region of the run.

    ``domain_cycles`` attributes the span's duration to hardware domains
    (secure CPU, monitor, DMA, ...); their sum equals :attr:`cycles`
    because the clock only moves when a domain is charged.
    """

    id: int
    name: str
    category: str
    start_cycle: int
    end_cycle: int = 0
    parent_id: int | None = None
    domain_cycles: dict[CycleDomain, int] = field(default_factory=dict)
    world_switches: int = 0
    energy_mj: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        """Total cycles elapsed inside the span."""
        return self.end_cycle - self.start_cycle

    @property
    def trace_id(self) -> str:
        """The correlated trace this span belongs to ('' when unstamped).

        Trace ids ride the ordinary ``attrs`` bag (key ``trace_id``) so
        stamped spans go through every existing export without a schema
        change.
        """
        return str(self.attrs.get("trace_id", "") or "")

    def matches(self, category_prefix: str) -> bool:
        """True if the category equals or nests under the prefix."""
        return self.category == category_prefix or self.category.startswith(
            category_prefix + "."
        )

    def to_doc(self) -> dict[str, Any]:
        """JSON-ready representation (domains keyed by their value)."""
        return {
            "id": self.id,
            "parent": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start_cycle,
            "end": self.end_cycle,
            "domains": {d.value: c for d, c in self.domain_cycles.items()},
            "switches": self.world_switches,
            "energy_mj": self.energy_mj,
            "attrs": self.attrs,
        }


class _ActiveSpan:
    """Context manager for one in-flight span."""

    __slots__ = ("_tracer", "span", "_start_domains", "_start_switches")

    def __init__(self, tracer: "SpanTracer", span: Span):
        self._tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self._tracer._begin(self)
        return self.span

    def __exit__(self, *exc_info: Any) -> None:
        self._tracer._end(self)


class SpanTracer:
    """Creates, nests, retains and exports spans.

    ``capacity`` bounds retention: when full, the oldest half is evicted
    and ``dropped_spans`` counts the loss.  Wiring the optional
    collaborators (``cpu`` for switch counts, energy meter, metrics
    registry) is additive — the tracer degrades gracefully when any is
    absent, so unit tests can run it against a bare clock.
    """

    def __init__(
        self,
        clock: SimClock,
        cpu: "Cpu | None" = None,
        metrics: "MetricsRegistry | None" = None,
        capacity: int = 100_000,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._clock = clock
        self._cpu = cpu
        self._metrics = metrics
        self._energy: "EnergyMeter | None" = None
        self._recorder: "FlightRecorder | None" = None
        self.capacity = capacity
        self.enabled = True
        self.spans: list[Span] = []
        self.dropped_spans = 0
        self._stack: list[Span] = []
        self._next_id = 1

    def attach_energy(self, meter: "EnergyMeter") -> None:
        """Wire the platform's energy meter to price each span's cycles."""
        self._energy = meter

    def attach_recorder(self, recorder: "FlightRecorder | None") -> None:
        """Feed every closed span and event into a health flight recorder.

        The recorder sees spans even while retention is disabled —
        attachment is the opt-in, and recording is as passive as
        measuring is.
        """
        self._recorder = recorder

    # -- recording --------------------------------------------------------------

    def span(self, name: str, category: str = "span", **attrs: Any) -> _ActiveSpan:
        """Open a span; use as ``with tracer.span("asr", "stage.secure"):``."""
        sp = Span(
            id=self._next_id,
            name=name,
            category=category,
            start_cycle=0,  # set at __enter__
            attrs=attrs,
        )
        self._next_id += 1
        return _ActiveSpan(self, sp)

    def emit(self, category: str, name: str, **attrs: Any) -> None:
        """Record an event: a zero-length span at the current cycle.

        The event parents to the innermost open span and goes through the
        same retention, capacity and flight-recorder path as a closed
        span, but it never feeds the metrics registry.
        """
        now = self._clock.now
        sp = Span(
            id=self._next_id,
            name=name,
            category=category,
            start_cycle=now,
            end_cycle=now,
            parent_id=self._stack[-1].id if self._stack else None,
            attrs=attrs,
        )
        self._next_id += 1
        self._keep(sp)

    def _begin(self, active: _ActiveSpan) -> None:
        sp = active.span
        sp.parent_id = self._stack[-1].id if self._stack else None
        sp.start_cycle = self._clock.now
        active._start_domains = dict(self._clock._per_domain)
        active._start_switches = (
            self._cpu.switch_count if self._cpu is not None else 0
        )
        self._stack.append(sp)

    def _end(self, active: _ActiveSpan) -> None:
        sp = active.span
        # Pop through anything left behind by a span abandoned to an
        # exception; the stack discipline must survive unwinding.
        while self._stack and self._stack[-1] is not sp:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        sp.end_cycle = self._clock.now
        start_domains = active._start_domains
        sp.domain_cycles = {
            d: v - start_domains.get(d, 0)
            for d, v in self._clock._per_domain.items()
            if v - start_domains.get(d, 0)
        }
        if self._cpu is not None:
            sp.world_switches = self._cpu.switch_count - active._start_switches
        if self._energy is not None:
            sp.energy_mj = self._energy.of(sp.domain_cycles).total_mj
        if self._keep(sp) and self._metrics is not None:
            self._metrics.observe(f"{sp.category}.{sp.name}.cycles", sp.cycles)
            self._metrics.inc(f"{sp.category}.{sp.name}.count")

    def _keep(self, sp: Span) -> bool:
        """Record a finished span; returns whether it was retained."""
        if self._recorder is not None:
            self._recorder.record(sp)
        if not self.enabled:
            return False
        if len(self.spans) >= self.capacity:
            drop = max(1, self.capacity // 2)
            drop = max(drop, len(self.spans) - self.capacity + 1)
            del self.spans[:drop]
            self.dropped_spans += drop
        self.spans.append(sp)
        return True

    # -- reading back ------------------------------------------------------------

    def spans_in(self, category_prefix: str | None = None) -> list[Span]:
        """Retained spans, optionally filtered to a category subtree."""
        if category_prefix is None:
            return list(self.spans)
        return [s for s in self.spans if s.matches(category_prefix)]

    def clear(self) -> None:
        """Drop retained spans (open spans and ids are unaffected)."""
        self.spans.clear()
        self.dropped_spans = 0

    # -- export ------------------------------------------------------------------

    def to_jsonl(self, category_prefix: str | None = None) -> str:
        """Spans as JSON Lines, one :meth:`Span.to_doc` per line."""
        import json

        return "\n".join(
            json.dumps(s.to_doc(), default=str)
            for s in self.spans_in(category_prefix)
        )

    def to_chrome_trace(self, category_prefix: str | None = None) -> str:
        """Spans as Chrome ``trace_event`` JSON (complete/'X' events).

        Timestamps are microseconds of simulated time at the clock's
        configured frequency; open the output in ``chrome://tracing`` or
        Perfetto.  Each top-level category gets its own track (``tid``).
        """
        import json

        scale = 1e6 / self._clock.freq_hz
        tids: dict[str, int] = {}
        events = []
        for sp in self.spans_in(category_prefix):
            track = sp.category.split(".")[0]
            tid = tids.setdefault(track, len(tids) + 1)
            events.append({
                "name": sp.name,
                "cat": sp.category,
                "ph": "X",
                "ts": sp.start_cycle * scale,
                "dur": sp.cycles * scale,
                "pid": 1,
                "tid": tid,
                "args": {
                    "cycles": sp.cycles,
                    "world_switches": sp.world_switches,
                    "energy_mj": sp.energy_mj,
                    "domains": {
                        d.value: c for d, c in sp.domain_cycles.items()
                    },
                    **sp.attrs,
                },
            })
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {"clock_freq_hz": self._clock.freq_hz},
        }
        return json.dumps(doc, default=str)
