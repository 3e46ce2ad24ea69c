"""TrustZone-aware interrupt routing (GIC model).

On TrustZone hardware the interrupt controller partitions interrupts like
the TZASC partitions memory: lines belonging to secure peripherals are
*Group 0* and delivered to the secure world as FIQs; the normal world can
neither handle nor even observe them.  This matters twice for the paper's
design:

* functionally — the secured I²S controller's overrun interrupt must
  reach the secure driver, and
* for privacy — in the baseline, the kernel sees every microphone
  interrupt and can infer *when* the user is speaking even without the
  audio (a traffic-analysis side channel); routing the line to the secure
  world closes it.

Configuration of secure lines is itself a secure-world privilege,
mirroring the GIC's banked security registers.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import SecureAccessViolation, TrustZoneError
from repro.sim.clock import SimClock
from repro.tz.costs import CostModel
from repro.tz.monitor import SecureMonitor
from repro.tz.worlds import Cpu, World

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.span import SpanTracer

IRQ_I2S = 32  # the I2S controller's interrupt line
IRQ_CAMERA = 33


@dataclass
class _Line:
    world: World
    handler: Callable[[], None]
    count: int = 0


class InterruptController:
    """Routes peripheral interrupt lines to per-world handlers."""

    def __init__(
        self,
        cpu: Cpu,
        monitor: SecureMonitor,
        clock: SimClock,
        tracer: "SpanTracer",
        costs: CostModel,
    ):
        self._cpu = cpu
        self._monitor = monitor
        self._clock = clock
        self._tracer = tracer
        self._costs = costs
        self._lines: dict[int, _Line] = {}
        self.delivered: dict[World, int] = {World.NORMAL: 0, World.SECURE: 0}

    def configure(
        self, line: int, world: World, handler: Callable[[], None]
    ) -> None:
        """Assign a line to a world.

        Claiming a line for the secure world — or *stealing* one that is
        currently secure — requires the CPU to be in the secure world,
        exactly like reprogramming a TZASC partition.
        """
        existing = self._lines.get(line)
        needs_secure = world is World.SECURE or (
            existing is not None and existing.world is World.SECURE
        )
        if needs_secure and self._cpu.world is not World.SECURE:
            raise SecureAccessViolation(
                f"normal world attempted to configure interrupt line {line}"
            )
        self._lines[line] = _Line(world=world, handler=handler)
        self._tracer.emit(
            "tz.gic", "configure", line=line, world=world.value
        )

    def observed_by(self, world: World) -> int:
        """Interrupts a given world has seen (the side-channel count)."""
        return self.delivered[world]

    def line_count(self, line: int) -> int:
        """Deliveries on one line."""
        entry = self._lines.get(line)
        return entry.count if entry else 0

    def raise_line(self, line: int) -> None:
        """Deliver one interrupt.

        The handler runs in the line's configured world; if the CPU is in
        the other world, the transition costs a full world-switch round
        trip at the monitor (FIQ trap through EL3), as on hardware.
        """
        entry = self._lines.get(line)
        if entry is None:
            raise TrustZoneError(f"spurious interrupt on unconfigured line {line}")
        entry.count += 1
        self.delivered[entry.world] += 1
        self._clock.advance(self._costs.interrupt_cycles, entry.world.domain)
        self._tracer.emit(
            "tz.gic", "deliver", line=line, world=entry.world.value
        )
        if entry.world is self._cpu.world:
            entry.handler()
            return
        # Cross-world delivery: trap through the monitor and back.
        self._monitor._transition(entry.world)
        try:
            entry.handler()
        finally:
            self._monitor._transition(entry.world.other)
