"""CPU worlds and security state.

ARM TrustZone partitions execution into a *normal world* (the rich OS —
Linux, its drivers, userland) and a *secure world* (OP-TEE and its trusted
applications).  The :class:`Cpu` tracks which world is currently executing
and charges its work to the matching clock domain, which is what lets the
benchmarks attribute time to each side of the partition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import WorldStateError
from repro.sim.clock import CycleDomain, SimClock


class World(enum.Enum):
    """The two TrustZone security states."""

    NORMAL = "normal"
    SECURE = "secure"

    __hash__ = object.__hash__  # singletons: see CycleDomain.__hash__

    @property
    def domain(self) -> CycleDomain:
        """Clock domain work in this world is charged to."""
        return _WORLD_DOMAIN[self]

    @property
    def other(self) -> "World":
        """The opposite world."""
        return World.SECURE if self is World.NORMAL else World.NORMAL


_WORLD_DOMAIN = {
    World.NORMAL: CycleDomain.NORMAL_CPU,
    World.SECURE: CycleDomain.SECURE_CPU,
}


@dataclass
class Cpu:
    """A single simulated core with a TrustZone security state.

    The simulator is single-core (the Fig. 1 data path is sequential); the
    world switch is mediated by the secure monitor, which is the only
    component allowed to call :meth:`_set_world`.
    """

    clock: SimClock
    world: World = World.NORMAL
    switch_count: int = 0

    def execute(self, cycles: int) -> None:
        """Charge ``cycles`` of computation to the current world."""
        self.clock.advance(cycles, self.world.domain)

    def require_world(self, world: World) -> None:
        """Assert the CPU is currently in ``world``.

        Secure-only operations (e.g. touching the secure heap) call this to
        model the hardware rule rather than trusting callers.
        """
        if self.world is not world:
            raise WorldStateError(
                f"operation requires {world.value} world but CPU is in "
                f"{self.world.value} world"
            )

    # The monitor (and the GIC's cross-world delivery) use this; nothing
    # else should.

    def _set_world(self, world: World) -> None:
        if world is not self.world:
            self.switch_count += 1
        self.world = world
