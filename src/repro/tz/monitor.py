"""The EL3 secure monitor: owner of world switches.

On ARMv8-A, the only architectural way to move between the normal and
secure worlds is an exception to EL3 — in practice an ``SMC`` instruction
handled by the secure monitor.  OP-TEE's normal-world driver funnels every
TEE request through a small set of SMC function identifiers; we model the
ones the design exercises.

The monitor charges the world-switch cost *twice* per call (entry and
return), which is the dominant fixed overhead the paper anticipates for
TEE-hosted drivers (Section V).
"""

from __future__ import annotations

import enum
from collections.abc import Callable
from typing import TYPE_CHECKING, Any

from repro.errors import SmcError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
from repro.sim.clock import CycleDomain, SimClock
from repro.tz.costs import CostModel
from repro.tz.worlds import Cpu, World


class SmcFunction(enum.IntEnum):
    """SMC function identifiers (modelled on OP-TEE's SMC ABI)."""

    CALL_WITH_ARG = 0x32000004  # OPTEE_SMC_CALL_WITH_ARG: invoke the TEE
    GET_SHM_CONFIG = 0x32000007  # discover the shared-memory carveout
    ENABLE_SHM_CACHE = 0x32000005
    RETURN_FROM_RPC = 0x32000003  # supplicant completes an RPC
    BOOT_SECURE_OS = 0x3F000001  # simulator-specific: install OP-TEE at boot


SmcHandler = Callable[..., Any]


class SecureMonitor:
    """Dispatches SMC calls and performs world switches.

    The monitor is deliberately tiny: it validates the function id, charges
    the transition costs, flips the CPU's security state around the secure
    handler, and restores it afterwards — even if the handler raises, since
    hardware always returns to the caller's world.
    """

    def __init__(
        self,
        cpu: Cpu,
        clock: SimClock,
        costs: CostModel,
        metrics: "MetricsRegistry | None" = None,
    ):
        self.cpu = cpu
        self.clock = clock
        self.costs = costs
        self.metrics = metrics
        self._handlers: dict[SmcFunction, SmcHandler] = {}
        self.smc_count = 0

    def register(self, func: SmcFunction, handler: SmcHandler) -> None:
        """Install the secure-world handler for one SMC function id."""
        if func in self._handlers:
            raise SmcError(f"SMC handler already registered for {func!r}")
        self._handlers[func] = handler

    def smc(self, func: SmcFunction, *args: Any, **kwargs: Any) -> Any:
        """Execute one SMC from the normal world.

        Models the full round trip: trap to EL3, switch to secure, run the
        handler, switch back.  The handler runs with the CPU in the secure
        world, so any memory it touches passes secure-world TZASC checks.
        """
        self.cpu.require_world(World.NORMAL)
        handler = self._handlers.get(func)
        if handler is None:
            raise SmcError(f"unknown SMC function 0x{int(func):08x}")

        self.smc_count += 1
        if self.metrics is not None:
            self.metrics.inc("tz.smc")
            self.metrics.inc(f"tz.smc.{func.name.lower()}")
        self._transition(World.SECURE)
        try:
            return handler(*args, **kwargs)
        finally:
            self._transition(World.NORMAL)

    def secure_call_to_normal(self, thunk: Callable[[], Any]) -> Any:
        """Execute ``thunk`` in the normal world on behalf of secure code.

        This is the return-to-normal-world leg of an OP-TEE RPC (how the
        TEE reaches the supplicant for file/network services).  Costs are
        symmetric with :meth:`smc`.
        """
        self.cpu.require_world(World.SECURE)
        self._transition(World.NORMAL)
        try:
            return thunk()
        finally:
            self._transition(World.SECURE)

    def _transition(self, target: World) -> None:
        """Charge one direction of a world switch and flip the state."""
        cycles = self.costs.full_world_switch_cycles()
        self.clock.advance(cycles, CycleDomain.MONITOR)
        self.cpu._set_world(target)
        if self.metrics is not None:
            self.metrics.inc("tz.world_switch")
            self.metrics.inc("tz.world_switch_cycles", cycles)
