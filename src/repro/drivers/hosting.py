"""Driver hosts: the same driver code, two worlds.

The paper's design hinges on moving a driver between two environments
without rewriting it.  A :class:`DriverHost` supplies everything a driver
needs from its environment:

* buffer allocation (the crucial difference — :class:`KernelDriverHost`
  hands out *non-secure* DRAM the untrusted OS can read, while
  :class:`SecureDriverHost` hands out buffers in the *secure* carveout),
* physical memory and MMIO access in the host's world,
* cycle accounting, charged once per driver entry point (``settle``),
* the ftrace hookpoint (``on_driver_call``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.drivers.base import DriverFunctionInfo
from repro.tz.machine import TrustZoneMachine
from repro.tz.worlds import World

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.tracer import FunctionTracer
    from repro.optee.pta import PtaContext


class DriverHost:
    """Environment services a driver consumes, and their cycle accounting.

    The per-call bookkeeping, ``compute`` and memory cycles a driver spends
    add up in ``pending``; :meth:`settle` charges them to the host's world
    in one clock charge, which a ``@driver_fn`` entry point does when it
    returns or raises.  Every memory access is still made, TZASC-checked
    and counted one by one; only the clock charges are merged.
    """

    world: World  # the world this host's buffers and accesses belong to

    def __init__(self, machine: TrustZoneMachine):
        self.machine = machine
        self.tracer: "FunctionTracer | None" = None
        self.pending = 0

    def alloc_buffer(self, size: int) -> int:  # pragma: no cover - interface
        raise NotImplementedError

    def free_buffer(self, addr: int) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def read_mem(self, addr: int, size: int) -> bytes:  # pragma: no cover - interface
        raise NotImplementedError

    def write_mem(self, addr: int, data: bytes) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def attach_tracer(self, tracer: "FunctionTracer") -> None:
        """Connect an ftrace-style tracer."""
        self.tracer = tracer

    def compute(self, cycles: int) -> None:
        """Price CPU work in this host's world."""
        self.pending += cycles

    def on_driver_call(self, driver: str, info: DriverFunctionInfo) -> None:
        """Bookkeeping + ftrace hook for one driver function call."""
        self.pending += self.machine.costs.driver_call_cycles
        tracer = self.tracer
        if tracer is not None and tracer.active:
            tracer.record(driver, info)

    def settle(self) -> None:
        """Charge the pending cycles to this host's world."""
        self.machine.clock.advance(self.pending, self.world.domain)
        self.pending = 0


class KernelDriverHost(DriverHost):
    """Hosts a driver inside the untrusted kernel (the baseline).

    I/O buffers come from non-secure DRAM, so raw peripheral data is
    exposed to every normal-world attacker model — the leak the paper sets
    out to close.
    """

    world = World.NORMAL

    def alloc_buffer(self, size: int) -> int:
        """DMA-able buffer in *non-secure* DRAM."""
        return self.machine.ns_allocator.alloc(size)

    def free_buffer(self, addr: int) -> None:
        """Release a buffer."""
        self.machine.ns_allocator.free(addr)

    def read_mem(self, addr: int, size: int) -> bytes:
        """Load as the normal world (TZASC applies)."""
        data, cycles = self.machine.memory.load(addr, size, World.NORMAL)
        self.pending += cycles
        return data

    def write_mem(self, addr: int, data: bytes) -> None:
        """Store as the normal world (TZASC applies)."""
        self.pending += self.machine.memory.store(addr, data, World.NORMAL)


class SecureDriverHost(DriverHost):
    """Hosts a (minimized) driver inside OP-TEE, behind a PTA.

    Buffers come from the secure DRAM carveout: "the driver's I/O buffers
    are allocated [in secure memory]; the sensitive data is thus securely
    processed" (paper Section II).  Tracing is also available secure-side
    so conformance runs can compare call behaviour across hosts.
    """

    world = World.SECURE

    def __init__(self, pta_ctx: "PtaContext"):
        super().__init__(pta_ctx.machine)
        self._ctx = pta_ctx

    def alloc_buffer(self, size: int) -> int:
        """DMA-able buffer in the *secure* carveout."""
        return self._ctx.alloc_secure(size)

    def free_buffer(self, addr: int) -> None:
        """Release a secure buffer."""
        self._ctx.free_secure(addr)

    def read_mem(self, addr: int, size: int) -> bytes:
        """Load as the secure world (the CPU must be in it)."""
        machine = self.machine
        machine.cpu.require_world(World.SECURE)
        data, cycles = machine.memory.load(addr, size, World.SECURE)
        self.pending += cycles
        return data

    def write_mem(self, addr: int, data: bytes) -> None:
        """Store as the secure world (the CPU must be in it)."""
        machine = self.machine
        machine.cpu.require_world(World.SECURE)
        self.pending += machine.memory.store(addr, data, World.SECURE)
