"""Driver hosts: the same driver code, two worlds.

The paper's design hinges on moving a driver between two environments
without rewriting it.  A :class:`DriverHost` supplies everything a driver
needs from its environment:

* buffer allocation (the crucial difference — :class:`KernelDriverHost`
  hands out *non-secure* DRAM the untrusted OS can read, while
  :class:`SecureDriverHost` hands out buffers in the *secure* carveout),
* physical memory and MMIO access in the host's world,
* cycle charging,
* the ftrace hookpoint (``on_driver_call``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.drivers.base import DriverFunctionInfo
from repro.tz.machine import TrustZoneMachine
from repro.tz.worlds import World

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.tracer import FunctionTracer
    from repro.optee.pta import PtaContext


class DriverHost(Protocol):
    """Environment services a driver consumes."""

    machine: TrustZoneMachine

    @property
    def world(self) -> World:
        """World this host's buffers and accesses belong to."""
        ...

    def alloc_buffer(self, size: int) -> int: ...

    def free_buffer(self, addr: int) -> None: ...

    def read_mem(self, addr: int, size: int) -> bytes: ...

    def write_mem(self, addr: int, data: bytes) -> None: ...

    def compute(self, cycles: int) -> None: ...

    def on_driver_call(
        self, driver: str, info: DriverFunctionInfo, caller: str | None
    ) -> None: ...


class KernelDriverHost:
    """Hosts a driver inside the untrusted kernel (the baseline).

    I/O buffers come from non-secure DRAM, so raw peripheral data is
    exposed to every normal-world attacker model — the leak the paper sets
    out to close.
    """

    def __init__(self, machine: TrustZoneMachine):
        self.machine = machine
        self.tracer: "FunctionTracer | None" = None

    @property
    def world(self) -> World:
        """Kernel drivers run in the normal world."""
        return World.NORMAL

    def attach_tracer(self, tracer: "FunctionTracer") -> None:
        """Connect the kernel's ftrace-style tracer."""
        self.tracer = tracer

    def alloc_buffer(self, size: int) -> int:
        """DMA-able buffer in *non-secure* DRAM."""
        return self.machine.ns_allocator.alloc(size)

    def free_buffer(self, addr: int) -> None:
        """Release a buffer."""
        self.machine.ns_allocator.free(addr)

    def read_mem(self, addr: int, size: int) -> bytes:
        """Load as the normal world (TZASC applies)."""
        return self.machine.memory.read(addr, size, World.NORMAL)

    def write_mem(self, addr: int, data: bytes) -> None:
        """Store as the normal world (TZASC applies)."""
        self.machine.memory.write(addr, data, World.NORMAL)

    def compute(self, cycles: int) -> None:
        """Charge normal-world CPU work."""
        self.machine.clock.advance(cycles, World.NORMAL.domain)

    def on_driver_call(
        self, driver: str, info: DriverFunctionInfo, caller: str | None
    ) -> None:
        """Bookkeeping + ftrace hook for one driver function call."""
        self.compute(self.machine.costs.driver_call_cycles)
        if self.tracer is not None and self.tracer.active:
            self.tracer.record(driver, info, caller)


class SecureDriverHost:
    """Hosts a (minimized) driver inside OP-TEE, behind a PTA.

    Buffers come from the secure DRAM carveout: "the driver's I/O buffers
    are allocated [in secure memory]; the sensitive data is thus securely
    processed" (paper Section II).  Tracing is also available secure-side
    so conformance runs can compare call behaviour across hosts.
    """

    def __init__(self, pta_ctx: "PtaContext"):
        self._ctx = pta_ctx
        self.machine = pta_ctx.machine
        self.tracer: "FunctionTracer | None" = None

    @property
    def world(self) -> World:
        """Secure-world host."""
        return World.SECURE

    def attach_tracer(self, tracer: "FunctionTracer") -> None:
        """Connect a tracer (used by cross-host conformance checks)."""
        self.tracer = tracer

    def alloc_buffer(self, size: int) -> int:
        """DMA-able buffer in the *secure* carveout."""
        return self._ctx.alloc_secure(size)

    def free_buffer(self, addr: int) -> None:
        """Release a secure buffer."""
        self._ctx.free_secure(addr)

    def read_mem(self, addr: int, size: int) -> bytes:
        """Load as the secure world."""
        return self._ctx.read_phys(addr, size)

    def write_mem(self, addr: int, data: bytes) -> None:
        """Store as the secure world."""
        self._ctx.write_phys(addr, data)

    def compute(self, cycles: int) -> None:
        """Charge secure-world CPU work (the PTA runs in the secure world)."""
        self.machine.cpu.execute(cycles)

    def on_driver_call(
        self, driver: str, info: DriverFunctionInfo, caller: str | None
    ) -> None:
        """Bookkeeping + optional tracing for one driver function call."""
        machine = self.machine
        machine.cpu.execute(machine.costs.driver_call_cycles)
        tracer = self.tracer
        if tracer is not None and tracer.active:
            tracer.record(driver, info, caller)
