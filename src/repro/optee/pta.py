"""Pseudo trusted applications (PTAs).

A PTA is the paper's bridge between userland TAs and low-level secure code
(Section II): "a secure module with OS-level privileges that could serve as
an intermediary between a TA (no OS-level privileges) and low-level code
like device driver software."

Accordingly, a :class:`PtaContext` is strictly more powerful than a
``TaContext``: it can touch physical memory directly, reprogram TZASC
partitions, and host device-driver instances.  Only code running in the
secure world may invoke a PTA, and the TEE OS records the caller for
auditing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import TeeAccessDenied
from repro.optee.uuid import TaUuid
from repro.tz.memory import MemoryRegion
from repro.tz.worlds import World

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optee.os import OpTeeOs
    from repro.optee.ta import TrustedApplication


class PtaContext:
    """OS-level capabilities granted to a PTA."""

    def __init__(self, os: "OpTeeOs", pta: "PseudoTa"):
        # The machine and the PTA's name, not the OS and the PTA: the OS
        # owns the PTA and the PTA this context, so references back would
        # be cycles (DESIGN.md, "Device teardown").
        self._machine = os.machine
        self._name = pta.name

    @property
    def machine(self):
        """The underlying TrustZone machine (full access)."""
        return self._machine

    def compute(self, cycles: int) -> None:
        """Charge secure-world computation."""
        self._machine.cpu.execute(cycles)

    def read_phys(self, addr: int, size: int) -> bytes:
        """Read physical memory as the secure world."""
        self._machine.cpu.require_world(World.SECURE)
        return self._machine.memory.read(addr, size, World.SECURE)

    def write_phys(self, addr: int, data: bytes) -> None:
        """Write physical memory as the secure world."""
        self._machine.cpu.require_world(World.SECURE)
        self._machine.memory.write(addr, data, World.SECURE)

    def claim_region(self, region: MemoryRegion) -> None:
        """Reprogram a partition to secure (e.g. a peripheral's MMIO/buffers)."""
        self._machine.secure_peripheral(region)

    def alloc_secure(self, size: int) -> int:
        """Allocate from the secure DRAM carveout (driver I/O buffers)."""
        return self._machine.secure_allocator.alloc(size)

    def free_secure(self, addr: int) -> None:
        """Release a carveout allocation."""
        self._machine.secure_allocator.free(addr)

    def log(self, name: str, **data: Any) -> None:
        """Emit a PTA-scoped event on the machine's tracer."""
        self._machine.obs.tracer.emit(
            f"optee.pta.{self._name}", name, **data
        )


class PseudoTa:
    """Base class for PTAs.  Subclasses implement :meth:`on_invoke`."""

    NAME = "pta.base"
    UUID: TaUuid | None = None

    def __init__(self) -> None:
        self.name = self.NAME
        self.uuid = self.UUID or TaUuid.from_name(self.NAME)
        self.ctx: PtaContext | None = None
        self.invoke_count = 0

    def on_register(self, ctx: PtaContext) -> None:
        """Called when the TEE OS registers this PTA (its boot hook)."""
        self.ctx = ctx

    def on_invoke(
        self, cmd: int, payload: Any, caller: "TrustedApplication | None"
    ) -> Any:
        """Handle one command from a TA (or from the TEE OS itself)."""
        raise NotImplementedError(f"{self.name} does not handle command {cmd}")

    def require_caller(self, caller: "TrustedApplication | None") -> None:
        """Reject invocations that did not come from a TA.

        PTAs exposing driver I/O use this so the secure data path is only
        reachable through the designed TA pipeline.
        """
        if caller is None:
            raise TeeAccessDenied(
                f"PTA {self.name!r} requires a TA caller for this command"
            )
