"""The composed TrustZone machine.

:class:`TrustZoneMachine` wires together the clock, observability (span
tracer and metrics), physical memory with TZASC, a CPU, and the secure
monitor, and lays out a memory map patterned on the Jetson AGX Xavier
class of devices:

========================  ==========  ========  =========
region                    base        size      attribute
========================  ==========  ========  =========
``dram_ns``               0x80000000  256 MiB   non-secure
``shmem``                 0xFE000000    8 MiB   non-secure (TEE shared mem)
``dram_secure``           0xF0000000   32 MiB   secure (OP-TEE carveout)
``secure_heap``           0xF2000000   16 MiB   secure (TA heap, small!)
``mmio``                  0x03000000   16 MiB   device
========================  ==========  ========  =========

The secure heap is deliberately small: the paper's Section V names limited
TEE memory as the binding constraint on in-enclave ML, and experiments T3
and T5 measure against this budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs import Observability
from repro.sim.clock import SimClock
from repro.sim.config import SimConfig
from repro.sim.rng import SimRng
from repro.tz.costs import CostModel
from repro.tz.memory import (
    MemoryAllocator,
    MemoryRegion,
    PhysicalMemory,
    SecurityAttr,
)
from repro.tz.monitor import SecureMonitor
from repro.tz.worlds import Cpu, World

MIB = 1024 * 1024


@dataclass
class MachineConfig:
    """Sizes and costs for one machine instance."""

    dram_ns_bytes: int = 256 * MIB
    shmem_bytes: int = 8 * MIB
    dram_secure_bytes: int = 32 * MIB
    secure_heap_bytes: int = 16 * MIB
    mmio_bytes: int = 16 * MIB
    costs: CostModel = field(default_factory=CostModel)
    sim: SimConfig = field(default_factory=SimConfig)


class TrustZoneMachine:
    """A booted TrustZone platform, ready for an OS in each world."""

    def __init__(self, config: MachineConfig | None = None):
        self.config = config or MachineConfig()
        self.clock: SimClock = self.config.sim.build_clock()
        self.rng: SimRng = self.config.sim.build_rng()
        self.costs: CostModel = self.config.costs
        self.cpu = Cpu(self.clock)
        self.obs = Observability(self.clock, self.cpu)

        self.memory = PhysicalMemory(self.clock, self.obs.tracer, self.costs)
        self.dram_ns = self.memory.add_region(
            MemoryRegion("dram_ns", 0x8000_0000, self.config.dram_ns_bytes,
                         SecurityAttr.NONSECURE)
        )
        self.shmem = self.memory.add_region(
            MemoryRegion("shmem", 0xFE00_0000, self.config.shmem_bytes,
                         SecurityAttr.NONSECURE)
        )
        self.dram_secure = self.memory.add_region(
            MemoryRegion("dram_secure", 0xF000_0000, self.config.dram_secure_bytes,
                         SecurityAttr.SECURE)
        )
        self.secure_heap_region = self.memory.add_region(
            MemoryRegion("secure_heap", 0xF200_0000, self.config.secure_heap_bytes,
                         SecurityAttr.SECURE)
        )
        self.mmio = self.memory.add_region(
            MemoryRegion("mmio", 0x0300_0000, self.config.mmio_bytes,
                         SecurityAttr.NONSECURE, device=True)
        )

        self.monitor = SecureMonitor(self.cpu, self.clock, self.costs,
                                     metrics=self.obs.metrics)
        from repro.tz.interrupts import InterruptController

        self.gic = InterruptController(
            self.cpu, self.monitor, self.clock, self.obs.tracer, self.costs
        )

        # Allocators over the general-purpose regions.
        self.ns_allocator = MemoryAllocator(self.dram_ns)
        self.shmem_allocator = MemoryAllocator(self.shmem)
        self.secure_allocator = MemoryAllocator(self.dram_secure)
        self.secure_heap = MemoryAllocator(self.secure_heap_region)

        # Secure-world chaos injector; installed by the platform when a
        # SecureFaultConfig is supplied, None on a healthy machine.  Hook
        # points (OP-TEE dispatch, secure heap, DMA, sealed storage) probe
        # it so that with no injector — or all rates zero — their fast
        # path is a single attribute check.
        self.secure_faults = None

    # -- convenience -----------------------------------------------------------

    def read(self, addr: int, size: int) -> bytes:
        """Load as the *current* world."""
        return self.memory.read(addr, size, self.cpu.world)

    def write(self, addr: int, data: bytes) -> None:
        """Store as the *current* world."""
        self.memory.write(addr, data, self.cpu.world)

    def secure_peripheral(self, region: MemoryRegion) -> None:
        """Move a peripheral's partition to the secure world.

        This is step 1 of the paper's design: the I²S controller and the
        driver's I/O buffers become inaccessible to the untrusted OS.  Must
        be invoked while the CPU is in the secure world (OP-TEE boot or a
        PTA), matching the hardware programming model.
        """
        self.memory.tzasc.reprogram(region, SecurityAttr.SECURE, self.cpu.world)

    def world(self) -> World:
        """Current CPU world."""
        return self.cpu.world

    def summary(self) -> dict:
        """Machine counters for reports and tests."""
        return {
            "cycles": self.clock.now,
            "seconds": self.clock.now_seconds,
            "world_switches": self.cpu.switch_count,
            "smc_calls": self.monitor.smc_count,
            "mem_accesses": self.memory.access_count,
            "tzasc_violations": self.memory.violation_count,
        }
