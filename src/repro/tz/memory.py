"""Physical memory, TZASC partitioning, and secure allocation.

The TrustZone Address Space Controller (TZASC) is the hardware mechanism
that makes the paper's design sound: once a region is marked *secure*, a
normal-world access to it faults.  Porting the driver into OP-TEE only
protects peripheral data because the driver's I/O buffers live in such a
region (Fig. 1 step 3).

This module models:

* :class:`MemoryRegion` — one contiguous range with a byte backing store,
* :class:`Tzasc` — the partition programming interface,
* :class:`PhysicalMemory` — the address-space router that performs every
  load/store, applying the TZASC check, charging cycles and recording
  TZASC faults as events,
* :class:`MemoryAllocator` — a first-fit allocator used for both the
  normal-world heap and the OP-TEE secure heap.
"""

from __future__ import annotations

import enum
import mmap
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import InvalidAddressError, SecureAccessViolation
from repro.sim.clock import SimClock
from repro.tz.costs import CostModel
from repro.tz.worlds import World

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.span import SpanTracer


class SecurityAttr(enum.Enum):
    """TZASC security attribute of a memory partition."""

    SECURE = "secure"
    NONSECURE = "nonsecure"

    __hash__ = object.__hash__  # singletons: see CycleDomain.__hash__


@dataclass
class MemoryRegion:
    """One contiguous physical region with a byte backing store.

    The store is an anonymous ``mmap`` rather than a ``bytearray``: the
    kernel hands out zero pages lazily, so creating a 256 MiB region
    costs microseconds instead of a quarter-second memset.  That is what
    makes per-device machine construction cheap enough to simulate
    thousands of fleet devices; reads and writes behave identically
    (slices of zeroed memory) either way.
    """

    name: str
    base: int
    size: int
    attr: SecurityAttr
    device: bool = False
    _data: Any = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"region {self.name!r} must have positive size")
        if self.base < 0:
            raise ValueError(f"region {self.name!r} has negative base")
        if not self._data:
            self._data = mmap.mmap(-1, self.size)

    @property
    def end(self) -> int:
        """One past the last valid address."""
        return self.base + self.size

    def contains(self, addr: int, size: int = 1) -> bool:
        """True if ``[addr, addr+size)`` lies entirely in this region."""
        return self.base <= addr and addr + size <= self.end

    def overlaps(self, other: "MemoryRegion") -> bool:
        """True if this region shares any address with ``other``."""
        return self.base < other.end and other.base < self.end

    def read_raw(self, addr: int, size: int) -> bytes:
        """Read without any security check (backdoor for attack models)."""
        off = addr - self.base
        return bytes(self._data[off : off + size])

    def write_raw(self, addr: int, data: bytes) -> None:
        """Write without any security check (backdoor for attack models)."""
        off = addr - self.base
        self._data[off : off + len(data)] = data


class Tzasc:
    """The TZASC programming interface.

    Each mapped region is one partition, and ``region.attr`` is the only
    record of its attribute: regions start with their declared attribute,
    and secure-world software (and only secure-world software) may later
    reprogram a partition, which is how OP-TEE claims carveouts at boot.
    """

    def __init__(self, tracer: "SpanTracer | None" = None):
        self._tracer = tracer

    def attr_of(self, region: MemoryRegion) -> SecurityAttr:
        """Current attribute of a partition."""
        return region.attr

    def reprogram(self, region: MemoryRegion, attr: SecurityAttr, world: World) -> None:
        """Change a partition's attribute.  Secure world only.

        Raises :class:`SecureAccessViolation` if the normal world attempts
        it — on hardware the TZASC programming interface is itself a secure
        peripheral.
        """
        if world is not World.SECURE:
            raise SecureAccessViolation(
                f"normal world attempted to reprogram TZASC partition "
                f"{region.name!r}"
            )
        region.attr = attr
        if self._tracer is not None:
            self._tracer.emit(
                "tz.tzasc", "reprogram", region=region.name, attr=attr.value
            )


class PhysicalMemory:
    """The machine's physical address space.

    All architectural loads/stores go through :meth:`read` / :meth:`write`,
    which resolve the target region, apply the TZASC check for the acting
    world and charge memory cycles; a TZASC fault is recorded as a
    ``tz.fault`` event on the tracer.  Device regions may attach MMIO
    handlers that intercept accesses (used by the I²S controller's
    register file).
    """

    def __init__(
        self,
        clock: SimClock,
        tracer: "SpanTracer",
        costs: CostModel,
    ):
        self.clock = clock
        self.tracer = tracer
        self.costs = costs
        self.tzasc = Tzasc(tracer)
        self._regions: list[MemoryRegion] = []
        self._mmio_handlers: dict[str, "MmioHandler"] = {}
        self.access_count = 0
        self.violation_count = 0

    # -- topology ------------------------------------------------------------

    def add_region(self, region: MemoryRegion) -> MemoryRegion:
        """Map a region into the address space.

        It must not overlap a mapped region or reuse a mapped region's
        name: :meth:`region` and the MMIO handler table are keyed by name.
        """
        for existing in self._regions:
            if existing.name == region.name:
                raise ValueError(f"region name {region.name!r} already mapped")
            if existing.overlaps(region):
                raise ValueError(
                    f"region {region.name!r} overlaps {existing.name!r}"
                )
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.base)
        return region

    def region(self, name: str) -> MemoryRegion:
        """Look up a region by name."""
        for r in self._regions:
            if r.name == name:
                return r
        raise InvalidAddressError(f"no region named {name!r}")

    def regions(self) -> list[MemoryRegion]:
        """All mapped regions, sorted by base address."""
        return list(self._regions)

    def resolve(self, addr: int, size: int = 1) -> MemoryRegion:
        """Find the region containing ``[addr, addr+size)``.

        Every load and store runs this scan, so it compares bounds itself
        rather than calling :meth:`MemoryRegion.contains` per region.
        """
        end = addr + size
        for r in self._regions:
            if r.base <= addr and end <= r.base + r.size:
                return r
        raise InvalidAddressError(
            f"access to unmapped address 0x{addr:x} (+{size})"
        )

    def attach_mmio(self, region_name: str, handler: "MmioHandler") -> None:
        """Attach an MMIO handler to a device region."""
        region = self.region(region_name)
        if not region.device:
            raise ValueError(f"region {region_name!r} is not a device region")
        self._mmio_handlers[region_name] = handler

    # -- architectural access ---------------------------------------------------

    def read(self, addr: int, size: int, world: World) -> bytes:
        """Architectural load with TZASC enforcement and cycle charging."""
        region = self._access(addr, size, world, write=False)
        handler = self._mmio_handlers.get(region.name)
        if handler is not None:
            return handler.mmio_read(addr - region.base, size)
        return region.read_raw(addr, size)

    def write(self, addr: int, data: bytes, world: World) -> None:
        """Architectural store with TZASC enforcement and cycle charging."""
        region = self._access(addr, len(data), world, write=True)
        handler = self._mmio_handlers.get(region.name)
        if handler is not None:
            handler.mmio_write(addr - region.base, data)
            return
        region.write_raw(addr, data)

    def attr_at(self, addr: int) -> SecurityAttr:
        """Security attribute of the partition containing ``addr``."""
        return self.resolve(addr).attr

    # -- internals ------------------------------------------------------------

    def _access(
        self, addr: int, size: int, world: World, write: bool
    ) -> MemoryRegion:
        """Resolve, TZASC-check, count and charge one transaction.

        The hardware rule: the secure world sees every partition, the
        normal world only non-secure ones.  A permitted access counts once
        and charges its memory cycles to ``world``'s domain; a faulting one
        counts in both counters, emits a ``tz.fault`` event and raises
        before any charge.
        """
        region = self.resolve(addr, size)
        self.access_count += 1
        secure = region.attr is SecurityAttr.SECURE
        if secure and world is not World.SECURE:
            self.violation_count += 1
            self.tracer.emit(
                "tz.fault",
                "secure_access_violation",
                region=region.name,
                addr=addr,
                world=world.value,
                write=write,
            )
            raise SecureAccessViolation(
                f"{world.value} world access to secure region {region.name!r}"
            )
        self.clock.advance(self.costs.mem_copy_cycles(size, secure),
                           world.domain)
        return region


class MmioHandler:
    """Interface for device register files mapped into a device region."""

    def mmio_read(self, offset: int, size: int) -> bytes:  # pragma: no cover - interface
        raise NotImplementedError

    def mmio_write(self, offset: int, data: bytes) -> None:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass
class _Allocation:
    offset: int
    size: int


class MemoryAllocator:
    """First-fit allocator over one region.

    Used for the normal-world heap and — with a deliberately small region —
    the OP-TEE secure heap, so 'model does not fit in the TEE' is a real,
    observable failure mode (paper Section V).
    """

    def __init__(self, region: MemoryRegion, align: int = 64):
        self.region = region
        self.align = align
        self._allocs: dict[int, _Allocation] = {}  # base addr -> allocation

    @property
    def total_bytes(self) -> int:
        """Capacity of the managed region."""
        return self.region.size

    @property
    def used_bytes(self) -> int:
        """Bytes currently allocated."""
        return sum(a.size for a in self._allocs.values())

    @property
    def free_bytes(self) -> int:
        """Bytes not currently allocated (may be fragmented)."""
        return self.total_bytes - self.used_bytes

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes; returns the physical base address.

        Raises :class:`MemoryError` when no free gap fits (callers in the
        OP-TEE layer translate this to ``TeeOutOfMemory``).
        """
        if size <= 0:
            raise ValueError("allocation size must be positive")
        size = (size + self.align - 1) // self.align * self.align
        cursor = 0
        for off in sorted(a.offset for a in self._allocs.values()):
            alloc = next(a for a in self._allocs.values() if a.offset == off)
            if off - cursor >= size:
                break
            cursor = off + alloc.size
        if cursor + size > self.region.size:
            raise MemoryError(
                f"allocator for {self.region.name!r} exhausted: "
                f"need {size}, free {self.free_bytes} (fragmented)"
            )
        addr = self.region.base + cursor
        self._allocs[addr] = _Allocation(cursor, size)
        return addr

    def free(self, addr: int) -> None:
        """Release an allocation by its base address."""
        if addr not in self._allocs:
            raise ValueError(f"free of unallocated address 0x{addr:x}")
        del self._allocs[addr]

    def owns(self, addr: int) -> bool:
        """True if ``addr`` is the base of a live allocation."""
        return addr in self._allocs
