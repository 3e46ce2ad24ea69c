"""Unit tests: physical memory, TZASC, allocator."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import InvalidAddressError, SecureAccessViolation
from repro.obs.span import SpanTracer
from repro.sim.clock import CycleDomain, SimClock
from repro.tz.costs import CostModel
from repro.tz.memory import (
    MemoryAllocator,
    MemoryRegion,
    MmioHandler,
    PhysicalMemory,
    SecurityAttr,
    Tzasc,
)
from repro.tz.worlds import World


def make_memory() -> PhysicalMemory:
    clock = SimClock()
    return PhysicalMemory(clock, SpanTracer(clock), CostModel())


class TestRegions:
    def test_contains(self):
        r = MemoryRegion("r", 0x1000, 0x100, SecurityAttr.NONSECURE)
        assert r.contains(0x1000)
        assert r.contains(0x10FF)
        assert not r.contains(0x1100)
        assert r.contains(0x10F0, 0x10)
        assert not r.contains(0x10F0, 0x11)

    def test_overlap_detection(self):
        mem = make_memory()
        mem.add_region(MemoryRegion("a", 0x1000, 0x100, SecurityAttr.NONSECURE))
        with pytest.raises(ValueError):
            mem.add_region(MemoryRegion("b", 0x10FF, 0x10, SecurityAttr.NONSECURE))

    def test_adjacent_regions_allowed(self):
        mem = make_memory()
        mem.add_region(MemoryRegion("a", 0x1000, 0x100, SecurityAttr.NONSECURE))
        mem.add_region(MemoryRegion("b", 0x1100, 0x100, SecurityAttr.NONSECURE))
        assert len(mem.regions()) == 2

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            MemoryRegion("r", 0, 0, SecurityAttr.NONSECURE)
        with pytest.raises(ValueError):
            MemoryRegion("r", -4, 16, SecurityAttr.NONSECURE)

    def test_unmapped_access_faults(self):
        mem = make_memory()
        with pytest.raises(InvalidAddressError):
            mem.read(0xDEAD_0000, 4, World.NORMAL)

    def test_region_lookup_by_name(self):
        mem = make_memory()
        mem.add_region(MemoryRegion("a", 0x0, 0x10, SecurityAttr.NONSECURE))
        assert mem.region("a").base == 0
        with pytest.raises(InvalidAddressError):
            mem.region("nope")


class TestDuplicateRegionNames:
    """``region(name)`` and the MMIO handler table are keyed by name, so a
    second region reusing a mapped name must be refused; each test is one
    way such an alias would expose, lock or shadow a region."""

    def test_nonsecure_alias_cannot_expose_secure_region(self):
        mem = make_memory()
        mem.add_region(MemoryRegion("buf", 0x2000, 0x100, SecurityAttr.SECURE))
        mem.write(0x2000, b"KEY!", World.SECURE)
        with pytest.raises(ValueError, match="already mapped"):
            mem.add_region(
                MemoryRegion("buf", 0x3000, 0x100, SecurityAttr.NONSECURE)
            )
        with pytest.raises(SecureAccessViolation):
            mem.read(0x2000, 4, World.NORMAL)

    def test_secure_alias_cannot_lock_nonsecure_region(self):
        mem = make_memory()
        mem.add_region(MemoryRegion("buf", 0x1000, 0x100, SecurityAttr.NONSECURE))
        with pytest.raises(ValueError, match="already mapped"):
            mem.add_region(MemoryRegion("buf", 0x2000, 0x100, SecurityAttr.SECURE))
        mem.write(0x1000, b"ok", World.NORMAL)
        assert mem.read(0x1000, 2, World.NORMAL) == b"ok"

    def test_alias_cannot_inherit_mmio_handler(self):
        class Registers(MmioHandler):
            def mmio_read(self, offset, size):
                return b"\xaa" * size

        mem = make_memory()
        mem.add_region(
            MemoryRegion("dev", 0x1000, 0x100, SecurityAttr.NONSECURE, device=True)
        )
        mem.attach_mmio("dev", Registers())
        with pytest.raises(ValueError, match="already mapped"):
            mem.add_region(
                MemoryRegion("dev", 0x2000, 0x100, SecurityAttr.NONSECURE)
            )
        with pytest.raises(InvalidAddressError):
            mem.read(0x2000, 4, World.NORMAL)
        assert mem.read(0x1000, 4, World.NORMAL) == b"\xaa" * 4
        assert [r.name for r in mem.regions()] == ["dev"]


class TestTzascEnforcement:
    def _mem(self):
        mem = make_memory()
        mem.add_region(MemoryRegion("ns", 0x1000, 0x100, SecurityAttr.NONSECURE))
        mem.add_region(MemoryRegion("s", 0x2000, 0x100, SecurityAttr.SECURE))
        return mem

    def test_normal_world_reads_nonsecure(self):
        mem = self._mem()
        mem.write(0x1000, b"hello", World.NORMAL)
        assert mem.read(0x1000, 5, World.NORMAL) == b"hello"

    def test_normal_world_blocked_from_secure_read(self):
        mem = self._mem()
        with pytest.raises(SecureAccessViolation):
            mem.read(0x2000, 4, World.NORMAL)

    def test_normal_world_blocked_from_secure_write(self):
        mem = self._mem()
        with pytest.raises(SecureAccessViolation):
            mem.write(0x2000, b"x", World.NORMAL)

    def test_secure_world_reads_everything(self):
        mem = self._mem()
        mem.write(0x1000, b"ns", World.SECURE)
        mem.write(0x2000, b"s!", World.SECURE)
        assert mem.read(0x1000, 2, World.SECURE) == b"ns"
        assert mem.read(0x2000, 2, World.SECURE) == b"s!"

    def test_violation_counted_and_traced(self):
        mem = self._mem()
        with pytest.raises(SecureAccessViolation):
            mem.read(0x2000, 4, World.NORMAL)
        assert mem.violation_count == 1
        assert len(mem.tracer.spans_in("tz.fault")) == 1

    def test_violation_leaves_data_intact(self):
        mem = self._mem()
        mem.write(0x2000, b"secret", World.SECURE)
        with pytest.raises(SecureAccessViolation):
            mem.write(0x2000, b"mallet", World.NORMAL)
        assert mem.read(0x2000, 6, World.SECURE) == b"secret"


class TestTzascReprogramming:
    def test_secure_world_can_reprogram(self):
        mem = make_memory()
        region = mem.add_region(
            MemoryRegion("p", 0x1000, 0x100, SecurityAttr.NONSECURE)
        )
        mem.tzasc.reprogram(region, SecurityAttr.SECURE, World.SECURE)
        with pytest.raises(SecureAccessViolation):
            mem.read(0x1000, 4, World.NORMAL)

    def test_normal_world_cannot_reprogram(self):
        mem = make_memory()
        region = mem.add_region(
            MemoryRegion("p", 0x1000, 0x100, SecurityAttr.SECURE)
        )
        with pytest.raises(SecureAccessViolation):
            mem.tzasc.reprogram(region, SecurityAttr.NONSECURE, World.NORMAL)
        # Still secure afterwards.
        with pytest.raises(SecureAccessViolation):
            mem.read(0x1000, 4, World.NORMAL)

    def test_reprogram_event_stamped_at_claim_cycle(self):
        mem = make_memory()
        region = mem.add_region(
            MemoryRegion("p", 0x1000, 0x100, SecurityAttr.NONSECURE)
        )
        mem.clock.advance(61_700, CycleDomain.SECURE_CPU)
        claimed_at = mem.clock.now
        mem.tzasc.reprogram(region, SecurityAttr.SECURE, World.SECURE)
        mem.clock.advance(500, CycleDomain.SECURE_CPU)
        (event,) = mem.tracer.spans_in("tz.tzasc")
        assert event.start_cycle == event.end_cycle == claimed_at
        assert event.attrs == {"region": "p", "attr": "secure"}

    def test_attr_of_tracks_reprogramming(self):
        tzasc = Tzasc()
        region = MemoryRegion("p", 0, 16, SecurityAttr.NONSECURE)
        assert tzasc.attr_of(region) is SecurityAttr.NONSECURE
        tzasc.reprogram(region, SecurityAttr.SECURE, World.SECURE)
        assert tzasc.attr_of(region) is SecurityAttr.SECURE


class TestCycleCharging:
    def test_reads_cost_cycles(self):
        mem = make_memory()
        mem.add_region(MemoryRegion("ns", 0x0, 0x1000, SecurityAttr.NONSECURE))
        before = mem.clock.now
        mem.read(0x0, 256, World.NORMAL)
        assert mem.clock.now > before

    def test_secure_traffic_costs_more(self):
        costs = CostModel()
        assert costs.mem_copy_cycles(4096, secure=True) > costs.mem_copy_cycles(
            4096, secure=False
        )

    def test_larger_transfers_cost_more(self):
        costs = CostModel()
        assert costs.mem_copy_cycles(65536, False) > costs.mem_copy_cycles(64, False)


class TestAllocator:
    def _alloc(self, size=0x1000) -> MemoryAllocator:
        return MemoryAllocator(
            MemoryRegion("heap", 0x8000, size, SecurityAttr.NONSECURE)
        )

    def test_alloc_returns_in_region(self):
        a = self._alloc()
        addr = a.alloc(100)
        assert 0x8000 <= addr < 0x9000

    def test_alloc_alignment(self):
        a = self._alloc()
        assert a.alloc(1) % 64 == 0

    def test_distinct_allocations_disjoint(self):
        a = self._alloc()
        x = a.alloc(128)
        y = a.alloc(128)
        assert abs(x - y) >= 128

    def test_exhaustion_raises(self):
        a = self._alloc(size=256)
        a.alloc(256)
        with pytest.raises(MemoryError):
            a.alloc(64)

    def test_free_enables_reuse(self):
        a = self._alloc(size=256)
        addr = a.alloc(256)
        a.free(addr)
        assert a.alloc(256) == addr

    def test_double_free_rejected(self):
        a = self._alloc()
        addr = a.alloc(64)
        a.free(addr)
        with pytest.raises(ValueError):
            a.free(addr)

    def test_usage_accounting(self):
        a = self._alloc(size=1024)
        a.alloc(128)
        assert a.used_bytes == 128
        assert a.free_bytes == 1024 - 128

    def test_bad_sizes(self):
        a = self._alloc()
        with pytest.raises(ValueError):
            a.alloc(0)
        with pytest.raises(ValueError):
            a.alloc(-5)

    @given(st.lists(st.integers(min_value=1, max_value=300), max_size=20))
    def test_property_allocations_never_overlap(self, sizes):
        a = MemoryAllocator(
            MemoryRegion("heap", 0, 64 * 1024, SecurityAttr.NONSECURE)
        )
        spans = []
        for size in sizes:
            addr = a.alloc(size)
            aligned = (size + 63) // 64 * 64
            for base, length in spans:
                assert addr + aligned <= base or base + length <= addr
            spans.append((addr, aligned))
