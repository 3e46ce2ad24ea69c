"""Unit tests: attack model mechanics (beyond the integration assertions)."""

import pytest

from repro.kernel.attacks import (
    AttackResult,
    BufferSnoopAttack,
    MemoryScanner,
    WireEavesdropper,
)
from repro.optee.supplicant import NetworkService
from repro.tz.worlds import World


class TestAttackResult:
    def test_success_requires_nonempty_capture(self):
        assert not AttackResult().succeeded
        assert not AttackResult(captured=[b""]).succeeded
        assert AttackResult(captured=[b"x"]).succeeded

    def test_bytes_captured(self):
        result = AttackResult(captured=[b"ab", b"cde"])
        assert result.bytes_captured == 5


class TestBufferSnoop:
    def test_mixed_targets(self, machine):
        ns = machine.ns_allocator.alloc(64)
        machine.memory.write(ns, b"public data here", World.NORMAL)
        secure = machine.secure_allocator.alloc(64)
        attack = BufferSnoopAttack(machine)
        result = attack.run([(ns, 16), (secure, 16)])
        assert result.attempted == 2
        assert result.violations == 1
        assert result.captured == [b"public data here"]

    def test_no_targets(self, machine):
        result = BufferSnoopAttack(machine).run([])
        assert not result.succeeded
        assert result.attempted == 0

    def test_attack_is_traced(self, machine):
        BufferSnoopAttack(machine).run([(machine.dram_ns.base, 4)])
        assert len(machine.obs.tracer.spans_in("attack.snoop")) == 1


class TestMemoryScanner:
    def test_finds_planted_pattern(self, machine):
        addr = machine.ns_allocator.alloc(64)
        machine.memory.write(addr, b"NEEDLE-0xDEADBEEF", World.NORMAL)
        scanner = MemoryScanner(machine, charge_scan=False)
        result = scanner.scan(b"NEEDLE-0xDEADBEEF")
        assert result.succeeded
        assert result.captured == [b"NEEDLE-0xDEADBEEF"]

    def test_finds_multiple_occurrences(self, machine):
        a = machine.ns_allocator.alloc(64)
        b = machine.ns_allocator.alloc(64)
        for addr in (a, b):
            machine.memory.write(addr, b"DUP!", World.NORMAL)
        result = MemoryScanner(machine, charge_scan=False).scan(b"DUP!")
        assert len(result.captured) == 2

    def test_secure_plant_invisible(self, machine):
        addr = machine.secure_allocator.alloc(64)
        machine.memory.write(addr, b"TOPSECRET", World.SECURE)
        result = MemoryScanner(machine, charge_scan=False).scan(b"TOPSECRET")
        assert not result.succeeded
        assert result.violations >= 2  # dram_secure + secure_heap probes

    def test_empty_pattern_rejected(self, machine):
        with pytest.raises(ValueError):
            MemoryScanner(machine).scan(b"")

    def test_charged_scan_advances_time(self, machine):
        before = machine.clock.now
        MemoryScanner(machine, charge_scan=True).scan(b"anything")
        # Scanning 256 MiB of DRAM costs real simulated time.
        assert machine.clock.now - before > 1_000_000

    def test_device_regions_skipped(self, machine):
        result = MemoryScanner(machine, charge_scan=False).scan(b"zzz")
        # mmio is a device region: neither captured from nor faulted on.
        assert result.attempted == len(
            [r for r in machine.memory.regions() if not r.device]
        )


class TestWireEavesdropper:
    def _net_with_traffic(self, payloads):
        net = NetworkService()

        class Sink:
            def receive(self, data):
                return b"ok"

        net.register_endpoint("h", 1, Sink())
        for p in payloads:
            net.call("send", "h", 1, p)
        return net

    def test_captures_everything(self):
        net = self._net_with_traffic([b"one", b"two"])
        result = WireEavesdropper(net).run()
        assert result.captured == [b"one", b"two"]

    def test_plaintext_hits(self):
        net = self._net_with_traffic([b'{"transcript": "my password is x"}'])
        eaves = WireEavesdropper(net)
        assert eaves.plaintext_hits([b"password", b"absent"]) == 1

    def test_empty_needles_ignored(self):
        net = self._net_with_traffic([b"data"])
        assert WireEavesdropper(net).plaintext_hits([b""]) == 0
