"""Attack models for the compromised normal world.

The paper's threat model (Section I): sensitive peripheral data leaks both
to the cloud provider and to a compromised OS.  These models give the
threat teeth so the evaluation can *measure* it:

* :class:`BufferSnoopAttack` — a rooted OS reads the driver's I/O buffers
  directly (it knows their addresses; it allocated them in the baseline).
* :class:`MemoryScanner` — a cold-boot style sweep of all normal-world
  readable memory for a byte pattern.
* :class:`WireEavesdropper` — observes every byte the device sends to the
  network (the supplicant's wire log).

Each attack runs with normal-world privileges only; against the secure
configuration its reads hit TZASC faults, which the result records.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SecureAccessViolation
from repro.optee.supplicant import NetworkService
from repro.tz.machine import TrustZoneMachine
from repro.tz.memory import SecurityAttr
from repro.tz.worlds import World


@dataclass
class AttackResult:
    """What an attack run obtained."""

    captured: list[bytes] = field(default_factory=list)
    violations: int = 0
    attempted: int = 0

    @property
    def succeeded(self) -> bool:
        """True if the attacker obtained any bytes at all."""
        return any(len(c) > 0 for c in self.captured)

    @property
    def bytes_captured(self) -> int:
        """Total bytes exfiltrated."""
        return sum(len(c) for c in self.captured)


class BufferSnoopAttack:
    """Compromised OS reads driver I/O buffers by address.

    ``targets`` is a list of ``(addr, size)`` pairs — in the baseline these
    are the kernel host's own allocations, which a rooted OS trivially
    knows; for the secure configuration they are the secure driver's
    buffer addresses, which an attacker could learn from a leaked log but
    still cannot *read*.
    """

    def __init__(self, machine: TrustZoneMachine):
        self.machine = machine

    def run(self, targets: list[tuple[int, int]]) -> AttackResult:
        """Attempt an architectural normal-world read of every target."""
        result = AttackResult()
        for addr, size in targets:
            result.attempted += 1
            try:
                data = self.machine.memory.read(addr, size, World.NORMAL)
                result.captured.append(data)
            except SecureAccessViolation:
                result.violations += 1
        self.machine.obs.tracer.emit(
            "attack.snoop", "run",
            attempted=result.attempted,
            captured=len(result.captured),
            violations=result.violations,
        )
        return result


class MemoryScanner:
    """Whole-memory sweep for a byte pattern, normal-world privileges.

    The access-control probe is architectural (one read per region, so the
    TZASC verdict is authoritative); the byte search within an accessible
    region then uses the raw backing store to keep simulation time sane —
    semantically identical to reading the whole region, minus the cycle
    charge, which :attr:`charge_scan` re-adds in one lump.
    """

    def __init__(self, machine: TrustZoneMachine, charge_scan: bool = True):
        self.machine = machine
        self.charge_scan = charge_scan

    def scan(self, pattern: bytes) -> AttackResult:
        """Find all occurrences of ``pattern`` in readable memory."""
        if not pattern:
            raise ValueError("empty scan pattern")
        result = AttackResult()
        for region in self.machine.memory.regions():
            if region.device:
                continue  # scanning MMIO would perturb device state
            result.attempted += 1
            try:
                self.machine.memory.read(region.base, 1, World.NORMAL)
            except SecureAccessViolation:
                result.violations += 1
                continue
            if self.charge_scan:
                cycles = self.machine.costs.mem_copy_cycles(region.size, False)
                self.machine.clock.advance(cycles, World.NORMAL.domain)
            blob = region.read_raw(region.base, region.size)
            start = 0
            while True:
                idx = blob.find(pattern, start)
                if idx < 0:
                    break
                result.captured.append(blob[idx : idx + len(pattern)])
                start = idx + 1
        return result

    def readable_regions(self) -> list[str]:
        """Names of regions the normal world can read (reconnaissance)."""
        out = []
        for region in self.machine.memory.regions():
            if self.machine.memory.tzasc.attr_of(region) is SecurityAttr.NONSECURE:
                out.append(region.name)
        return out


class WireEavesdropper:
    """Observes all traffic the device sent to the network."""

    def __init__(self, net: NetworkService):
        self.net = net

    def run(self) -> AttackResult:
        """Capture the full wire log (always 'succeeds'; the question is
        whether the captured bytes are plaintext or ciphertext)."""
        result = AttackResult()
        result.attempted = len(self.net.wire_log)
        result.captured = [bytes(b) for b in self.net.wire_log]
        return result

    def plaintext_hits(self, needles: list[bytes]) -> int:
        """How many needles appear verbatim in the captured traffic."""
        joined = b"".join(self.net.wire_log)
        return sum(1 for n in needles if n and n in joined)
