"""Security audit reporting.

One of the operational wins of the secure design: attacks that used to
succeed silently now leave *evidence* — TZASC faults, TA panics and the
events that record them.  This module condenses the machine's events and
counters into the incident report a fleet operator would read, and
supports simple anomaly queries ("did anything touch secure memory
today?").
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.tz.machine import TrustZoneMachine


@dataclass(frozen=True)
class ViolationRecord:
    """One TZASC fault, attributed."""

    timestamp: int
    region: str
    address: int
    write: bool


@dataclass
class SecurityAuditReport:
    """Condensed security-relevant activity of one machine run."""

    violations: list[ViolationRecord] = field(default_factory=list)
    violations_by_region: dict[str, int] = field(default_factory=dict)
    ta_panics: int = 0
    world_switches: int = 0
    smc_calls: int = 0
    supplicant_rpcs: int = 0
    bytes_on_wire: int = 0

    @property
    def compromised_indicators(self) -> bool:
        """True if anything an operator should page on happened."""
        return bool(self.violations) or self.ta_panics > 0

    def render(self) -> str:
        """Plain-text incident summary."""
        lines = ["security audit", "=" * 14]
        status = "ATTENTION" if self.compromised_indicators else "clean"
        lines.append(f"status           : {status}")
        lines.append(f"TZASC violations : {len(self.violations)}")
        for region, count in sorted(self.violations_by_region.items()):
            lines.append(f"  - {region}: {count}")
        lines.append(f"TA panics        : {self.ta_panics}")
        lines.append(f"world switches   : {self.world_switches}")
        lines.append(f"SMC calls        : {self.smc_calls}")
        lines.append(f"supplicant RPCs  : {self.supplicant_rpcs}")
        lines.append(f"bytes on wire    : {self.bytes_on_wire}")
        return "\n".join(lines)


def audit_machine(
    machine: TrustZoneMachine,
    supplicant=None,
) -> SecurityAuditReport:
    """Build the audit report from a machine's events and counters."""
    tracer = machine.obs.tracer
    violations = []
    by_region: Counter[str] = Counter()
    for event in tracer.spans_in("tz.fault"):
        record = ViolationRecord(
            timestamp=event.start_cycle,
            region=str(event.attrs.get("region")),
            address=int(event.attrs.get("addr", 0)),
            write=bool(event.attrs.get("write")),
        )
        violations.append(record)
        by_region[record.region] += 1

    panics = sum(
        1 for e in tracer.spans_in("optee.os") if e.name == "ta_panic"
    )
    rpcs = machine.obs.metrics.counters("optee.rpc").get("optee.rpc", 0)
    report = SecurityAuditReport(
        violations=violations,
        violations_by_region=dict(by_region),
        ta_panics=panics,
        world_switches=machine.cpu.switch_count,
        smc_calls=machine.monitor.smc_count,
        supplicant_rpcs=rpcs,
        bytes_on_wire=supplicant.net.bytes_sent if supplicant else 0,
    )
    return report
