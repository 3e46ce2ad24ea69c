"""Ftrace-style driver function tracer.

Implements the paper's research plan item 2: "a tracing mechanism within
the kernel which permits to identify a minimal set of driver functionality
to be ported to OP-TEE.  This tracing mechanism involves logging of driver
function calls when a particular task, e.g., recording a sound, is being
executed."

Drivers emit call records through their host's ``on_driver_call`` hook;
while a trace session is active, each record lands here.  The set of
functions a :class:`TraceSession` saw is the input to the TCB analyzer
(:mod:`repro.tcb`): that set plus an explicit keep-list is the minimal
build, and the rest is compiled out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.drivers.base import DriverFunctionInfo
from repro.errors import KernelError


@dataclass(frozen=True)
class CallRecord:
    """One logged driver function call."""

    driver: str
    fn: str
    loc: int
    subsystem: str


@dataclass
class TraceSession:
    """All calls logged while one task ran."""

    task: str
    records: list[CallRecord] = field(default_factory=list)

    def functions_used(self, driver: str | None = None) -> set[str]:
        """Distinct functions the task executed (optionally per driver)."""
        return {
            r.fn for r in self.records if driver is None or r.driver == driver
        }

    def loc_used(self, driver: str | None = None) -> int:
        """Total LoC of the distinct functions used."""
        seen: dict[str, int] = {}
        for r in self.records:
            if driver is None or r.driver == driver:
                seen[r.fn] = r.loc
        return sum(seen.values())

    def calls_by_subsystem(self) -> dict[str, int]:
        """Call counts grouped by driver subsystem."""
        out: dict[str, int] = {}
        for r in self.records:
            out[r.subsystem] = out.get(r.subsystem, 0) + 1
        return out


class FunctionTracer:
    """The kernel's tracing facility; one session at a time."""

    def __init__(self) -> None:
        self._current: TraceSession | None = None
        self.sessions: dict[str, TraceSession] = {}

    @property
    def active(self) -> bool:
        """True while a session is recording."""
        return self._current is not None

    def start(self, task: str) -> None:
        """Begin logging under a task label."""
        if self._current is not None:
            raise KernelError(
                f"tracer busy with task {self._current.task!r}"
            )
        self._current = TraceSession(task=task)

    def record(self, driver: str, info: DriverFunctionInfo) -> None:
        """Log one call (invoked from the driver host hook)."""
        if self._current is None:
            return
        self._current.records.append(
            CallRecord(
                driver=driver,
                fn=info.name,
                loc=info.loc,
                subsystem=info.subsystem,
            )
        )

    def stop(self) -> TraceSession:
        """End the session and archive it by task label."""
        if self._current is None:
            raise KernelError("tracer is not running")
        session = self._current
        self._current = None
        self.sessions[session.task] = session
        return session

    def session(self, task: str) -> TraceSession:
        """Retrieve an archived session."""
        if task not in self.sessions:
            raise KernelError(f"no trace session for task {task!r}")
        return self.sessions[task]
