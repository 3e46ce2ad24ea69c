"""Trace analysis: from call logs to a minimization plan.

"The logs are then analyzed to identify a minimal set of executed
functions necessary for the task to complete" (paper, research plan 2).

The plan keeps exactly the declared functions the trace sessions saw,
plus a caller-specified keep-list for functions that run rarely but must
survive (e.g. the overrun IRQ handler, which a clean trace never
exercises).  A function whose only record was lost (a ring-buffer overrun
on real ftrace) is not kept: the keep-list or a re-trace must restore it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.drivers.base import Driver
from repro.kernel.tracer import TraceSession
from repro.tcb.metrics import TcbReport


@dataclass(frozen=True)
class MinimizationPlan:
    """Which functions to keep / compile out for one task profile."""

    driver: str
    task: str
    keep: frozenset[str]
    compiled_out: frozenset[str]
    report: TcbReport = field(compare=False, default=None)  # type: ignore[assignment]


class TcbAnalyzer:
    """Computes minimization plans from trace sessions."""

    def __init__(self, driver_class: type[Driver]):
        self.driver_class = driver_class
        self.declared = frozenset(driver_class.functions())

    def analyze(
        self,
        sessions: list[TraceSession],
        task: str,
        always_keep: frozenset[str] = frozenset(),
    ) -> MinimizationPlan:
        """Produce a plan keeping exactly what the traced task needs.

        ``always_keep`` names functions to retain regardless of the trace
        (rare paths like error/IRQ handlers); unknown names raise so a
        typo cannot silently keep nothing.  Records of other drivers, or
        of functions this driver does not declare, are ignored.
        """
        unknown = always_keep - self.declared
        if unknown:
            raise ValueError(
                f"always_keep names unknown functions: {sorted(unknown)}"
            )
        name = self.driver_class.NAME
        traced = set().union(*(s.functions_used(name) for s in sessions))
        return self._plan(task, (self.declared & traced) | always_keep)

    def analyze_union(
        self,
        plans: list[MinimizationPlan],
        task: str = "union",
    ) -> MinimizationPlan:
        """Merge plans for several tasks into one build supporting all."""
        return self._plan(task, frozenset().union(*(p.keep for p in plans)))

    def _plan(self, task: str, keep: frozenset[str]) -> MinimizationPlan:
        return MinimizationPlan(
            driver=self.driver_class.NAME,
            task=task,
            keep=keep,
            compiled_out=self.declared - keep,
            report=TcbReport.compute(self.driver_class, keep),
        )
