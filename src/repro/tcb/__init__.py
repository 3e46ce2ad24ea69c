"""TCB minimization toolkit.

Implements the paper's research plan item 2 end to end: trace a task with
the kernel tracer, analyze the logs "to identify a minimal set of executed
functions necessary for the task to complete", and apply conditional
compilation "to selectively exclude driver functions which are not
required for the task from being compiled and included in the final
OP-TEE image".

Pipeline: :mod:`~repro.tcb.tasks` (the traced tasks) →
:class:`~repro.kernel.tracer.TraceSession` →
:class:`~repro.tcb.analyze.TcbAnalyzer` (keep = traced ∪ always-keep) →
:class:`~repro.tcb.minimize.MinimizedBuild` →
:class:`~repro.tcb.metrics.TcbReport`.
"""

from repro.tcb.analyze import MinimizationPlan, TcbAnalyzer
from repro.tcb.metrics import TcbReport
from repro.tcb.minimize import MinimizedBuild

__all__ = ["MinimizationPlan", "MinimizedBuild", "TcbAnalyzer", "TcbReport"]
