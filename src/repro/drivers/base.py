"""Driver framework with built-in function instrumentation.

Two of the paper's mechanisms hang off this module:

1. **Tracing (research plan item 2).**  Every driver entry point and
   internal helper is declared with :func:`driver_fn`.  Calling it notifies
   the host's tracer (when one is attached) with the function name and its
   caller, exactly like the kernel ftrace logging the paper describes:
   "logging of driver function calls when a particular task ... is being
   executed".

2. **Conditional compilation.**  A driver *build* may exclude functions
   (``compiled_out``); invoking an excluded function raises, modelling the
   paper's "conditional compiler directives to selectively exclude driver
   functions ... from being compiled and included in the final OP-TEE
   image".  The TCB analyzer computes which functions a task needs and
   produces such builds.

Each ``@driver_fn`` also records a ``loc`` (lines of code) figure so TCB
size can be reported in both functions and LoC, as a driver-porting effort
metric.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import DriverError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.drivers.hosting import DriverHost


@dataclass(frozen=True)
class DriverFunctionInfo:
    """Static metadata about one driver function."""

    name: str
    loc: int
    subsystem: str
    entry_point: bool


def driver_fn(
    loc: int,
    subsystem: str = "core",
    entry_point: bool = False,
) -> Callable:
    """Declare a driver function.

    Parameters
    ----------
    loc:
        Source lines this function would contribute to the ported image —
        the unit the TCB reduction experiment (T2) reports.
    subsystem:
        Grouping label (``"pcm"``, ``"clock"``, ``"power"``, ...) used in
        TCB breakdowns.
    entry_point:
        True for functions callable from outside the driver (the tracer
        treats calls to them as new call-stack roots).
    """

    def decorate(fn: Callable) -> Callable:
        info = DriverFunctionInfo(
            name=fn.__name__, loc=loc, subsystem=subsystem, entry_point=entry_point
        )

        @functools.wraps(fn)
        def wrapper(self: "Driver", *args: Any, **kwargs: Any) -> Any:
            return self._call_driver_fn(info, fn, args, kwargs)

        wrapper.driver_info = info  # type: ignore[attr-defined]
        return wrapper

    return decorate


class Driver:
    """Base class for instrumented drivers.

    Subclasses define functionality as ``@driver_fn``-decorated methods.
    The base class maintains the live call stack (for caller attribution in
    traces), charges per-call bookkeeping cycles, and enforces the
    compiled-out set of a minimized build.
    """

    NAME = "driver.base"

    def __init__(self, host: "DriverHost", compiled_out: frozenset[str] = frozenset()):
        self.host = host
        self.compiled_out = frozenset(compiled_out)
        self._call_stack: list[str] = []
        self.call_counts: dict[str, int] = {}

    # -- introspection ---------------------------------------------------------

    @classmethod
    def functions(cls) -> dict[str, DriverFunctionInfo]:
        """All declared driver functions of this class, by name."""
        out: dict[str, DriverFunctionInfo] = {}
        for attr in dir(cls):
            member = getattr(cls, attr, None)
            info = getattr(member, "driver_info", None)
            if isinstance(info, DriverFunctionInfo):
                out[info.name] = info
        return out

    @classmethod
    def total_loc(cls) -> int:
        """LoC of the full (un-minimized) driver."""
        return sum(info.loc for info in cls.functions().values())

    def compiled_loc(self) -> int:
        """LoC actually present in this build."""
        return sum(
            info.loc
            for info in self.functions().values()
            if info.name not in self.compiled_out
        )

    # -- instrumented dispatch ----------------------------------------------------

    def _call_driver_fn(
        self,
        info: DriverFunctionInfo,
        fn: Callable,
        args: tuple,
        kwargs: dict,
    ) -> Any:
        name = info.name
        if name in self.compiled_out:
            raise DriverError(
                f"{self.NAME}: function {name!r} was compiled out of "
                f"this build"
            )
        stack = self._call_stack
        self.host.on_driver_call(self.NAME, info, stack[-1] if stack else None)
        counts = self.call_counts
        counts[name] = counts.get(name, 0) + 1
        stack.append(name)
        try:
            return fn(self, *args, **kwargs)
        finally:
            stack.pop()
