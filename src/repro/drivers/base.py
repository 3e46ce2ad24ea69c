"""Driver framework with built-in function instrumentation.

Two of the paper's mechanisms hang off this module:

1. **Tracing (research plan item 2).**  Every driver entry point and
   internal helper is declared with :func:`driver_fn`.  Calling it notifies
   the host's tracer (when one is recording) with the function's metadata,
   exactly like the kernel ftrace logging the paper describes: "logging of
   driver function calls when a particular task ... is being executed".

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
        True for functions callable from outside the driver (the char
        device, the PTA).  An entry point settles its host when it returns
        or raises: the cycles it and the helpers it called priced are
        charged then, in one clock charge per host.  The TCB analyzer
        does not read it.
    """

    def decorate(fn: Callable) -> Callable:
        name = fn.__name__
        info = DriverFunctionInfo(
            name=name, loc=loc, subsystem=subsystem, entry_point=entry_point
        )

        @functools.wraps(fn)
        def wrapper(self: "Driver", *args: Any, **kwargs: Any) -> Any:
            if name in self.compiled_out:
                raise DriverError(
                    f"{self.NAME}: function {name!r} was compiled out of "
                    f"this build"
                )
            host = self.host
            host.on_driver_call(self.NAME, info)
            if not entry_point:
                return fn(self, *args, **kwargs)
            try:
                return fn(self, *args, **kwargs)
            finally:
                host.settle()

        wrapper.driver_info = info  # type: ignore[attr-defined]
        return wrapper

    return decorate


class Driver:
    """Base class for instrumented drivers.

    Subclasses define functionality as ``@driver_fn``-decorated methods.
    Each call passes through the host's ``on_driver_call`` hook (per-call
    bookkeeping cycles, plus the trace record while a tracer is recording)
    and the compiled-out check of a minimized build; an entry point also
    settles the host's pending cycles on the way out.
    """

    NAME = "driver.base"

    def __init__(self, host: "DriverHost", compiled_out: frozenset[str] = frozenset()):
        self.host = host
        self.compiled_out = frozenset(compiled_out)

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
