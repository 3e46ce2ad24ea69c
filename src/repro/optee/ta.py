"""Trusted application framework.

A TA is the secure-world userland program of the design: in the paper it
hosts the ASR + sensitive-content classifier and the relay module.  TAs
follow the GlobalPlatform lifecycle and interact with the rest of the TEE
only through their :class:`TaContext` — the capability object the TEE OS
hands them, exposing the secure heap, PTA invocation, supplicant RPC and
secure storage.  A TA holds *no* OS-level privileges; anything touching
hardware goes through a PTA (paper Section II).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any

from repro.errors import TeeAccessDenied, TeeOutOfMemory
from repro.optee.params import MemRef, Params
from repro.optee.uuid import TaUuid

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.span import _ActiveSpan
    from repro.optee.os import OpTeeOs
    from repro.optee.session import Session
    from repro.optee.storage import SecureStorage


class TaFlags(enum.Flag):
    """TA manifest flags (subset of OP-TEE's)."""

    NONE = 0
    SINGLE_INSTANCE = enum.auto()
    MULTI_SESSION = enum.auto()
    INSTANCE_KEEP_ALIVE = enum.auto()


class TaContext:
    """Capabilities the TEE OS grants a TA instance.

    Everything a TA does that has a cost or a privilege implication funnels
    through here, so the OS can charge cycles, enforce the heap budget and
    record events uniformly.
    """

    def __init__(self, os: "OpTeeOs", ta: "TrustedApplication"):
        self._os = os
        self._ta = ta
        self._allocations: list[int] = []

    # -- compute ---------------------------------------------------------------

    def compute(self, cycles: int) -> None:
        """Charge ``cycles`` of secure-world computation."""
        self._os.machine.cpu.execute(cycles)

    def now(self) -> int:
        """Current simulated time in cycles."""
        return self._os.machine.clock.now

    # -- secure heap -------------------------------------------------------------

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes of secure heap; returns the address.

        Raises :class:`TeeOutOfMemory` when the TA heap budget is exhausted
        — the failure mode paper Section V warns about for large ML models.
        """
        addr = self._os.heap.alloc(size, owner=str(self._ta.uuid))
        self._allocations.append(addr)
        return addr

    def free(self, addr: int) -> None:
        """Release a secure-heap allocation."""
        self._os.heap.free(addr)
        if addr in self._allocations:
            self._allocations.remove(addr)

    def store_bytes(self, data: bytes) -> int:
        """Allocate secure heap and copy ``data`` into it; returns the address."""
        addr = self.alloc(len(data))
        self._os.machine.memory.write(addr, data, self._os.machine.cpu.world)
        return addr

    def _check_heap_ownership(self, addr: int, size: int) -> None:
        """Per-TA heap isolation.

        OP-TEE "secures trusted applications from the non-secure OS, as
        well as other TAs" (paper §II): a TA's heap accesses must stay
        inside its own live allocations.  On real hardware this is MMU
        separation per TA; here the heap's owner table is the ground
        truth and a violation is a TA-fatal security error.
        """
        owner = self._os.heap.owner_of(addr, size)
        if owner != str(self._ta.uuid):
            self._os.machine.obs.tracer.emit(
                "optee.isolation", "violation",
                ta=self._ta.name, addr=addr, owner=owner,
            )
            raise TeeAccessDenied(
                f"TA {self._ta.name!r} touched secure heap it does not own "
                f"(0x{addr:x}, owner={owner!r})"
            )

    def load_bytes(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes of this TA's own secure-heap memory."""
        self._check_heap_ownership(addr, size)
        return self._os.machine.memory.read(addr, size, self._os.machine.cpu.world)

    def write_bytes(self, addr: int, data: bytes) -> None:
        """Write into this TA's own secure-heap memory."""
        self._check_heap_ownership(addr, len(data))
        self._os.machine.memory.write(addr, data, self._os.machine.cpu.world)

    def heap_free_bytes(self) -> int:
        """Remaining secure-heap budget (for model-fit checks)."""
        return self._os.heap.free_bytes

    def release_all(self) -> None:
        """Free every live allocation this context made (TA teardown)."""
        for addr in list(self._allocations):
            self.free(addr)

    # -- PTA access --------------------------------------------------------------

    def invoke_pta(self, uuid: TaUuid, cmd: int, payload: Any = None) -> Any:
        """Invoke a pseudo TA command (secure-world internal call)."""
        return self._os.invoke_pta(uuid, cmd, payload, caller=self._ta)

    # -- normal-world services ------------------------------------------------------

    def rpc(self, service: str, method: str, *args: Any) -> Any:
        """Call a TEE-supplicant service in the normal world.

        Costs two world switches plus the supplicant overhead; the payload
        transits non-secure memory, so callers must only send data that is
        allowed to leave the TEE (the relay sends ciphertext).
        """
        return self._os.supplicant_rpc(service, method, *args)

    # -- secure storage ----------------------------------------------------------

    @property
    def storage(self) -> "SecureStorage":
        """Sealed persistent storage for this TA."""
        return self._os.storage

    # -- shared memory (client-provided memrefs) ----------------------------------

    def read_memref(self, ref: MemRef) -> bytes:
        """Read a client memref's bytes (crosses into non-secure memory)."""
        addr = ref.shm.addr + ref.offset
        return self._os.machine.memory.read(addr, ref.size, self._os.machine.cpu.world)

    def write_memref(self, ref: MemRef, data: bytes) -> None:
        """Write into a client memref (output parameter)."""
        if len(data) > ref.size:
            raise TeeOutOfMemory(
                f"memref too small: {ref.size} bytes for {len(data)} output"
            )
        addr = ref.shm.addr + ref.offset
        self._os.machine.memory.write(addr, data, self._os.machine.cpu.world)

    # -- tracing / observability -----------------------------------------------------

    def log(self, name: str, **data: Any) -> None:
        """Emit a TA-scoped event on the machine's tracer."""
        self._os.machine.obs.tracer.emit(
            f"optee.ta.{self._ta.name}", name, **data
        )

    def span(
        self, name: str, category: str | None = None, **attrs: Any
    ) -> "_ActiveSpan":
        """Open a measurement span on the machine's tracer.

        Spans observe (cycles, domains, world switches, energy) without
        charging anything, so TA code can bracket its stages freely.
        Defaults to a TA-scoped category.
        """
        return self._os.machine.obs.span(
            name, category=category or f"ta.{self._ta.name}", **attrs
        )

    @property
    def metrics(self) -> "MetricsRegistry":
        """The machine-wide metrics registry."""
        return self._os.machine.obs.metrics


class TrustedApplication:
    """Base class for TAs.  Subclasses override the lifecycle hooks.

    Class attributes
    ----------------
    NAME:
        Human-readable identifier; the UUID is derived from it unless
        ``UUID`` is set explicitly.
    FLAGS:
        Manifest flags controlling instancing/session policy.
    """

    NAME = "ta.base"
    UUID: TaUuid | None = None
    FLAGS: TaFlags = TaFlags.SINGLE_INSTANCE | TaFlags.MULTI_SESSION

    def __init__(self) -> None:
        self.name = self.NAME
        self.uuid = self.UUID or TaUuid.from_name(self.NAME)
        self.ctx: TaContext | None = None
        self.panicked = False

    # -- lifecycle hooks -------------------------------------------------------

    def on_create(self, ctx: TaContext) -> None:
        """Instance created (once per instance).  Allocate long-lived state here."""

    def on_open_session(self, session: "Session", params: Params) -> None:
        """A client opened a session."""

    def on_invoke(self, session: "Session", cmd: int, params: Params) -> Any:
        """A client invoked command ``cmd``.  Must be overridden."""
        raise NotImplementedError(f"{self.name} does not handle command {cmd}")

    def on_close_session(self, session: "Session") -> None:
        """A client closed its session."""

    def on_destroy(self) -> None:
        """Instance is being destroyed.  Release resources here."""
