"""The TEE supplicant: OP-TEE's normal-world service daemon.

The secure world has no filesystem or network stack of its own; when a TA
needs either, OP-TEE performs an RPC that returns control to this
normal-world daemon (Fig. 1 steps 6–7: the relay module "leverages an
OP-TEE user space daemon called the TEE supplicant to provide OS-level
services such as network communication").

The daemon is intentionally *untrusted*: every byte it handles is visible
to the normal world and therefore to the attack models.  The secure side
defends itself by only handing the supplicant sealed storage blobs and TLS
ciphertext — a property the security tests assert.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol

from repro.errors import TeeCommunicationError
from repro.tz.machine import TrustZoneMachine
from repro.tz.worlds import World

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.faults import FaultInjector


class SupplicantService(Protocol):
    """A named service the supplicant can route to."""

    def call(self, method: str, *args: Any) -> Any:  # pragma: no cover - protocol
        ...


class RamFileSystem:
    """In-memory filesystem service (backs REE-FS secure storage)."""

    def __init__(self) -> None:
        self.files: dict[str, bytes] = {}
        self.read_count = 0
        self.write_count = 0

    def call(self, method: str, *args: Any) -> Any:
        """Dispatch ``read|write|delete|exists|list`` operations."""
        if method == "write":
            path, data = args
            self.files[path] = bytes(data)
            self.write_count += 1
            return len(data)
        if method == "read":
            (path,) = args
            self.read_count += 1
            if path not in self.files:
                raise TeeCommunicationError(f"no such file: {path!r}")
            return self.files[path]
        if method == "delete":
            (path,) = args
            self.files.pop(path, None)
            return None
        if method == "exists":
            (path,) = args
            return path in self.files
        if method == "list":
            (prefix,) = args
            return sorted(p for p in self.files if p.startswith(prefix))
        raise TeeCommunicationError(f"fs: unknown method {method!r}")


class NetworkService:
    """In-memory socket service connecting the supplicant to endpoints.

    Endpoints (e.g. the simulated cloud) register under ``(host, port)``;
    ``send`` delivers bytes and returns the endpoint's reply.  All traffic
    is observable via :attr:`wire_log` — the vantage point of a network
    eavesdropper and of the untrusted OS.

    The network is part of the threat model's untrusted surface, so the
    service accepts a :class:`~repro.sim.faults.FaultInjector` that makes
    sends fail deterministically (refused, dropped in transit, corrupted
    reply, added latency).  Faults are modelled at the point a real network
    fails — *after* the secure side has already sealed the payload — so
    even injected failures never expose plaintext.
    """

    def __init__(self, machine: TrustZoneMachine | None = None) -> None:
        self._machine = machine
        self._endpoints: dict[tuple[str, int], Any] = {}
        self.faults: "FaultInjector | None" = None
        self.wire_log: list[bytes] = []
        self.bytes_sent = 0
        self.sends_failed = 0

    def register_endpoint(self, host: str, port: int, endpoint: Any) -> None:
        """Expose an endpoint object with a ``receive(bytes) -> bytes`` method."""
        self._endpoints[(host, port)] = endpoint

    def set_fault_injector(self, injector: "FaultInjector | None") -> None:
        """Install (or clear) the deterministic fault injector."""
        self.faults = injector

    def call(self, method: str, *args: Any) -> Any:
        """Dispatch ``send`` operations."""
        if method == "send":
            host, port, payload = args
            fault = self.faults.next_fault() if self.faults is not None else None
            if fault == "refuse":
                self.sends_failed += 1
                raise TeeCommunicationError(
                    f"connection refused (injected): {host}:{port}"
                )
            endpoint = self._endpoints.get((host, port))
            if endpoint is None:
                raise TeeCommunicationError(f"connection refused: {host}:{port}")
            payload = bytes(payload)
            self.wire_log.append(payload)
            self.bytes_sent += len(payload)
            if fault == "drop":
                # The ciphertext reached the wire but never the endpoint;
                # the sender only observes a timeout.
                self.sends_failed += 1
                raise TeeCommunicationError(
                    f"send timed out (injected drop): {host}:{port}"
                )
            reply = endpoint.receive(payload)
            if fault == "corrupt":
                assert self.faults is not None
                self.sends_failed += 1
                reply = self.faults.corrupt(bytes(reply))
            elif fault == "latency" and self._machine is not None:
                self._machine.cpu.execute(self.faults.config.latency_cycles)
            return reply
        raise TeeCommunicationError(f"net: unknown method {method!r}")


class TimeService:
    """Wall-clock service backed by the simulation clock."""

    def __init__(self, machine: TrustZoneMachine):
        self._machine = machine

    def call(self, method: str, *args: Any) -> Any:
        """Dispatch ``now`` (simulated seconds)."""
        if method == "now":
            return self._machine.clock.now_seconds
        raise TeeCommunicationError(f"time: unknown method {method!r}")


class TeeSupplicant:
    """The normal-world daemon routing TEE RPCs to services."""

    def __init__(self, machine: TrustZoneMachine):
        self._machine = machine
        self.fs = RamFileSystem()
        self.net = NetworkService(machine)
        self.time = TimeService(machine)
        self._services: dict[str, SupplicantService] = {
            "fs": self.fs,
            "net": self.net,
            "time": self.time,
        }
        self.handled = 0

    def register_service(self, name: str, service: SupplicantService) -> None:
        """Add or replace a named service."""
        self._services[name] = service

    def handle(self, service: str, method: str, *args: Any) -> Any:
        """Route one RPC.  Runs in the normal world (the monitor guarantees it)."""
        self._machine.cpu.require_world(World.NORMAL)
        self._machine.cpu.execute(self._machine.costs.context_switch_cycles)
        target = self._services.get(service)
        if target is None:
            raise TeeCommunicationError(f"supplicant: unknown service {service!r}")
        self.handled += 1
        self._machine.obs.metrics.inc(f"supplicant.{service}.{method}")
        return target.call(method, *args)
