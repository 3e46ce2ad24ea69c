"""The TEE OS kernel.

:class:`OpTeeOs` is the secure-world operating system: it installs the SMC
handlers at the monitor (its "boot"), hosts TA instances and sessions,
registers PTAs, owns the secure heap, and brokers supplicant RPCs.  It is
the component that turns the raw TrustZone machine into the platform the
paper's design runs on.

Dispatch model
--------------
The normal-world client library packages each request (open / invoke /
close) and issues ``OPTEE_SMC_CALL_WITH_ARG``.  The monitor switches the
CPU to the secure world and calls :meth:`OpTeeOs._handle_call`, which
dispatches to the target TA with the CPU *already* in the secure world —
so all TA memory traffic is checked and charged as secure-world traffic.

Panic semantics
---------------
If a TA hook raises an unexpected exception the TA is *panicked*: all its
sessions die and subsequent invocations raise :class:`TeeTargetDead`,
mirroring OP-TEE.  ``TeeError`` subclasses raised by the TA pass through
unchanged — they are the GP status codes of the API contract.
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any

from repro.errors import (
    TeeBusy,
    TeeCommunicationError,
    TeeError,
    TeeItemNotFound,
    TeeTargetDead,
)
from repro.optee.heap import SecureHeap
from repro.optee.params import Params
from repro.optee.pta import PseudoTa, PtaContext
from repro.optee.session import Session
from repro.optee.ta import TaContext, TaFlags, TrustedApplication
from repro.optee.uuid import TaUuid
from repro.tz.machine import TrustZoneMachine
from repro.tz.monitor import SmcFunction
from repro.tz.worlds import World

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optee.storage import SecureStorage
    from repro.optee.supplicant import TeeSupplicant


class OpTeeOs:
    """The secure-world OS hosting TAs and PTAs.

    ``ta_verification_key`` opts into signed-TA loading: when set,
    :meth:`install_ta` requires a signature produced by
    :func:`repro.optee.signing.sign_ta` under the matching key and
    refuses anything else — the TEE's root of the application trust chain.
    """

    def __init__(
        self,
        machine: TrustZoneMachine,
        ta_verification_key: bytes | None = None,
    ):
        self.machine = machine
        self._ta_verification_key = ta_verification_key
        self.heap = SecureHeap(machine.secure_heap, machine=machine)
        self._ta_classes: dict[TaUuid, type[TrustedApplication]] = {}
        self._ta_instances: dict[TaUuid, TrustedApplication] = {}
        self._ptas: dict[TaUuid, PseudoTa] = {}
        self._sessions: dict[int, Session] = {}
        self._supplicant: "TeeSupplicant | None" = None
        self._storage: "SecureStorage | None" = None
        self.rpc_count = 0
        self._boot()

    # -- boot -----------------------------------------------------------------

    def _boot(self) -> None:
        """Install SMC handlers; runs at machine bring-up."""
        mon = self.machine.monitor
        # The monitor calls in through a weak proxy: whoever built the OS
        # owns it, and handlers bound to it would close the cycle machine
        # -> monitor -> OS -> machine (DESIGN.md, "Device teardown").
        os = weakref.proxy(self)
        mon.register(SmcFunction.CALL_WITH_ARG,
                     lambda request: os._handle_call(request))
        mon.register(SmcFunction.GET_SHM_CONFIG,
                     lambda: os._handle_shm_config())
        self.machine.obs.tracer.emit("optee.os", "boot")

    def _handle_shm_config(self) -> dict[str, int]:
        shm = self.machine.shmem
        return {"base": shm.base, "size": shm.size}

    # -- supplicant / storage wiring ---------------------------------------------

    def attach_supplicant(self, supplicant: "TeeSupplicant") -> None:
        """Connect the normal-world supplicant daemon."""
        self._supplicant = supplicant

    @property
    def supplicant(self) -> "TeeSupplicant":
        """The attached supplicant (raises if none)."""
        if self._supplicant is None:
            raise TeeCommunicationError("no TEE supplicant attached")
        return self._supplicant

    @property
    def storage(self) -> "SecureStorage":
        """Lazily constructed sealed storage (needs the supplicant's fs)."""
        if self._storage is None:
            from repro.optee.storage import SecureStorage

            self._storage = SecureStorage(self)
        return self._storage

    # -- TA management ---------------------------------------------------------------

    def install_ta(
        self,
        ta_class: type[TrustedApplication],
        signature: bytes | None = None,
    ) -> TaUuid:
        """Register a TA class so clients can open sessions to it.

        With signed loading enabled, an absent or invalid ``signature``
        raises :class:`~repro.errors.TeeSecurityError`.
        """
        if self._ta_verification_key is not None:
            from repro.errors import TeeSecurityError
            from repro.optee.signing import verify_ta

            if signature is None:
                raise TeeSecurityError(
                    f"TA {ta_class().NAME!r} has no signature and signed "
                    f"loading is enforced"
                )
            verify_ta(ta_class, signature, self._ta_verification_key)
        probe = ta_class()
        self._ta_classes[probe.uuid] = ta_class
        self.machine.obs.tracer.emit(
            "optee.os", "install_ta", ta=probe.name, uuid=str(probe.uuid)
        )
        return probe.uuid

    def ta_instance(self, uuid: TaUuid) -> TrustedApplication | None:
        """The live instance for ``uuid``, if any (introspection for tests)."""
        return self._ta_instances.get(uuid)

    def register_pta(self, pta: PseudoTa) -> TaUuid:
        """Register a pseudo TA (boot-time, OS privilege)."""
        pta.on_register(PtaContext(self, pta))
        self._ptas[pta.uuid] = pta
        self.machine.obs.tracer.emit(
            "optee.os", "register_pta", pta=pta.name, uuid=str(pta.uuid)
        )
        return pta.uuid

    # -- secure-side dispatch (CPU already in secure world) ----------------------------

    def _handle_call(self, request: dict[str, Any]) -> Any:
        """Entry point for ``OPTEE_SMC_CALL_WITH_ARG``."""
        self.machine.cpu.require_world(World.SECURE)
        op = request.get("op")
        if op == "open_session":
            return self._open_session(request["uuid"], request.get("params") or Params())
        if op == "invoke":
            return self._invoke(
                request["session"], request["cmd"], request.get("params") or Params()
            )
        if op == "close_session":
            return self._close_session(request["session"])
        raise TeeError(f"unknown TEE request op: {op!r}")

    def _instantiate(self, uuid: TaUuid) -> TrustedApplication:
        ta_class = self._ta_classes.get(uuid)
        if ta_class is None:
            raise TeeItemNotFound(f"no TA installed with UUID {uuid}")
        instance = self._ta_instances.get(uuid)
        if instance is not None:
            if instance.panicked:
                raise TeeTargetDead(f"TA {instance.name} has panicked")
            return instance
        instance = ta_class()
        instance.ctx = TaContext(self, instance)
        self._run_ta_hook(instance, lambda: instance.on_create(instance.ctx))
        self._ta_instances[uuid] = instance
        return instance

    def _open_session(self, uuid: TaUuid, params: Params) -> int:
        self.machine.cpu.execute(self.machine.costs.session_open_cycles)
        self.machine.obs.metrics.inc("optee.session_open")
        ta = self._instantiate(uuid)
        if not (ta.FLAGS & TaFlags.MULTI_SESSION):
            if any(
                s.ta is ta and s.is_open for s in self._sessions.values()
            ):
                raise TeeBusy(f"TA {ta.name} is single-session and busy")
        session = Session(ta=ta)
        self._sessions[session.id] = session
        self._run_ta_hook(ta, lambda: ta.on_open_session(session, params))
        self.machine.obs.tracer.emit(
            "optee.os", "open_session", ta=ta.name, session=session.id
        )
        return session.id

    def _invoke(self, session_id: int, cmd: int, params: Params) -> Any:
        session = self._sessions.get(session_id)
        if session is None:
            raise TeeItemNotFound(f"no session {session_id}")
        if session.state.value == "dead" or session.ta.panicked:
            raise TeeTargetDead(f"TA {session.ta.name} has panicked")
        if not session.is_open:
            raise TeeItemNotFound(f"session {session_id} is closed")
        self.machine.cpu.execute(self.machine.costs.ta_invoke_cycles)
        self.machine.obs.metrics.inc("optee.ta_invoke")
        session.invoke_count += 1
        return self._run_ta_hook(
            session.ta, lambda: session.ta.on_invoke(session, cmd, params)
        )

    def _close_session(self, session_id: int) -> None:
        session = self._sessions.get(session_id)
        if session is None or not session.is_open:
            return  # closing a closed/unknown session is a no-op, as in OP-TEE
        self._run_ta_hook(session.ta, lambda: session.ta.on_close_session(session))
        session.close()
        ta = session.ta
        if not (ta.FLAGS & TaFlags.INSTANCE_KEEP_ALIVE):
            if not any(s.ta is ta and s.is_open for s in self._sessions.values()):
                self._destroy_instance(ta)

    def _destroy_instance(self, ta: TrustedApplication) -> None:
        self._run_ta_hook(ta, ta.on_destroy, during_teardown=True)
        if ta.ctx is not None:
            ta.ctx.release_all()
        self._ta_instances.pop(ta.uuid, None)

    def _run_ta_hook(self, ta, thunk, during_teardown: bool = False):
        """Run a TA hook with panic semantics."""
        faults = self.machine.secure_faults
        try:
            if (
                faults is not None
                and not during_teardown
                and faults.fires("ta_panic")
            ):
                from repro.errors import InjectedFault

                raise InjectedFault(f"injected panic in TA {ta.name}")
            return thunk()
        except TeeError:
            raise  # GP status codes are part of the API contract
        except Exception as exc:
            ta.panicked = True
            for s in self._sessions.values():
                if s.ta is ta:
                    s.kill()
            self.machine.obs.metrics.inc("tee.panics")
            self.machine.obs.tracer.emit(
                "optee.os", "ta_panic", ta=ta.name, error=repr(exc)
            )
            if during_teardown:
                return None  # teardown panics are contained
            raise TeeTargetDead(f"TA {ta.name} panicked: {exc!r}") from exc

    def reap_panicked(self, uuid: TaUuid) -> bool:
        """Tear down a panicked TA instance so it can be re-instantiated.

        A panicked TA never runs code again (``on_destroy`` included), so
        the OS itself must reclaim what it held: its secure-heap
        allocations are released via its context and its dead sessions are
        dropped from the session table.  Returns ``True`` if something was
        reaped.  This is the primitive :class:`~repro.optee.supervise.TaSupervisor`
        builds restart on — without the heap release, every restart would
        leak a model-sized allocation and the heap would exhaust.
        """
        ta = self._ta_instances.get(uuid)
        if ta is None or not ta.panicked:
            return False
        if ta.ctx is not None:
            ta.ctx.release_all()
        self._ta_instances.pop(uuid, None)
        for sid in [s.id for s in self._sessions.values() if s.ta is ta]:
            self._sessions.pop(sid, None)
        self.machine.obs.metrics.inc("tee.reaped")
        self.machine.obs.tracer.emit(
            "optee.os", "ta_reaped", ta=ta.name, uuid=str(uuid)
        )
        return True

    # -- PTA dispatch -------------------------------------------------------------------

    def invoke_pta(
        self,
        uuid: TaUuid,
        cmd: int,
        payload: Any,
        caller: TrustedApplication | None,
    ) -> Any:
        """Secure-world internal call into a PTA (no world switch)."""
        self.machine.cpu.require_world(World.SECURE)
        pta = self._ptas.get(uuid)
        if pta is None:
            raise TeeItemNotFound(f"no PTA with UUID {uuid}")
        self.machine.cpu.execute(self.machine.costs.pta_invoke_cycles)
        self.machine.obs.metrics.inc("optee.pta_invoke")
        faults = self.machine.secure_faults
        if faults is not None and faults.fires("pta"):
            from repro.errors import InjectedFault

            raise InjectedFault(f"injected PTA transfer error ({pta.name})")
        pta.invoke_count += 1
        return pta.on_invoke(cmd, payload, caller)

    # -- supplicant RPC -------------------------------------------------------------------

    def supplicant_rpc(self, service: str, method: str, *args: Any) -> Any:
        """Perform one RPC to the normal-world supplicant.

        Charges the RPC overhead secure-side, then rides the monitor's
        return-to-normal-world path so the two world switches are charged
        at the monitor exactly like any other transition.
        """
        supplicant = self.supplicant
        self.machine.cpu.execute(self.machine.costs.supplicant_rpc_cycles)
        self.rpc_count += 1
        self.machine.obs.metrics.inc("optee.rpc")
        with self.machine.obs.span(f"{service}.{method}", category="rpc"):
            return self.machine.monitor.secure_call_to_normal(
                lambda: supplicant.handle(service, method, *args)
            )

    # -- reporting ------------------------------------------------------------------------

    def summary(self) -> dict:
        """OS counters for reports and tests."""
        return {
            "tas_installed": len(self._ta_classes),
            "tas_live": len(self._ta_instances),
            "ptas": len(self._ptas),
            "sessions": len(self._sessions),
            "rpc_count": self.rpc_count,
            "heap_used": self.heap.used_bytes,
            "heap_high_water": self.heap.high_water_bytes,
        }
