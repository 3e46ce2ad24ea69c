"""Unit tests: TEE OS — TA lifecycle, sessions, PTAs, panics, RPC."""

import pytest

from repro.errors import (
    TeeBusy,
    TeeItemNotFound,
    TeeOutOfMemory,
    TeeTargetDead,
)
from repro.optee.os import OpTeeOs
from repro.optee.params import Params, Value
from repro.optee.pta import PseudoTa
from repro.optee.supplicant import TeeSupplicant
from repro.optee.ta import TaFlags, TrustedApplication
from repro.optee.uuid import TaUuid
from repro.tz.worlds import World


class EchoTa(TrustedApplication):
    NAME = "ta.test-echo"

    def __init__(self):
        super().__init__()
        self.created = False
        self.sessions_opened = 0
        self.destroyed = False

    def on_create(self, ctx):
        self.created = True

    def on_open_session(self, session, params):
        self.sessions_opened += 1

    def on_invoke(self, session, cmd, params):
        if cmd == 1:
            v = params.value(0)
            return v.a * v.b
        if cmd == 2:
            raise ValueError("intentional TA bug")
        if cmd == 3:
            return self.ctx.alloc(params.value(0).a)
        return super().on_invoke(session, cmd, params)

    def on_destroy(self):
        self.destroyed = True


class SingleSessionTa(TrustedApplication):
    NAME = "ta.test-single"
    FLAGS = TaFlags.SINGLE_INSTANCE  # no MULTI_SESSION

    def on_invoke(self, session, cmd, params):
        return "ok"


@pytest.fixture
def tee(machine):
    os_ = OpTeeOs(machine)
    os_.attach_supplicant(TeeSupplicant(machine))
    return os_


def open_session(tee, uuid, params=None):
    """Drive open through the secure-side dispatch path."""
    return tee.machine.monitor.smc(
        __import__("repro.tz.monitor", fromlist=["SmcFunction"]).SmcFunction.CALL_WITH_ARG,
        {"op": "open_session", "uuid": uuid, "params": params or Params()},
    )


def invoke(tee, session_id, cmd, params=None):
    from repro.tz.monitor import SmcFunction

    return tee.machine.monitor.smc(
        SmcFunction.CALL_WITH_ARG,
        {"op": "invoke", "session": session_id, "cmd": cmd,
         "params": params or Params()},
    )


def close(tee, session_id):
    from repro.tz.monitor import SmcFunction

    return tee.machine.monitor.smc(
        SmcFunction.CALL_WITH_ARG, {"op": "close_session", "session": session_id}
    )


class TestTaLifecycle:
    def test_install_and_invoke(self, tee):
        uuid = tee.install_ta(EchoTa)
        sid = open_session(tee, uuid)
        assert invoke(tee, sid, 1, Params.of(Value(6, 7))) == 42

    def test_open_unknown_ta(self, tee):
        with pytest.raises(TeeItemNotFound):
            open_session(tee, TaUuid.from_name("no.such.ta"))

    def test_instance_created_once(self, tee):
        uuid = tee.install_ta(EchoTa)
        s1 = open_session(tee, uuid)
        s2 = open_session(tee, uuid)
        instance = tee.ta_instance(uuid)
        assert instance.created
        assert instance.sessions_opened == 2
        assert s1 != s2

    def test_close_last_session_destroys_instance(self, tee):
        uuid = tee.install_ta(EchoTa)
        sid = open_session(tee, uuid)
        instance = tee.ta_instance(uuid)
        close(tee, sid)
        assert instance.destroyed
        assert tee.ta_instance(uuid) is None

    def test_invoke_closed_session(self, tee):
        uuid = tee.install_ta(EchoTa)
        sid = open_session(tee, uuid)
        close(tee, sid)
        with pytest.raises(TeeItemNotFound):
            invoke(tee, sid, 1, Params.of(Value(1, 1)))

    def test_closed_sessions_leave_the_table(self, tee):
        uuid = tee.install_ta(EchoTa)
        closed = []
        for _ in range(20):
            sid = open_session(tee, uuid)
            close(tee, sid)
            closed.append(sid)
        assert tee.summary()["sessions"] == 0
        with pytest.raises(TeeItemNotFound, match=f"no session {closed[0]}"):
            invoke(tee, closed[0], 1, Params.of(Value(1, 1)))

    def test_close_is_idempotent(self, tee):
        uuid = tee.install_ta(EchoTa)
        sid = open_session(tee, uuid)
        close(tee, sid)
        close(tee, sid)  # no raise

    def test_single_session_ta_busy(self, tee):
        uuid = tee.install_ta(SingleSessionTa)
        open_session(tee, uuid)
        with pytest.raises(TeeBusy):
            open_session(tee, uuid)


class TestPanicSemantics:
    def test_panic_kills_sessions(self, tee):
        uuid = tee.install_ta(EchoTa)
        sid = open_session(tee, uuid)
        with pytest.raises(TeeTargetDead):
            invoke(tee, sid, 2)
        with pytest.raises(TeeTargetDead):
            invoke(tee, sid, 1, Params.of(Value(1, 1)))

    def test_panic_blocks_new_sessions(self, tee):
        uuid = tee.install_ta(EchoTa)
        sid = open_session(tee, uuid)
        with pytest.raises(TeeTargetDead):
            invoke(tee, sid, 2)
        with pytest.raises(TeeTargetDead):
            open_session(tee, uuid)

    def test_panic_traced(self, tee):
        uuid = tee.install_ta(EchoTa)
        sid = open_session(tee, uuid)
        with pytest.raises(TeeTargetDead):
            invoke(tee, sid, 2)
        assert len(tee.machine.obs.tracer.spans_in("optee.os")) > 0
        panics = [e for e in tee.machine.obs.tracer.spans_in("optee.os")
                  if e.name == "ta_panic"]
        assert len(panics) == 1


class TestSecureHeap:
    def test_ta_allocations_land_in_secure_heap(self, tee):
        uuid = tee.install_ta(EchoTa)
        sid = open_session(tee, uuid)
        addr = invoke(tee, sid, 3, Params.of(Value(4096)))
        region = tee.machine.secure_heap_region
        assert region.base <= addr < region.end
        assert tee.heap.used_bytes >= 4096

    def test_heap_exhaustion_is_tee_out_of_memory(self, tee):
        uuid = tee.install_ta(EchoTa)
        sid = open_session(tee, uuid)
        too_big = tee.heap.total_bytes + 4096
        # Value is u32-limited; allocate directly through the instance.
        instance = tee.ta_instance(uuid)
        tee.machine.cpu._set_world(World.SECURE)
        try:
            with pytest.raises(TeeOutOfMemory):
                instance.ctx.alloc(too_big)
        finally:
            tee.machine.cpu._set_world(World.NORMAL)
        assert sid  # session unaffected

    def test_destroy_releases_heap(self, tee):
        uuid = tee.install_ta(EchoTa)
        sid = open_session(tee, uuid)
        invoke(tee, sid, 3, Params.of(Value(4096)))
        used = tee.heap.used_bytes
        close(tee, sid)
        assert tee.heap.used_bytes < used


class TestPta:
    class AdderPta(PseudoTa):
        NAME = "pta.test-adder"

        def on_invoke(self, cmd, payload, caller):
            if cmd == 1:
                return payload["a"] + payload["b"]
            raise AssertionError

    class PtaCallerTa(TrustedApplication):
        NAME = "ta.test-pta-caller"

        def on_invoke(self, session, cmd, params):
            pta_uuid = TaUuid.from_name("pta.test-adder")
            return self.ctx.invoke_pta(pta_uuid, 1, {"a": 20, "b": 22})

    def test_ta_invokes_pta(self, tee):
        tee.register_pta(self.AdderPta())
        uuid = tee.install_ta(self.PtaCallerTa)
        sid = open_session(tee, uuid)
        assert invoke(tee, sid, 1) == 42

    def test_unknown_pta_is_item_not_found(self, tee):
        uuid = tee.install_ta(self.PtaCallerTa)
        sid = open_session(tee, uuid)
        with pytest.raises(TeeItemNotFound):
            invoke(tee, sid, 1)

    def test_pta_requires_secure_world(self, tee):
        from repro.errors import WorldStateError

        pta = self.AdderPta()
        tee.register_pta(pta)
        with pytest.raises(WorldStateError):
            tee.invoke_pta(pta.uuid, 1, {"a": 1, "b": 2}, caller=None)


class TestSupplicantRpc:
    class RpcTa(TrustedApplication):
        NAME = "ta.test-rpc"

        def on_invoke(self, session, cmd, params):
            self.ctx.rpc("fs", "write", "x", b"123")
            return self.ctx.rpc("fs", "read", "x")

    def test_rpc_round_trip(self, tee):
        uuid = tee.install_ta(self.RpcTa)
        sid = open_session(tee, uuid)
        assert invoke(tee, sid, 1) == b"123"
        assert tee.rpc_count == 2

    def test_rpc_world_switching(self, tee):
        uuid = tee.install_ta(self.RpcTa)
        sid = open_session(tee, uuid)
        switches_before = tee.machine.cpu.switch_count
        invoke(tee, sid, 1)
        # 1 invoke SMC (2 switches) + 2 RPCs (2 switches each).
        assert tee.machine.cpu.switch_count - switches_before == 6
