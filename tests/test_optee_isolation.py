"""Unit tests: TA-from-TA isolation (paper §II's second guarantee)."""

import pytest

from repro.errors import TeeAccessDenied
from repro.optee.os import OpTeeOs
from repro.optee.params import Params, Value
from repro.optee.supplicant import TeeSupplicant
from repro.optee.ta import TrustedApplication
from repro.tz.monitor import SmcFunction

SECRET = b"ta-alpha's private key material!"


class AlphaTa(TrustedApplication):
    """Holds a secret in its heap; leaks its address (a logging bug)."""

    NAME = "ta.alpha"
    leaked_addr = 0  # the 'leak' other TAs learn the address from

    def on_create(self, ctx):
        addr = ctx.store_bytes(SECRET)
        type(self).leaked_addr = addr

    def on_invoke(self, session, cmd, params):
        if cmd == 1:  # read own secret back — legitimate
            return self.ctx.load_bytes(type(self).leaked_addr, len(SECRET))
        return super().on_invoke(session, cmd, params)


class MaliciousTa(TrustedApplication):
    """A co-resident TA trying to read alpha's secret."""

    NAME = "ta.mallory"

    def on_invoke(self, session, cmd, params):
        if cmd == 1:  # try the cross-TA read
            return self.ctx.load_bytes(AlphaTa.leaked_addr, len(SECRET))
        if cmd == 2:  # try a cross-TA write
            self.ctx.write_bytes(AlphaTa.leaked_addr, b"corrupted!")
            return None
        if cmd == 3:  # own allocations still work
            addr = self.ctx.store_bytes(b"mallory's own data")
            return self.ctx.load_bytes(addr, 18)
        return super().on_invoke(session, cmd, params)


@pytest.fixture
def stack(machine):
    tee = OpTeeOs(machine)
    tee.attach_supplicant(TeeSupplicant(machine))
    tee.install_ta(AlphaTa)
    tee.install_ta(MaliciousTa)
    return machine, tee


def call(machine, op, **kw):
    return machine.monitor.smc(SmcFunction.CALL_WITH_ARG, {"op": op, **kw})


def open_both(machine):
    alpha_sid = call(machine, "open_session", uuid=AlphaTa().uuid,
                     params=Params())
    mallory_sid = call(machine, "open_session", uuid=MaliciousTa().uuid,
                       params=Params())
    return alpha_sid, mallory_sid


class TestTaIsolation:
    def test_own_heap_accessible(self, stack):
        machine, _ = stack
        alpha_sid, _ = open_both(machine)
        assert call(machine, "invoke", session=alpha_sid, cmd=1,
                    params=Params()) == SECRET

    def test_cross_ta_read_denied(self, stack):
        machine, _ = stack
        _, mallory_sid = open_both(machine)
        with pytest.raises(TeeAccessDenied):
            call(machine, "invoke", session=mallory_sid, cmd=1,
                 params=Params())

    def test_cross_ta_write_denied_and_secret_intact(self, stack):
        machine, _ = stack
        alpha_sid, mallory_sid = open_both(machine)
        with pytest.raises(TeeAccessDenied):
            call(machine, "invoke", session=mallory_sid, cmd=2,
                 params=Params())
        assert call(machine, "invoke", session=alpha_sid, cmd=1,
                    params=Params()) == SECRET

    def test_mallory_own_allocations_unaffected(self, stack):
        machine, _ = stack
        _, mallory_sid = open_both(machine)
        assert call(machine, "invoke", session=mallory_sid, cmd=3,
                    params=Params()) == b"mallory's own data"

    def test_violation_is_traced(self, stack):
        machine, _ = stack
        _, mallory_sid = open_both(machine)
        with pytest.raises(TeeAccessDenied):
            call(machine, "invoke", session=mallory_sid, cmd=1,
                 params=Params())
        events = machine.obs.tracer.spans_in("optee.isolation")
        assert len(events) == 1
        assert events[0].attrs["ta"] == "ta.mallory"

    def test_freed_memory_not_readable(self, stack):
        """Even the owner loses access after free (use-after-free guard)."""
        machine, tee = stack
        alpha_sid, _ = open_both(machine)
        instance = tee.ta_instance(AlphaTa().uuid)
        from repro.tz.worlds import World

        machine.cpu._set_world(World.SECURE)
        try:
            addr = instance.ctx.store_bytes(b"transient")
            instance.ctx.free(addr)
            with pytest.raises(TeeAccessDenied):
                instance.ctx.load_bytes(addr, 9)
        finally:
            machine.cpu._set_world(World.NORMAL)
