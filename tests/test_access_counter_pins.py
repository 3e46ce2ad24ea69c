"""Pin the physical-memory access counters.

The charge-stream pins (``test_charge_stream.py``) see every clock charge
a memory access makes, but not ``PhysicalMemory.access_count`` or
``violation_count``, which ``machine.summary()`` reports.  These pins were
recorded before the permitted access path was flattened into one region
scan: a permitted access counts once, a TZASC fault counts once in both
counters, emits one ``tz.fault`` event and charges nothing, and an access
that no single region contains counts nothing.
"""

import pytest

from repro.core.pipeline import SecurePipeline
from repro.core.platform import IotPlatform
from repro.core.workload import UtteranceWorkload
from repro.errors import InvalidAddressError, SecureAccessViolation
from repro.ml.dataset import UtteranceGenerator
from repro.sim.rng import SimRng
from repro.tz.machine import TrustZoneMachine
from repro.tz.worlds import World


def _counters(machine):
    memory = machine.memory
    return (memory.access_count, memory.violation_count,
            len(machine.obs.tracer.spans_in("tz.fault")), machine.clock.now)


def test_default_platform_summary_pinned(provisioned):
    """``machine.summary()`` after the charge-stream pin's 3-utterance run
    (default platform, seed 437, golden corpus)."""
    bundle = provisioned.bundle
    platform = IotPlatform.create(seed=437)
    pipeline = SecurePipeline(platform, bundle)
    corpus = UtteranceGenerator(SimRng(437, "golden")).generate(
        3, sensitive_fraction=0.5
    )
    pipeline.process(UtteranceWorkload.from_corpus(corpus, bundle.vocoder))
    pipeline.close()
    assert platform.machine.summary() == {
        "cycles": 1601549460,
        "seconds": 0.80077473,
        "world_switches": 18,
        "smc_calls": 7,
        "mem_accesses": 855,
        "tzasc_violations": 0,
    }


def test_normal_world_read_of_secure_region_pinned():
    machine = TrustZoneMachine()
    addr = machine.dram_secure.base + 64
    with pytest.raises(SecureAccessViolation, match="'dram_secure'"):
        machine.memory.read(addr, 4, World.NORMAL)
    assert _counters(machine) == (1, 1, 1, 0)
    (fault,) = machine.obs.tracer.spans_in("tz.fault")
    assert fault.name == "secure_access_violation"
    assert dict(fault.attrs) == {"region": "dram_secure", "addr": addr,
                                 "world": "normal", "write": False}


def test_normal_world_write_of_secure_region_pinned():
    machine = TrustZoneMachine()
    addr = machine.dram_secure.base + 64
    with pytest.raises(SecureAccessViolation, match="'dram_secure'"):
        machine.memory.write(addr, b"abcd", World.NORMAL)
    assert _counters(machine) == (1, 1, 1, 0)
    (fault,) = machine.obs.tracer.spans_in("tz.fault")
    assert dict(fault.attrs)["write"] is True
    assert machine.dram_secure.read_raw(addr, 4) == b"\0\0\0\0"


def test_permitted_accesses_count_once():
    machine = TrustZoneMachine()
    memory = machine.memory
    memory.write(machine.dram_secure.base, b"KEY!", World.SECURE)
    assert memory.read(machine.dram_secure.base, 4, World.SECURE) == b"KEY!"
    memory.write(machine.dram_ns.base, b"data", World.NORMAL)
    assert memory.read(machine.dram_ns.base, 4, World.SECURE) == b"data"
    assert _counters(machine)[:3] == (4, 0, 0)


@pytest.mark.parametrize("where", ["unmapped", "straddles_end"])
def test_access_outside_one_region_counts_nothing(where):
    machine = TrustZoneMachine()
    region = machine.dram_secure
    addr = 0x10 if where == "unmapped" else region.base + region.size - 2
    for world in World:
        with pytest.raises(InvalidAddressError):
            machine.memory.read(addr, 4, world)
        with pytest.raises(InvalidAddressError):
            machine.memory.write(addr, b"abcd", world)
    assert _counters(machine) == (0, 0, 0, 0)
