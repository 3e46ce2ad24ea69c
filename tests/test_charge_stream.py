"""Pin the in-order ``(domain, cycles)`` charge stream.

Host-time work on the simulator must leave the clock charges in place:
the same domains, the same cycle totals, in the same order.  The
end-to-end digests only see the totals that result, so a reordered,
moved or dropped charge shows up there as one opaque mismatch; these pins
name the rig and the charge sequence instead.  They move only with a
deliberate, documented change to the cost model or to how charges are
grouped.

One grouping is part of the model: a driver host adds up the cycles one
driver entry point spends (its per-call bookkeeping, ``compute`` and
memory cycles) and charges them to its own world in one charge when the
entry point returns or raises.  That is safe because nothing reads the
clock per charge: energy and the ``cycles.<domain>`` counters are priced
from the per-domain totals, which the merge leaves unchanged, and no
span opens or closes inside a driver entry point.  Only events raised
inside one (an I²S overrun, its GIC delivery, a TZASC fault) are stamped
before that entry point's pending cycles are charged.

Each pin holds the sha256 of the ``domain:cycles`` lines of every
non-zero charge, the number of those charges, ``float.hex()`` of each
domain's energy in the :class:`EnergyMeter` report, in the report's order,
and the final ``clock.now``.  Energy is priced from the per-domain totals,
so the energy values pin those totals; they and ``now`` were not moved
when the entry-point merge went in, only the sha256 and the count.
"""

import hashlib

from benchmarks.bench_t13_hotpath import build_i2s_rig
from repro.core.pipeline import SecurePipeline
from repro.core.platform import IotPlatform
from repro.core.workload import UtteranceWorkload
from repro.energy.model import EnergyMeter
from repro.ml.dataset import UtteranceGenerator
from repro.sim.rng import SimRng


def _record(clock):
    """Wrap this clock's ``advance`` to hash every charge that moves it.

    A zero charge moves nothing and is not recorded; a rejected (negative)
    one raises before it is.  Returns (digest, count).
    """
    digest = hashlib.sha256()
    count = [0]
    advance = clock.advance

    def recording_advance(cycles, domain):
        now = advance(cycles, domain)
        if cycles:
            digest.update(f"{domain.value}:{cycles}\n".encode())
            count[0] += 1
        return now

    clock.advance = recording_advance
    return digest, count


def _pin(digest, count, meter, clock):
    return {
        "sha256": digest.hexdigest(),
        "charges": count[0],
        "energy_mj": [
            (d.value, mj.hex()) for d, mj in meter.report().per_domain_mj.items()
        ],
        "now": clock.now,
    }


def test_t13_kernel_rig_charge_stream():
    """Eight chunks through the T13 rig's kernel-hosted PIO path."""
    machine, driver = build_i2s_rig()
    meter = EnergyMeter(machine.clock)
    digest, count = _record(machine.clock)
    for _ in range(8):
        driver.read_chunk()
    assert _pin(digest, count, meter, machine.clock) == {
        "sha256": "d389d7f559ed11469e3435ffa6c995f38dfc11faabfe1e2d2176a81f0a859940",
        "charges": 136,
        "energy_mj": [
            ("normal_cpu", "0x1.8a86d71f36263p-4"),
            ("peripheral", "0x1.eb851eb851eb8p+3"),
        ],
        "now": 512102788,
    }


def _run_default_platform(bundle, platform):
    """Three utterances through the secure pipeline on ``platform``."""
    pipeline = SecurePipeline(platform, bundle)
    corpus = UtteranceGenerator(SimRng(437, "golden")).generate(
        3, sensitive_fraction=0.5
    )
    pipeline.process(UtteranceWorkload.from_corpus(corpus, bundle.vocoder))
    pipeline.close()


def test_default_platform_charge_stream(provisioned):
    """Three utterances through the secure pipeline on a default platform
    (seed 437, the corpus of the default-ingest golden digests)."""
    platform = IotPlatform.create(seed=437)
    clock = platform.machine.clock
    digest, count = _record(clock)
    _run_default_platform(provisioned.bundle, platform)
    assert _pin(digest, count, platform.energy, clock) == {
        "sha256": "0c0454ce88a29df10e2ee39f3757e81285ba25689770f7ed7309293ef18209c1",
        "charges": 513,
        "energy_mj": [
            ("monitor", "0x1.6abde3fbbd7b2p-4"),
            ("normal_cpu", "0x1.205bc01a36e2fp-7"),
            ("secure_cpu", "0x1.93ae0c1765775p+0"),
            ("peripheral", "0x1.8000000000000p+5"),
        ],
        "now": 1601549460,
    }


def test_default_platform_capture_spans(provisioned):
    """The same run's ``capture`` stage spans keep their per-domain cycles
    (recorded before driver entry points merged their charges): no cycle
    a stage spends is left pending into the next one."""
    platform = IotPlatform.create(seed=437)
    _run_default_platform(provisioned.bundle, platform)
    capture = [
        {d.value: c for d, c in span.domain_cycles.items()}
        for span in platform.machine.obs.tracer.spans_in("stage.secure")
        if span.name == "capture"
    ]
    assert capture == [
        {"secure_cpu": 85_024, "peripheral": 416_000_000},
        {"secure_cpu": 117_120, "peripheral": 576_000_000},
        {"secure_cpu": 123_592, "peripheral": 608_000_000},
    ]
