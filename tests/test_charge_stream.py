"""Pin the in-order ``(domain, cycles)`` charge stream.

Host-time work on the simulator must leave every clock charge in place:
the same domain, the same cycle count, in the same order.  The end-to-end
digests only see the totals that result, so a reordered, merged or
dropped charge shows up there as one opaque mismatch; these pins name the
rig and the charge sequence instead.  They move only with a deliberate,
documented cost-model change.

Each pin holds the sha256 of the ``domain:cycles`` lines of every
non-zero charge, the number of those charges, ``float.hex()`` of each
domain's energy in the :class:`EnergyMeter` report, in the report's order,
and the final ``clock.now``.  Energy is priced from the per-domain totals,
so the energy values pin those totals.
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
        "sha256": "b30ee24d329159df983ebe7e4e27ce7069c945769e6a3c8c4f4aa5074da40f7a",
        "charges": 920,
        "energy_mj": [
            ("normal_cpu", "0x1.8a86d71f36263p-4"),
            ("peripheral", "0x1.eb851eb851eb8p+3"),
        ],
        "now": 512102788,
    }


def test_default_platform_charge_stream(provisioned):
    """Three utterances through the secure pipeline on a default platform
    (seed 437, the corpus of the default-ingest golden digests)."""
    bundle = provisioned.bundle
    platform = IotPlatform.create(seed=437)
    clock = platform.machine.clock
    digest, count = _record(clock)
    pipeline = SecurePipeline(platform, bundle)
    corpus = UtteranceGenerator(SimRng(437, "golden")).generate(
        3, sensitive_fraction=0.5
    )
    pipeline.process(UtteranceWorkload.from_corpus(corpus, bundle.vocoder))
    pipeline.close()
    assert _pin(digest, count, platform.energy, clock) == {
        "sha256": "48dd38b00eca6b4fdb22bd22d37575bc17d88bff2d0b5e4fc3946d1ee7bf6151",
        "charges": 3039,
        "energy_mj": [
            ("monitor", "0x1.6abde3fbbd7b2p-4"),
            ("normal_cpu", "0x1.205bc01a36e2fp-7"),
            ("secure_cpu", "0x1.93ae0c1765775p+0"),
            ("peripheral", "0x1.8000000000000p+5"),
        ],
        "now": 1601549460,
    }
