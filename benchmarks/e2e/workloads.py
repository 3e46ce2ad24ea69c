"""The benchmark's workloads: device rosters for a closed-loop fleet run.

Every workload is a list of :class:`~repro.obs.fleet.DeviceSpec` run one
device at a time; inside a device each utterance is issued only after the
previous decision came back (``SecurePipeline.process_item``).  Device
``i`` gets seed ``seed + i``, so the seed alone fixes every input.  The
sizes are function arguments so tests can build tiny rosters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.fleet import FAULT_PROFILES, DeviceSpec

#: The classifier every workload runs; provisioning it is the set-up cost.
BUNDLE_ARGS = {
    "seed": 42, "architecture": "cnn", "corpus_size": 1000, "epochs": 5,
}


@dataclass(frozen=True)
class Workload:
    """A named roster, timed in blocks of ``block`` consecutive devices.

    Each block lasts about two host seconds and is bracketed by runs of
    the calibration loop; blocks of ``degraded`` hold one device of each
    network profile, so every block does the same mix of work.
    ``probe_modexps`` is the number of handshake-size modexps added to
    the speed probe so that its mix matches the workload's
    (:mod:`benchmarks.e2e.calib`).
    """

    name: str
    specs: tuple[DeviceSpec, ...]
    block: int
    probe_modexps: int = 0


def steady(seed: int, devices: int = 6, utterances: int = 170) -> Workload:
    """Long-lived devices on a clean link: the per-utterance hot path.

    Handshakes amortise over 170 utterances, so capture, the cycle clock
    and the ML stages carry almost all host time; set-up-path work should
    move nothing here.
    """
    return Workload(
        name="steady",
        specs=tuple(
            DeviceSpec(
                device_id=f"s{i:03d}", seed=seed + i, utterances=utterances,
                sensitive_fraction=0.5, fault_profile="clean",
            )
            for i in range(devices)
        ),
        block=1,
    )


def onboard(seed: int, devices: int = 400) -> Workload:
    """Fresh devices that each forward one utterance: per-device set-up.

    ``sensitive_fraction`` is 0 rather than a mix so every device pays
    exactly one TLS handshake; a 50/50 mix made per-utterance host time
    bimodal and its median unstable between runs.  About 70% of host time
    is 256-bit-exponent modexp (seven per device), so the probe adds one,
    which makes it about 75% modexp.
    """
    return Workload(
        name="onboard",
        specs=tuple(
            DeviceSpec(
                device_id=f"o{i:03d}", seed=seed + i, utterances=1,
                sensitive_fraction=0.0, fault_profile="clean",
            )
            for i in range(devices)
        ),
        block=50,
        probe_modexps=1,
    )


def degraded(seed: int, devices: int = 24, utterances: int = 40) -> Workload:
    """Faulty links, a throttling cloud and crashing clients: the fault path.

    Network profiles rotate through every fault profile, the cloud
    admission tier is overloaded and clients crash and recover (which runs
    the TA supervised), so sealed storage, the relay queue and
    re-handshakes are exercised; on ``steady`` they are idle.
    """
    profiles = list(FAULT_PROFILES)
    return Workload(
        name="degraded",
        specs=tuple(
            DeviceSpec(
                device_id=f"g{i:03d}", seed=seed + i, utterances=utterances,
                sensitive_fraction=0.5,
                fault_profile=profiles[i % len(profiles)],
                ingest_profile="overload", client_crash_profile="chaos",
            )
            for i in range(devices)
        ),
        block=len(profiles),
    )


WORKLOADS = {"steady": steady, "onboard": onboard, "degraded": degraded}
