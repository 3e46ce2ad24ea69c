"""A finished fleet device is freed by reference counting alone.

The device graph has no reference cycles: the monitor's SMC handlers, the
PTA's interrupt handler and the TLS callbacks reach their owners through
weak proxies, TA and PTA contexts and sealed storage refer back weakly or
not at all, and the I2S bus refers to its controller weakly.  So when the
last handle on a finished device drops, its machine, tracer and spans go
at once instead of waiting for a full cyclic collection, which a long run
reaches rarely: a run's peak RSS would otherwise grow with the number of
devices it finished (about 1.4 MiB per 170-utterance device).

The one cycle left per device is the TA class that
``make_audio_filter_ta`` builds for it (a class refers to itself); it
holds no part of the device.
"""

import gc
import weakref

import pytest

from repro.obs.fleet import DeviceSpec, simulate_device_runtime


@pytest.mark.parametrize(
    "profile",
    [
        {"fault_profile": "clean"},
        {"fault_profile": "lossy", "secure_fault_profile": "chaos"},
        {"fault_profile": "light", "ingest_profile": "overload",
         "client_crash_profile": "chaos"},
    ],
    ids=["clean", "lossy-chaos", "overload-crashes"],
)
def test_finished_device_needs_no_cyclic_collection(provisioned, profile):
    spec = DeviceSpec(device_id="td", seed=4242, utterances=6,
                      sensitive_fraction=0.5, **profile)
    gc.collect()
    gc.disable()
    try:
        runtime = simulate_device_runtime(spec, provisioned.bundle)
        platform = runtime.platform
        refs = {
            name: weakref.ref(obj) for name, obj in {
                "machine": runtime.machine,
                "platform": platform,
                "tracer": runtime.machine.obs.tracer,
                "metrics": runtime.machine.obs.metrics,
                "clock": runtime.machine.clock,
                "energy": platform.energy,
                "tee": platform.tee,
                "cloud": platform.cloud,
                "supplicant": platform.supplicant,
            }.items()
        }
        del runtime, platform
        alive = sorted(name for name, ref in refs.items() if ref() is not None)
    finally:
        gc.enable()
    assert alive == []
