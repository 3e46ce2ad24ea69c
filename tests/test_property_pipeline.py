"""Property-based end-to-end invariants (hypothesis).

Each property runs a randomized variant of the full system and asserts an
invariant the design promises regardless of input: conservation of
decisions, the DROP guarantee, TZASC totality, and audit consistency.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.pipeline import SecurePipeline
from repro.core.platform import IotPlatform
from repro.core.workload import UtteranceWorkload
from repro.errors import InvalidAddressError, SecureAccessViolation
from repro.ml.dataset import Corpus, SensitiveCategory, UtteranceGenerator
from repro.sim.rng import SimRng
from repro.tz.machine import TrustZoneMachine
from repro.tz.memory import SecurityAttr
from repro.tz.worlds import World

CATEGORIES = list(SensitiveCategory)


@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    picks=st.lists(st.sampled_from(CATEGORIES), min_size=1, max_size=4),
)
def test_property_decision_conservation(provisioned, seed, picks):
    """Every utterance is decided exactly once; cloud content is exactly
    the forwarded payloads; DROP never sends a sensitive-classified one."""
    generator = UtteranceGenerator(SimRng(seed, "prop"))
    corpus = Corpus([generator.generate_one(c) for c in picks])
    workload = UtteranceWorkload.from_corpus(corpus, provisioned.bundle.vocoder)

    platform = IotPlatform.create(seed=81)
    pipeline = SecurePipeline(platform, provisioned.bundle)
    run = pipeline.process(workload)

    assert len(run) == len(workload)
    forwarded_payloads = [
        r.payload for r in run.results if r.forwarded and r.payload
    ]
    assert sorted(platform.cloud.received_transcripts) == sorted(
        forwarded_payloads
    )
    for r in run.results:
        if r.sensitive_predicted:  # DROP policy
            assert not r.forwarded
            assert r.payload is None


@settings(max_examples=20, deadline=None)
@given(offset=st.integers(min_value=0, max_value=2**20 - 16))
def test_property_tzasc_totality(offset):
    """Any normal-world access into any secure region faults — no holes."""
    machine = TrustZoneMachine()
    for region in machine.memory.regions():
        if machine.memory.tzasc.attr_of(region) is not SecurityAttr.SECURE:
            continue
        addr = region.base + (offset % max(1, region.size - 16))
        with pytest.raises(SecureAccessViolation):
            machine.memory.read(addr, 16, World.NORMAL)
        with pytest.raises(SecureAccessViolation):
            machine.memory.write(addr, b"\x00" * 16, World.NORMAL)


@settings(max_examples=20, deadline=None)
@given(addr=st.integers(min_value=0, max_value=2**40))
def test_property_memory_access_never_silently_succeeds(addr):
    """Every address either resolves to a mapped region or faults as
    unmapped — reads never fabricate data."""
    machine = TrustZoneMachine()
    try:
        data = machine.memory.read(addr, 4, World.SECURE)
    except (InvalidAddressError, SecureAccessViolation):
        return
    assert len(data) == 4
    region = machine.memory.resolve(addr, 4)
    assert region.contains(addr, 4)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    payload=st.binary(min_size=0, max_size=4096),
    name=st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1,
        max_size=32,
    ),
)
def test_property_sealed_storage_round_trip(payload, name):
    """put/get is identity, and ciphertext never embeds long plaintext runs."""
    from repro.optee.os import OpTeeOs
    from repro.optee.supplicant import TeeSupplicant

    machine = TrustZoneMachine()
    tee = OpTeeOs(machine)
    tee.attach_supplicant(TeeSupplicant(machine))
    machine.cpu._set_world(World.SECURE)
    try:
        tee.storage.put(name, payload)
        assert tee.storage.get(name) == payload
        if len(payload) >= 16:
            stored = tee.supplicant.fs.files["tee/objects/" + name]
            assert payload[:16] not in stored
    finally:
        machine.cpu._set_world(World.NORMAL)


@settings(max_examples=8, deadline=None)
@given(
    volumes=st.lists(st.integers(min_value=0, max_value=200), min_size=1,
                     max_size=5)
)
def test_property_driver_gain_bounded(volumes):
    """Whatever gain sequence is applied, output samples stay in int16."""
    from tests.test_drivers_i2s import open_capture
    from repro.drivers.hosting import KernelDriverHost
    from repro.drivers.i2s_driver import I2sDriver
    from repro.peripherals.audio import ToneSource
    from repro.peripherals.i2s import I2sBus, I2sController
    from repro.peripherals.microphone import DigitalMicrophone
    from repro.tz.memory import MemoryRegion

    machine = TrustZoneMachine()
    region = machine.memory.add_region(
        MemoryRegion("i2s_mmio", 0x0400_0000, 0x1000,
                     SecurityAttr.NONSECURE, device=True)
    )
    controller = I2sController(machine.clock, machine.obs.tracer)
    machine.memory.attach_mmio("i2s_mmio", controller)
    I2sBus(controller,
           DigitalMicrophone(ToneSource(amplitude=1.0), fmt=controller.format))
    driver = I2sDriver(KernelDriverHost(machine), controller, region)
    open_capture(driver, chunk=32)
    for volume in volumes:
        driver.set_volume(volume)
        pcm = driver.read_chunk()
        assert pcm.dtype == np.int16
        assert pcm.max() <= 32767 and pcm.min() >= -32768
