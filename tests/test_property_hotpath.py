"""Property tests (hypothesis): the vectorized capture path is an exact
drop-in for the scalar reference.

Two identically seeded rigs play the *same* random PCM; one is drained
through the vectorized ``I2sDriver`` paths, the other through the scalar
reference loops preserved in :mod:`repro.drivers.reference`.  The int16
streams must be bit-identical for arbitrary FIFO levels, gains and chunk
sizes — including the ``0x8000`` sign-extension edge (``-32768`` has no
positive counterpart, the classic vectorization bug).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.drivers.hosting import KernelDriverHost
from repro.drivers.i2s_driver import I2sDriver
from repro.drivers.reference import drain_fifo_pio_scalar, read_chunk_scalar
from repro.peripherals.audio import BufferSource
from repro.peripherals.i2s import I2sBus, I2sController
from repro.peripherals.microphone import DigitalMicrophone
from repro.tz.machine import TrustZoneMachine
from repro.tz.memory import MemoryRegion, SecurityAttr

# int16 samples with the 0x8000 edge drawn explicitly: -32768 is the one
# value whose scalar sign extension (sample -= 0x10000) a masked
# vectorized path is most likely to mangle.
samples_strategy = st.lists(
    st.one_of(
        st.integers(min_value=-32768, max_value=32767),
        st.just(-32768),
        st.just(32767),
    ),
    min_size=1,
    max_size=256,
)


def _build_rig(pcm: np.ndarray, chunk: int, volume: int = 100):
    machine = TrustZoneMachine()
    region = machine.memory.add_region(
        MemoryRegion("i2s_mmio", 0x0400_0000, 0x1000,
                     SecurityAttr.NONSECURE, device=True)
    )
    controller = I2sController(machine.clock, machine.obs.tracer)
    machine.memory.attach_mmio("i2s_mmio", controller)
    I2sBus(controller,
           DigitalMicrophone(BufferSource(pcm.copy()), fmt=controller.format))
    driver = I2sDriver(KernelDriverHost(machine), controller, region)
    driver.probe()
    if volume != 100:
        driver.set_volume(volume)
    driver.pcm_open_capture(chunk)
    driver.trigger_start()
    return machine, driver, controller


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    raw=samples_strategy,
    level=st.integers(min_value=1, max_value=64),
    max_words=st.integers(min_value=1, max_value=64),
)
def test_property_pio_drain_bit_identical(raw, level, max_words):
    """Vectorized PIO drain == scalar loop for any FIFO level."""
    pcm = np.array(raw, dtype=np.int16)
    _, driver_v, ctrl_v = _build_rig(pcm, chunk=64)
    _, driver_s, ctrl_s = _build_rig(pcm, chunk=64)
    ctrl_v.capture(level)
    ctrl_s.capture(level)
    vector = driver_v._drain_fifo_pio(max_words)
    scalar = drain_fifo_pio_scalar(driver_s, max_words)
    assert vector.dtype == scalar.dtype == np.int16
    assert np.array_equal(vector, scalar)
    assert ctrl_v.fifo_level == ctrl_s.fifo_level


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    raw=samples_strategy,
    level=st.integers(min_value=1, max_value=64),
    max_words=st.integers(min_value=1, max_value=64),
)
def test_property_dma_drain_bit_identical(raw, level, max_words):
    """Vectorized DMA drain == scalar PIO loop for any FIFO level."""
    pcm = np.array(raw, dtype=np.int16)
    _, driver_v, ctrl_v = _build_rig(pcm, chunk=64)
    _, driver_s, ctrl_s = _build_rig(pcm, chunk=64)
    driver_v.set_capture_mode("dma")
    ctrl_v.capture(level)
    ctrl_s.capture(level)
    vector = driver_v._drain_fifo_dma(max_words)
    scalar = drain_fifo_pio_scalar(driver_s, max_words)
    assert np.array_equal(vector, scalar)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    raw=samples_strategy,
    chunk=st.integers(min_value=1, max_value=192),
    volume=st.integers(min_value=0, max_value=200),
    chunks=st.integers(min_value=1, max_value=3),
)
def test_property_read_chunk_golden_stream(raw, chunk, volume, chunks):
    """Full read_chunk == scalar reference, gains and buffers included."""
    pcm = np.array(raw, dtype=np.int16)
    machine_v, driver_v, _ = _build_rig(pcm, chunk, volume)
    machine_s, driver_s, _ = _build_rig(pcm, chunk, volume)
    vector = np.concatenate([driver_v.read_chunk() for _ in range(chunks)])
    scalar = np.concatenate(
        [read_chunk_scalar(driver_s) for _ in range(chunks)]
    )
    assert np.array_equal(vector, scalar)


def _segment_scalar(vad, pcm):
    """The pre-vectorization per-frame VAD segmentation loops."""
    active = [bool(a) for a in vad.frame_activity(pcm)]
    n = len(active)
    if n == 0:
        return []
    bridged = active[:]
    i = 0
    while i < n:
        if active[i]:
            i += 1
            continue
        j = i
        while j < n and not active[j]:
            j += 1
        if i > 0 and j < n and j - i <= vad.hang_frames:
            for k in range(i, j):
                bridged[k] = True
        i = j
    segments = []
    i = 0
    while i < n:
        if not bridged[i]:
            i += 1
            continue
        j = i
        while j < n and bridged[j]:
            j += 1
        if j - i >= vad.min_frames:
            segments.append(
                (i * vad.frame_samples, j * vad.frame_samples)
            )
        i = j
    return segments


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    n_frames=st.integers(min_value=0, max_value=40),
    hang=st.integers(min_value=0, max_value=6),
    min_frames=st.integers(min_value=1, max_value=4),
)
def test_property_vad_segmentation_matches_scalar(seed, n_frames, hang,
                                                  min_frames):
    """Run-length-encoded segmentation == the per-frame reference loops."""
    from repro.ml.vad import EnergyVad

    rng = np.random.default_rng(seed)
    # Alternate loud and quiet frames randomly so bridging/min-length
    # rules are actually exercised.
    frames = []
    for _ in range(n_frames):
        loud = rng.random() < 0.5
        amplitude = 8000 if loud else 50
        frames.append(
            (rng.standard_normal(160) * amplitude)
            .clip(-32768, 32767)
            .astype(np.int16)
        )
    pcm = (
        np.concatenate(frames) if frames else np.zeros(0, dtype=np.int16)
    )
    vad = EnergyVad(hang_frames=hang, min_frames=min_frames)
    vector = [(s.start, s.end) for s in vad.segment(pcm)]
    assert vector == _segment_scalar(vad, pcm)


def _decode_at_scalar(asr, signal, offset):
    """The pre-vectorization window-at-a-time matched-filter decode."""
    from repro.ml.asr import SAMPLES_PER_WORD, WORD_STRIDE

    words, total = [], 0.0
    start = offset
    while start + SAMPLES_PER_WORD <= len(signal):
        window = signal[start : start + SAMPLES_PER_WORD]
        norm = np.linalg.norm(window)
        if norm >= 1e-6:
            scores = asr._matrix @ (window / norm)
            best = int(scores.argmax())
            if scores[best] >= asr.silence_threshold:
                words.append(asr._words[best])
                total += float(scores[best])
        start += WORD_STRIDE
    return words, total


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    text_words=st.integers(min_value=1, max_value=4),
    offset=st.integers(min_value=0, max_value=200),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_asr_decode_matches_scalar(asr, text_words, offset, seed):
    """Batched matched-filter decode == the window-at-a-time loop.

    Word decisions must agree exactly; the accumulated score is allowed
    float tolerance (gemm vs gemv accumulate in different orders).
    """
    rng = np.random.default_rng(seed)
    vocab = asr._words
    text = " ".join(
        vocab[int(i)] for i in rng.integers(0, len(vocab), text_words)
    )
    signal = np.concatenate(
        [
            (rng.standard_normal(offset) * 40).astype(np.float32),
            asr.vocoder.render(text).astype(np.float32),
        ]
    )
    vector_words, vector_score = asr._decode_at(signal, offset)
    scalar_words, scalar_score = _decode_at_scalar(asr, signal, offset)
    assert vector_words == scalar_words
    assert np.isclose(vector_score, scalar_score, rtol=1e-5, atol=1e-6)
