"""Property tests (hypothesis): the vectorized capture path is an exact
drop-in for the scalar reference.

Two identically seeded rigs play the *same* random PCM; one is drained
through the vectorized ``I2sDriver`` paths, the other through the scalar
reference loops preserved in :mod:`repro.drivers.reference`.  The int16
streams must be bit-identical for arbitrary FIFO levels, gains and chunk
sizes — including the ``0x8000`` sign-extension edge (``-32768`` has no
positive counterpart, the classic vectorization bug).

The VAD, matched-filter decode and word-grid aligner are held to their
pre-vectorization loops the same way; the aligner's scores must be equal,
not close, except where its refine drops a candidate that provably
cannot win, and a sha256 of its offsets over a fixed corpus is pinned.
"""

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

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


def _find_alignment_scalar(asr, signal):
    """The pre-batching aligner: one ``np.dot`` per envelope shift and one
    matvec per refine window.

    The body of ``MatchedFilterAsr._find_alignment`` before it was batched,
    with ``self`` as ``asr``.  It also returns the envelope scores and each
    candidate's refine total (``None, None`` for a segment too short to
    align) so the property can compare every stage, not only the offset.
    """
    from repro.ml.asr import GAP_SAMPLES, SAMPLES_PER_WORD, WORD_STRIDE

    if len(signal) < 2 * WORD_STRIDE:
        return None, None, 0
    amplitude = np.abs(signal)
    usable = (len(amplitude) // WORD_STRIDE) * WORD_STRIDE
    folded = amplitude[:usable].reshape(-1, WORD_STRIDE).mean(axis=0)
    envelope = np.concatenate(
        [np.hanning(SAMPLES_PER_WORD).astype(np.float32),
         np.zeros(GAP_SAMPLES, dtype=np.float32)]
    )
    # np.roll(folded, -shift) materializes a copy per shift; a doubled
    # buffer makes each rotation a contiguous slice over the same
    # values in the same order, so every dot product is bit-identical
    # to the rolled form while skipping WORD_STRIDE array copies.
    doubled = np.concatenate([folded, folded])
    env_scores = [
        float(np.dot(doubled[shift:shift + WORD_STRIDE], envelope))
        for shift in range(WORD_STRIDE)
    ]
    estimate = int(np.argmax(env_scores))

    def decode_score(offset: int) -> float:
        total = 0.0
        windows = 0
        for start in range(offset, len(signal) - SAMPLES_PER_WORD + 1,
                           WORD_STRIDE):
            if windows >= 4:
                break
            window = signal[start : start + SAMPLES_PER_WORD]
            norm = np.linalg.norm(window)
            if norm < 1e-6:
                continue
            total += float((asr._matrix @ (window / norm)).max())
            windows += 1
        return total

    candidates = sorted(
        {(estimate + d) % WORD_STRIDE for d in range(-20, 21)}
    )
    totals = {c: decode_score(c) for c in candidates}
    return env_scores, totals, max(candidates, key=totals.__getitem__)


def _alignment_segments(asr, kind, seed, words, lead, amplitude, length,
                        zero_run):
    """int16 segments of one drawn kind, as the TA would align them.

    ``speech`` is a word sequence shifted by ``lead`` silent samples under
    Gaussian noise of ``amplitude``; ``vad`` is the same stream cut by the
    TA's stream-mode VAD; ``noise`` is noise alone (at half ``amplitude``,
    at least 1).  A ``zero_run`` of exact zeros, starting within the first
    four strides, is laid over the noise, so whole windows are silent.
    """
    from repro.ml.asr import WORD_STRIDE
    from repro.ml.vad import EnergyVad

    rng = np.random.default_rng(seed)
    if kind == "noise":
        pcm = rng.standard_normal(length) * max(1, amplitude // 2)
    else:
        idx = rng.integers(0, len(asr._words), words)
        speech = asr.vocoder.render_words([asr._words[int(i)] for i in idx])
        pcm = np.concatenate([np.zeros(lead), speech.astype(np.float64)])
        pcm = pcm + rng.standard_normal(len(pcm)) * amplitude
        if kind == "speech":
            pcm = pcm[:length]
    if zero_run:
        at = int(rng.integers(0, min(len(pcm), 4 * WORD_STRIDE)))
        pcm[at:at + zero_run] = 0.0
    pcm = np.clip(pcm, -32768, 32767).astype(np.int16)
    if kind == "vad":
        return EnergyVad(slack_samples=400).extract(pcm)
    return [pcm]


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["speech", "vad", "noise"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    words=st.integers(min_value=1, max_value=24),
    lead=st.integers(min_value=0, max_value=1200),
    amplitude=st.integers(min_value=0, max_value=6000),
    length=st.integers(min_value=800, max_value=9600),
    zero_run=st.one_of(st.just(0), st.integers(min_value=320,
                                               max_value=1600)),
)
@example(kind="speech", seed=1, words=3, lead=0, amplitude=0, length=800,
         zero_run=0)
@example(kind="speech", seed=2, words=6, lead=150, amplitude=2000,
         length=2400, zero_run=720)
@example(kind="noise", seed=3, words=1, lead=0, amplitude=2, length=9600,
         zero_run=1600)
@example(kind="vad", seed=4, words=22, lead=900, amplitude=300,
         length=800, zero_run=0)
def test_property_alignment_matches_scalar(asr, kind, seed, words, lead,
                                           amplitude, length, zero_run):
    """Batched, pruned aligner == the shift-at-a-time, window-at-a-time loops.

    Not close: equal.  The envelope scores and the chosen offset must match
    the reference exactly, because a near-tie rounded differently would
    pick another offset.  The refine may drop a candidate (score ``-inf``)
    only if its reference total is strictly below the bar: the envelope
    estimate's total, which is at most the winner's.  Every candidate it
    completes, the envelope estimate always among them, must have exactly
    the reference total.
    """
    from repro.ml.asr import _envelope_scores

    segments = _alignment_segments(asr, kind, seed, words, lead, amplitude,
                                   length, zero_run)
    for pcm in segments:
        signal = pcm.astype(np.float32) / 32767.0
        env_ref, totals_ref, offset_ref = _find_alignment_scalar(asr, signal)
        assert asr._find_alignment(signal) == offset_ref
        if env_ref is None:
            continue
        scores = _envelope_scores(signal)
        assert scores.dtype == np.float32
        assert [float(s) for s in scores] == env_ref
        candidates = np.array(sorted(totals_ref))
        bar = int(np.searchsorted(candidates, int(np.argmax(env_ref))))
        totals = asr._refine_scores(signal, candidates, bar)
        assert totals[bar] != -np.inf
        for candidate, total in zip(candidates, totals):
            reference = totals_ref[int(candidate)]
            if total == -np.inf:
                # The bound's own claim, stronger than "below the winner".
                assert reference < float(totals[bar])
            else:
                assert float(total) == reference


def _window_bound_rows(asr, kind, seed, amplitude, shift):
    """int16-quantized rows of one kind, scaled as the aligner scales PCM.

    ``template`` rows are every vocabulary word's syllable at peak
    ``amplitude`` (down to 1 LSB), starting ``shift`` samples into the
    word; ``clipped`` rows are the syllables driven far past full scale and
    clipped; ``noise`` rows are Gaussian noise of that standard deviation.
    """
    from repro.ml.asr import SAMPLES_PER_WORD

    rng = np.random.default_rng(seed)
    templates = np.stack([asr.vocoder._templates[w] for w in asr._words])
    padded = np.concatenate(
        [templates, np.zeros((len(templates), SAMPLES_PER_WORD))], axis=1
    )[:, shift:shift + SAMPLES_PER_WORD]
    if kind == "template":
        rows = np.round(padded * amplitude)
    elif kind == "clipped":
        rows = padded * 32767.0 * (1 + amplitude / 64)
    else:
        rows = rng.standard_normal((64, SAMPLES_PER_WORD)) * amplitude
    pcm = np.clip(rows, -32768, 32767).astype(np.int16)
    return pcm.astype(np.float32) / 32767.0


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    kind=st.sampled_from(["template", "clipped", "noise"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    amplitude=st.integers(min_value=1, max_value=32767),
    shift=st.integers(min_value=0, max_value=40),
)
@example(kind="template", seed=0, amplitude=32767, shift=0)
@example(kind="template", seed=0, amplitude=1, shift=0)
@example(kind="clipped", seed=0, amplitude=32767, shift=0)
@example(kind="noise", seed=0, amplitude=1, shift=0)
def test_property_window_correlation_within_bound(asr, kind, seed,
                                                  amplitude, shift):
    """No window the refine scores correlates above ``WINDOW_BOUND``.

    The pruned refine drops a candidate on the strength of this bound, so
    it is checked on the windows most likely to approach it: every
    template itself at full scale, template shapes quantized down to 1 LSB,
    clipped full-scale syllables and noise.
    """
    from repro.ml.asr import WINDOW_BOUND

    rows = _window_bound_rows(asr, kind, seed, amplitude, shift)
    live, best = asr._best_correlations(rows)
    assert best.dtype == np.float32
    assert len(best) == int(live.sum())
    assert (best.astype(np.float64) <= WINDOW_BOUND).all()


# Recorded from the one-window-at-a-time aligner before it was batched.
ALIGNMENT_OFFSETS_SHA256 = (
    "e66cff4a0baf08f35385ef9cde3d53e96bd15cf0a577676bb85b93ac38e234d1"
)


def _alignment_pin_corpus(asr, count=200):
    """``count`` segments from a fixed SimRng stream, every fourth of one
    kind: noisy shifted speech, VAD cuts of it, pure noise, and speech
    with a run of exact zeros inside."""
    from repro.ml.vad import EnergyVad
    from repro.sim.rng import SimRng

    gen = SimRng(4242, "asr-alignment-pin").generator
    vad = EnergyVad(slack_samples=400)
    vocab = asr._words
    segments = []
    while len(segments) < count:
        kind = len(segments) % 4
        if kind == 2:
            n = int(gen.integers(800, 9000))
            pcm = gen.standard_normal(n) * int(gen.integers(1, 3001))
        else:
            idx = gen.integers(0, len(vocab), int(gen.integers(2, 22)))
            speech = asr.vocoder.render_words([vocab[int(i)] for i in idx])
            pcm = np.concatenate([
                np.zeros(int(gen.integers(0, 1200))),
                speech.astype(np.float64),
                np.zeros(int(gen.integers(0, 800))),
            ])
            if kind == 3:
                at = int(gen.integers(0, len(pcm)))
                run = np.zeros(int(gen.integers(320, 1200)))
                pcm = np.concatenate([pcm[:at], run, pcm[at:]])
            pcm = pcm + gen.standard_normal(len(pcm)) * int(
                gen.integers(0, 6001)
            )
            if kind == 3:
                pcm[at:at + len(run)] = 0.0
        pcm = np.clip(pcm, -32768, 32767).astype(np.int16)
        segments.extend(vad.extract(pcm) if kind == 1 else [pcm])
    return segments[:count]


def test_alignment_offsets_pinned(asr):
    """The offsets chosen over a fixed 200-segment corpus never move."""
    import hashlib

    offsets = [
        asr._find_alignment(pcm.astype(np.float32) / 32767.0)
        for pcm in _alignment_pin_corpus(asr)
    ]
    digest = hashlib.sha256(",".join(map(str, offsets)).encode()).hexdigest()
    assert digest == ALIGNMENT_OFFSETS_SHA256
