"""Synthetic speech: vocoder and ASR.

Substitutes for the pre-trained speech-to-text models the paper would
reuse (Whisper [18], fairseq S2T [23]).  The pair is designed so the
*system* properties that matter are preserved:

* The microphone really carries speech-shaped PCM (the vocoder renders
  each word as a distinct multi-tone syllable), so the capture path moves
  realistic volumes of audio through the driver.
* The TA really recovers text from audio (matched-filter decoding), and
  recovery degrades naturally with acoustic noise.
* Recognition errors are controllable: :class:`NoisyChannel` injects
  substitutions/deletions/insertions at a target word-error rate, which is
  how experiment T6 sweeps classifier robustness against ASR quality.

:func:`word_error_rate` implements the standard Levenshtein WER metric so
the injected and measured rates can be cross-checked.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import MlError
from repro.ml.tokenizer import normalize
from repro.sim.rng import SimRng

SAMPLE_RATE = 16_000
SAMPLES_PER_WORD = 320  # 20 ms syllable
GAP_SAMPLES = 80  # 5 ms inter-word silence
WORD_STRIDE = SAMPLES_PER_WORD + GAP_SAMPLES
_AMPLITUDE = 0.35
#: Upper bound on one refine window's best template correlation.
#:
#: Both operands are float32 vectors of n = 320 samples scaled to unit
#: length in float32: the window by the square root of its ``sdot``, each
#: template row by ``np.linalg.norm``.  With u = 2**-24 and
#: g = n*u / (1 - n*u) ~ 1.907e-5, a float32 sum of n squares is at least
#: (1 - g) times the exact sum, and the square root and the division each
#: round once more, so each operand's length is at most
#: (1 + u) / ((1 - u) * sqrt(1 - g)) <= 1 + 9.7e-6.  A float32 dot product
#: of n terms errs by at most g * sum(|x_i * y_i|), in any summation order,
#: so by Cauchy-Schwarz it is at most (1 + g) * (1 + 9.7e-6)**2
#: <= 1 + 3.9e-5.  1 + 2**-14 ~ 1 + 6.1e-5 clears that by more than the
#: float64 rounding of a four-window total (~1e-15).  The largest value
#: measured over template-shaped windows was 1 + 2.4e-7.
WINDOW_BOUND = 1.0 + 2.0**-14
# Amplitude envelope of one word stride: Hann syllable, then the gap.
_ENVELOPE = np.concatenate(
    [np.hanning(SAMPLES_PER_WORD).astype(np.float32),
     np.zeros(GAP_SAMPLES, dtype=np.float32)]
)


def _envelope_scores(signal: np.ndarray) -> np.ndarray:
    """Circular correlation of the stride-folded |signal| with the envelope.

    One float32 score per shift.  Row ``shift`` of a sliding window over
    the doubled fold is the fold rotated left by ``shift``, and
    ``rows[:, None, :] @ _ENVELOPE[:, None]`` is a stack of 1×n by n×1
    products, which matmul evaluates with the ``sdot`` that ``np.dot``
    calls on two vectors, so every score equals ``np.dot(np.roll(folded,
    -shift), _ENVELOPE)`` bit for bit.
    """
    amplitude = np.abs(signal)
    usable = (len(amplitude) // WORD_STRIDE) * WORD_STRIDE
    folded = amplitude[:usable].reshape(-1, WORD_STRIDE).mean(axis=0)
    rows = sliding_window_view(np.concatenate([folded, folded[:-1]]),
                               WORD_STRIDE)
    return (rows[:, None, :] @ _ENVELOPE[:, None])[:, 0, 0]


def _word_template(word: str) -> np.ndarray:
    """Deterministic multi-tone waveform for one word (float in [-1, 1])."""
    h = int.from_bytes(hashlib.sha256(word.encode()).digest()[:8], "little")
    f1 = 350.0 + (h & 0x3FF)  # 350-1373 Hz
    f2 = 1500.0 + ((h >> 10) & 0x7FF)  # 1500-3547 Hz
    f3 = 4000.0 + ((h >> 21) & 0xFFF)  # 4000-8095 Hz
    phase = ((h >> 33) & 0xFF) / 255.0 * 2 * np.pi
    t = np.arange(SAMPLES_PER_WORD) / SAMPLE_RATE
    wave = (
        np.sin(2 * np.pi * f1 * t + phase)
        + 0.6 * np.sin(2 * np.pi * f2 * t)
        + 0.3 * np.sin(2 * np.pi * f3 * t)
    )
    envelope = np.hanning(SAMPLES_PER_WORD)
    return (wave * envelope / np.abs(wave * envelope).max()).astype(np.float32)


class SpeechVocoder:
    """Renders word sequences to int16 PCM."""

    def __init__(self, vocabulary: list[str]):
        if not vocabulary:
            raise MlError("vocoder needs a non-empty vocabulary")
        self.vocabulary = sorted(set(vocabulary))
        self._templates = {w: _word_template(w) for w in self.vocabulary}

    def render_words(self, words: list[str]) -> np.ndarray:
        """PCM for a word sequence (unknown words raise)."""
        chunks = []
        for word in words:
            if word not in self._templates:
                raise MlError(f"vocoder has no template for {word!r}")
            syllable = (self._templates[word] * _AMPLITUDE * 32767).astype(np.int16)
            chunks.append(syllable)
            chunks.append(np.zeros(GAP_SAMPLES, dtype=np.int16))
        if not chunks:
            return np.zeros(0, dtype=np.int16)
        return np.concatenate(chunks)

    def render(self, text: str) -> np.ndarray:
        """PCM for a sentence (normalized word-by-word)."""
        return self.render_words(normalize(text))

    def duration_samples(self, text: str) -> int:
        """Sample count :meth:`render` will produce for ``text``."""
        return len(normalize(text)) * WORD_STRIDE


class MatchedFilterAsr:
    """Decodes vocoder PCM back to text by matched filtering.

    Each word-stride window is correlated against every template; the
    best-scoring word wins if its normalized correlation clears
    ``silence_threshold`` (windows below it are treated as silence/noise
    and skipped).  Additive noise lowers correlations and produces real
    substitution errors — no artificial error injection needed for the
    acoustic branch.
    """

    def __init__(self, vocoder: SpeechVocoder, silence_threshold: float = 0.25):
        self.vocoder = vocoder
        self.silence_threshold = silence_threshold
        words = vocoder.vocabulary
        mat = np.stack([vocoder._templates[w] for w in words])
        norms = np.linalg.norm(mat, axis=1, keepdims=True)
        self._matrix = (mat / norms).astype(np.float32)
        self._words = words

    def _decode_at(self, signal: np.ndarray, offset: int) -> tuple[list[str], float]:
        """Decode assuming words start at ``offset``; returns (words, score).

        All word-stride windows are gathered into one ``(n_windows,
        SAMPLES_PER_WORD)`` block and correlated against every template
        with a single matrix product, instead of one matvec per window.
        """
        n_windows = (len(signal) - SAMPLES_PER_WORD - offset) // WORD_STRIDE + 1
        if len(signal) - offset < SAMPLES_PER_WORD or n_windows <= 0:
            return [], 0.0
        idx = (
            offset
            + np.arange(n_windows)[:, None] * WORD_STRIDE
            + np.arange(SAMPLES_PER_WORD)[None, :]
        )
        windows = signal[idx]
        norms = np.linalg.norm(windows, axis=1)
        live = norms >= 1e-6
        if not live.any():
            return [], 0.0
        normalized = windows[live] / norms[live, None]
        scores = normalized @ self._matrix.T
        best = scores.argmax(axis=1)
        best_scores = scores[np.arange(len(best)), best]
        keep = best_scores >= self.silence_threshold
        out = [self._words[int(b)] for b in best[keep]]
        total = sum(float(s) for s in best_scores[keep])
        return out, float(total)

    def _best_correlations(
        self, block: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Best template correlation of each non-silent row of ``block``.

        Returns ``(live, best)``: the rows whose norm is at least 1e-6 and
        their best correlations.  The kernels are the ones a one-window
        loop calls on the same operands: a stack of ``sdot`` for the norms,
        as ``np.linalg.norm(window)``, and one ``sgemv`` per row for
        ``self._matrix @ unit[:, :, None]``, as ``self._matrix @ (window /
        norm)``.  So every correlation is bit-identical to the loop's, and
        none exceeds :data:`WINDOW_BOUND`.
        """
        norms = np.sqrt(block[:, None, :] @ block[:, :, None])[:, 0, 0]
        live = norms >= 1e-6
        unit = block[live] / norms[live, None]
        return live, (self._matrix @ unit[:, :, None]).max(axis=1)[:, 0]

    def _refine_scores(
        self, signal: np.ndarray, candidates: np.ndarray, bar: int
    ) -> np.ndarray:
        """Matched-filter score of each candidate word-grid offset.

        A candidate's score sums, in float64 and in window order, the best
        template correlation (:meth:`_best_correlations`) of its first four
        non-silent word windows.  Candidate ``bar`` is scored first, alone;
        its score is the bar.  The others then advance window by window,
        and before each step a candidate whose score so far plus
        :data:`WINDOW_BOUND` per window still to count is below the bar is
        dropped, with score ``-inf``: float64 addition is monotonic, so its
        full score would be below the bar too, and the bar is at most the
        best score.  Every score that is not ``-inf`` is bit-identical to
        the unpruned loop's, so ``argmax`` picks the same candidate.
        """
        windows = sliding_window_view(signal, SAMPLES_PER_WORD)
        totals = np.zeros(len(candidates))
        counted = np.zeros(len(candidates), dtype=np.int64)
        starts = candidates.copy()

        def counting(rows: np.ndarray) -> np.ndarray:
            return rows[(counted[rows] < 4) & (starts[rows] < len(windows))]

        def step(rows: np.ndarray) -> None:
            live, best = self._best_correlations(windows[starts[rows]])
            totals[rows[live]] += best
            counted[rows[live]] += 1
            starts[rows] += WORD_STRIDE

        rows = np.array([bar])
        while len(rows := counting(rows)):
            step(rows)
        rows = np.delete(np.arange(len(candidates)), bar)
        while len(rows := counting(rows)):
            best_case = totals[rows] + (4 - counted[rows]) * WINDOW_BOUND
            doomed = best_case < totals[bar]
            totals[rows[doomed]] = -np.inf
            rows = rows[~doomed]
            if len(rows):
                step(rows)
        return totals

    def _find_alignment(self, signal: np.ndarray) -> int:
        """Estimate the word-grid offset of an arbitrarily cut segment.

        VAD-cut segments start on analysis-frame boundaries, not on the
        vocoder's word grid, and matched filtering decorrelates within a
        couple of samples (the templates carry components up to 8 kHz).
        Two stages:

        1. *Envelope fold* — the amplitude envelope is periodic at the
           word stride (Hann syllable + silent gap); folding |signal| into
           stride phase and circularly correlating against the known
           envelope (:func:`_envelope_scores`) finds the offset to within
           a few samples, globally and noise-robustly, O(N + stride²).
        2. *Matched-filter refine* — score the ±20 offsets around the
           envelope estimate with :meth:`_refine_scores`, the estimate
           first, and keep the best, the lowest offset on a tie (short
           segments fold few strides, so the estimate can be a dozen
           samples off).
        """
        if len(signal) < 2 * WORD_STRIDE:
            return 0
        estimate = int(np.argmax(_envelope_scores(signal)))
        candidates = np.unique((estimate + np.arange(-20, 21)) % WORD_STRIDE)
        bar = int(np.searchsorted(candidates, estimate))
        scores = self._refine_scores(signal, candidates, bar)
        return int(candidates[np.argmax(scores)])

    def transcribe(self, pcm: np.ndarray, align: bool = True) -> str:
        """Decode int16 PCM to text.

        ``align=True`` (default) searches for the word-grid offset first,
        making decoding robust to segments cut mid-silence by a VAD; pass
        ``align=False`` for known grid-aligned buffers.  The search, not
        the decode, is most of this call's host time.  Simulated cycles
        do not depend on ``align``: callers charge them from the sample
        count.
        """
        if pcm.dtype != np.int16:
            raise MlError(f"ASR expects int16 PCM, got {pcm.dtype}")
        signal = pcm.astype(np.float32) / 32767.0
        offset = self._find_alignment(signal) if align else 0
        words, _ = self._decode_at(signal, offset)
        return " ".join(words)

    def macs_per_second(self) -> int:
        """Decode cost: one correlation per template per stride."""
        strides_per_second = SAMPLE_RATE // WORD_STRIDE
        return strides_per_second * len(self._words) * SAMPLES_PER_WORD


class NoisyChannel:
    """Injects word errors at a target rate (substitution-heavy mix).

    Per word, with probability ``wer``: substitution 70%, deletion 20%,
    insertion 10% — roughly the error profile of a weak ASR on accented
    speech.  Used by T6 to sweep classifier robustness.
    """

    def __init__(self, rng: SimRng, wer: float, vocabulary: list[str]):
        if not 0.0 <= wer <= 1.0:
            raise MlError(f"wer {wer} out of range")
        self.rng = rng
        self.wer = wer
        self.vocabulary = vocabulary

    def corrupt(self, text: str) -> str:
        """Apply the error channel to a transcript."""
        out: list[str] = []
        for word in normalize(text):
            if self.rng.random() >= self.wer:
                out.append(word)
                continue
            kind = self.rng.random()
            if kind < 0.7:  # substitution
                out.append(self.rng.choice(self.vocabulary))
            elif kind < 0.9:  # deletion
                pass
            else:  # insertion (keep word, add a spurious one)
                out.append(word)
                out.append(self.rng.choice(self.vocabulary))
        return " ".join(out)


def word_error_rate(reference: str, hypothesis: str) -> float:
    """Levenshtein WER between two transcripts."""
    ref = normalize(reference)
    hyp = normalize(hypothesis)
    if not ref:
        return 0.0 if not hyp else 1.0
    # Classic DP edit distance.
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        cur = [i] + [0] * len(hyp)
        for j, h in enumerate(hyp, start=1):
            cost = 0 if r == h else 1
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost)
        prev = cur
    return prev[-1] / len(ref)
