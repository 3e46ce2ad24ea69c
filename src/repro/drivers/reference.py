"""Scalar reference implementations of the capture hot path.

The vectorized drains in :mod:`repro.drivers.i2s_driver` replaced the
original word-at-a-time register loops.  These functions preserve those
loops verbatim (one FIFO_LEVEL poll and one FIFO register load per word,
per-word Python sign extension) as an executable specification:

* the property tests assert the vectorized drains are *bit-identical* to
  these references for arbitrary FIFO levels, gains and chunk sizes;
* ``bench_t13_hotpath`` measures the vectorized path's speedup against
  them.

They operate *through* a live :class:`~repro.drivers.i2s_driver.I2sDriver`
instance's register helpers, so both paths pay the same class of MMIO
traffic — they are deliberately plain functions, not ``@driver_fn``
members, to keep the driver's TCB metadata (LoC accounting, trace-and-
strip function inventory) unchanged.  Being no entry points, they settle
the host themselves before returning, so each leaves nothing pending, as
an entry point does.
"""

from __future__ import annotations

import numpy as np

from repro.drivers.i2s_driver import I2sDriver
from repro.peripherals.i2s import I2sReg


def drain_fifo_pio_scalar(driver: I2sDriver, max_words: int) -> np.ndarray:
    """Word-at-a-time PIO drain (the pre-vectorization loop)."""
    out: list[int] = []
    while len(out) < max_words:
        level = driver._reg_read(I2sReg.FIFO_LEVEL)
        if level == 0:
            break
        word = driver._reg_read(I2sReg.FIFO)
        sample = word & 0xFFFF
        if sample >= 0x8000:
            sample -= 0x10000
        out.append(sample)
    driver.host.settle()
    return np.array(out, dtype=np.int16)


def read_chunk_scalar(driver: I2sDriver) -> np.ndarray:
    """Chunk capture built on the scalar PIO drain.

    Mirrors ``I2sDriver.read_chunk`` exactly — same capture/drain
    interleave (so overrun behaviour matches), same gain and buffer
    landing — with only the drain implementation swapped.
    """
    samples: list[int] = []
    remaining = driver.chunk_frames
    batch = max(1, driver.controller.fifo_depth // 2)
    while remaining > 0:
        n = min(batch, remaining)
        driver.controller.capture(n)
        samples.extend(int(s) for s in drain_fifo_pio_scalar(driver, n))
        remaining -= n
    pcm = np.array(samples, dtype=np.int16)
    pcm = driver._apply_gain(pcm)
    from repro.peripherals.codec import pcm16_encode

    driver.host.write_mem(driver._buf_addr, pcm16_encode(pcm))
    driver.host.settle()
    return pcm
