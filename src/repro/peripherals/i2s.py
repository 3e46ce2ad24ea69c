"""Inter-IC Sound (I²S) bus and controller.

The paper's POC targets I²S peripherals "because it is lightweight,
contrary to more complex protocols like USB" (Section III).  We model the
protocol at the level a driver interacts with it:

* :class:`I2sBus` — the three-wire serial link (SCK/WS/SD) between the
  controller and one device.  Frame timing follows the Philips spec: each
  frame carries one sample per channel at the configured bit depth, so the
  bit clock is ``sample_rate * bit_depth * channels``.
* :class:`I2sController` — the SoC-side controller as an MMIO register
  file with an RX FIFO, status/overrun semantics, and an optional DMA
  request interface.  Drivers program it exactly like hardware: store to
  CTRL, poll STATUS/FIFO_LEVEL, load from the FIFO register.

The RX FIFO (:class:`_WordFifo`) holds its words as little-endian bus
bytes in one ``bytearray`` — the form MMIO loads and DMA hand to memory —
so the capture hot path moves level-sized byte slices instead of one
Python integer per frame.  :meth:`I2sController.capture` packs a batch of
words in three numpy ops (sequence ``arange``, shift, OR with the samples'
``uint16`` view), and a drain recovers the int16 samples as the strided
view ``words.view("<i2")[::2]``.  The FIFO register additionally supports
*window reads*: a single ``4*n``-byte load from the FIFO offset pops ``n``
words in one MMIO transaction, modelling the burst access a real bus
master issues — this is what lets the driver drain a whole FIFO level per
transaction.
"""

from __future__ import annotations

import enum
import struct
import weakref
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import BusProtocolError, FifoUnderrunError
from repro.peripherals.audio import AudioFormat
from repro.peripherals.microphone import DigitalMicrophone
from repro.sim.clock import CycleDomain, SimClock
from repro.tz.memory import MmioHandler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.span import SpanTracer


class I2sReg(enum.IntEnum):
    """Register offsets of the I²S controller window."""

    CTRL = 0x00
    STATUS = 0x04
    FIFO = 0x08
    SAMPLE_RATE = 0x0C
    FIFO_LEVEL = 0x10
    FRAME_COUNT = 0x14
    OVERRUN_COUNT = 0x18


class CtrlBits(enum.IntFlag):
    """CTRL register bit assignments."""

    ENABLE = 1 << 0
    RX_ENABLE = 1 << 1
    LOOPBACK = 1 << 2
    FIFO_RESET = 1 << 3


class StatusBits(enum.IntFlag):
    """STATUS register bit assignments."""

    RX_EMPTY = 1 << 0
    RX_FULL = 1 << 1
    OVERRUN = 1 << 2
    ENABLED = 1 << 3


_RX_ON = int(CtrlBits.ENABLE | CtrlBits.RX_ENABLE)


class _WordFifo:
    """RX FIFO of 32-bit words, held as little-endian bus bytes.

    Hardware-equivalent to a ``deque[int]`` of words, but one
    ``bytearray`` in the byte order an MMIO window read and a DMA burst
    deliver, so pushing a packed batch is one append and popping ``n``
    words is one slice (CPython trims a ``bytearray``'s front in O(1)).
    """

    __slots__ = ("_buf",)

    def __init__(self) -> None:
        self._buf = bytearray()

    def __len__(self) -> int:
        return len(self._buf) >> 2

    def push(self, words: np.ndarray) -> None:
        """Append a block of uint32 words."""
        self._buf += words.astype("<u4", copy=False).tobytes()

    def pop_bytes(self, n_words: int) -> bytes:
        """Pop exactly ``n_words`` oldest words as bus bytes."""
        n = 4 * n_words
        if n > len(self._buf):
            raise FifoUnderrunError(
                f"I2S RX FIFO underrun: {n_words} word(s) read, {len(self)} buffered"
            )
        out = bytes(self._buf[:n])
        del self._buf[:n]
        return out

    def clear(self) -> None:
        """Drop all buffered words (FIFO_RESET)."""
        self._buf.clear()


class I2sBus:
    """The serial link between a controller and one I²S device."""

    def __init__(self, controller: "I2sController", device: DigitalMicrophone):
        if controller.format != device.format:
            raise BusProtocolError(
                f"format mismatch: controller {controller.format} vs "
                f"device {device.format}"
            )
        # Weak: the controller owns its bus (``_attach_bus``).
        self.controller = weakref.proxy(controller)
        self.device = device
        controller._attach_bus(self)

    @property
    def bit_clock_hz(self) -> int:
        """SCK frequency implied by the stream format (Philips spec)."""
        fmt = self.controller.format
        # I²S always clocks two word slots (left/right) per frame.
        return fmt.sample_rate * fmt.bit_depth * 2

    def pull_frames(self, n: int) -> np.ndarray:
        """Clock ``n`` frames out of the device (mono int16 samples)."""
        return self.device.read_frames(n)


class I2sController(MmioHandler):
    """Register-level I²S receive controller with an RX FIFO.

    Word format: the FIFO holds 32-bit words, one frame each — the 16-bit
    sample in the low half, the frame sequence number's low bits in the
    high half (a common debug aid in real controllers; also lets tests
    detect dropped frames).
    """

    def __init__(
        self,
        clock: SimClock,
        tracer: "SpanTracer",
        fmt: AudioFormat | None = None,
        fifo_depth: int = 64,
    ):
        self.clock = clock
        self.tracer = tracer
        self.format = fmt or AudioFormat()
        self.fifo_depth = fifo_depth
        self._fifo = _WordFifo()
        self._ctrl = 0
        self._frame_count = 0
        self._overrun_count = 0
        self._overrun_sticky = False
        self._bus: I2sBus | None = None
        self._irq_callback = None

    def set_irq_callback(self, callback) -> None:
        """Wire the controller's interrupt output (to a GIC line)."""
        self._irq_callback = callback

    # -- wiring ----------------------------------------------------------------

    def _attach_bus(self, bus: I2sBus) -> None:
        if self._bus is not None:
            raise BusProtocolError("controller already attached to a bus")
        self._bus = bus

    # -- hardware behaviour -------------------------------------------------------

    @property
    def enabled(self) -> bool:
        """True when CTRL.ENABLE and CTRL.RX_ENABLE are both set."""
        return self._ctrl & _RX_ON == _RX_ON

    @property
    def fifo_level(self) -> int:
        """Words currently buffered in the RX FIFO."""
        return len(self._fifo)

    def capture(self, n_frames: int) -> int:
        """Clock ``n_frames`` in from the bus into the RX FIFO.

        Models the passage of real capture time (charged to the peripheral
        clock domain at the sample rate).  Frames that arrive while the
        FIFO is full are *dropped* and the sticky OVERRUN status is set —
        hardware never blocks.  Returns the number of frames accepted.
        """
        if not self.enabled:
            return 0
        if self._bus is None:
            raise BusProtocolError("controller has no bus attached")
        samples = self._bus.pull_frames(n_frames)
        # Real-time capture: n frames take n/sample_rate seconds.
        capture_cycles = int(n_frames * self.clock.freq_hz / self.format.sample_rate)
        self.clock.advance(capture_cycles, CycleDomain.PERIPHERAL)
        was_overrun = self._overrun_sticky
        # Frames past the FIFO's free space are dropped — hardware never
        # blocks.  Packing is vectorized: seq in the high half, sample low;
        # the uint32 shift wraps the sequence at 16 bits.
        accepted = min(self.fifo_depth - len(self._fifo), len(samples))
        dropped = len(samples) - accepted
        if accepted:
            seq = self._frame_count & 0xFFFF
            self._fifo.push(
                (np.arange(seq, seq + accepted, dtype=np.uint32) << 16)
                | samples[:accepted].view(np.uint16)
            )
            self._frame_count += accepted
        if dropped:
            self._overrun_sticky = True
            self._overrun_count += dropped
            self.tracer.emit("periph.i2s", "overrun", dropped=dropped)
            # Edge-triggered interrupt on the first overrun occurrence.
            if not was_overrun and self._irq_callback is not None:
                self._irq_callback()
        return accepted

    def pop_word(self) -> int:
        """Pop one FIFO word (what a FIFO-register load does)."""
        return int.from_bytes(self._fifo.pop_bytes(1), "little")

    def drain_bytes(self, max_words: int) -> bytes:
        """Pop up to ``max_words`` as little-endian bus bytes (DMA burst)."""
        return self._fifo.pop_bytes(min(max_words, len(self._fifo)))

    def drain_words(self, max_words: int) -> list[int]:
        """Pop up to ``max_words`` (DMA burst read), as Python ints."""
        return np.frombuffer(self.drain_bytes(max_words), dtype="<u4").tolist()

    # -- MMIO register file -----------------------------------------------------------

    def mmio_read(self, offset: int, size: int) -> bytes:
        """Load from the register file (32-bit registers).

        The FIFO register additionally accepts *window reads*: a single
        ``4*n``-byte load pops ``n`` words in one bus transaction (the
        burst access a real bus master issues when draining a level).
        The whole burst must be backed by buffered words — hardware
        can't conjure frames mid-burst — so a window read larger than
        the current level underruns.
        """
        if offset == I2sReg.FIFO and size > 4:
            if size % 4:
                raise BusProtocolError(
                    f"I2S FIFO window reads are word-multiples (got {size} bytes)"
                )
            return self._fifo.pop_bytes(size // 4)
        if size != 4:
            raise BusProtocolError(f"I2S registers are 32-bit (got {size}-byte read)")
        if offset == I2sReg.CTRL:
            value = self._ctrl
        elif offset == I2sReg.STATUS:
            value = self._status()
        elif offset == I2sReg.FIFO:
            value = self.pop_word()
        elif offset == I2sReg.SAMPLE_RATE:
            value = self.format.sample_rate
        elif offset == I2sReg.FIFO_LEVEL:
            value = self.fifo_level
        elif offset == I2sReg.FRAME_COUNT:
            value = self._frame_count & 0xFFFFFFFF
        elif offset == I2sReg.OVERRUN_COUNT:
            value = self._overrun_count & 0xFFFFFFFF
        else:
            raise BusProtocolError(f"I2S: read of unknown register 0x{offset:x}")
        return struct.pack("<I", value)

    def mmio_write(self, offset: int, data: bytes) -> None:
        """Store to the register file."""
        if len(data) != 4:
            raise BusProtocolError(
                f"I2S registers are 32-bit (got {len(data)}-byte write)"
            )
        (value,) = struct.unpack("<I", data)
        if offset == I2sReg.CTRL:
            self._ctrl = value
            if value & CtrlBits.FIFO_RESET:
                self._fifo.clear()
                self._overrun_sticky = False
                self._ctrl &= ~int(CtrlBits.FIFO_RESET)
        elif offset == I2sReg.STATUS:
            # Write-1-to-clear for the sticky overrun bit.
            if value & StatusBits.OVERRUN:
                self._overrun_sticky = False
        else:
            raise BusProtocolError(f"I2S: write to unknown register 0x{offset:x}")

    def _status(self) -> int:
        status = 0
        if not self._fifo:
            status |= StatusBits.RX_EMPTY
        if len(self._fifo) >= self.fifo_depth:
            status |= StatusBits.RX_FULL
        if self._overrun_sticky:
            status |= StatusBits.OVERRUN
        if self.enabled:
            status |= StatusBits.ENABLED
        return int(status)
