"""The I²S capture driver.

Modelled on the breadth of a real SoC audio stack (the Jetson's APE/ADMAIF
I²S path): alongside the dozen functions a plain capture actually
exercises, the driver carries clocking, power management, pin muxing, a
playback (TX) path, full-duplex plumbing, mixer controls and debug
facilities.  That breadth is the point — the paper's research plan item 2
observes that "just part of a large driver code base could be used by a
target protocol", and experiment T2 measures exactly how much of this
driver a given task needs.

Every function is declared with ``@driver_fn(loc=..., subsystem=...)``;
the ``loc`` figures approximate the source footprint each function would
contribute to a ported OP-TEE image.

The driver is host-agnostic: give it a :class:`KernelDriverHost` and it is
the insecure baseline; give it a :class:`SecureDriverHost` and it is the
paper's ported secure driver.  All controller access goes through MMIO
loads/stores in the *host's* world, so porting changes the security
semantics without changing driver logic.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.drivers.base import Driver, driver_fn
from repro.drivers.hosting import DriverHost
from repro.errors import DeviceStateError, DriverError
from repro.peripherals.codec import mulaw_encode, pcm16_encode
from repro.peripherals.dma import DmaEngine
from repro.peripherals.i2s import CtrlBits, I2sController, I2sReg, StatusBits
from repro.tz.memory import MemoryRegion

STALL_BUDGET = 3
"""Consecutive empty ``read_chunk`` periods a capture loop tolerates
before it declares the stream stalled.  ``read_chunk`` blocks for a full
period of real capture time, so even one empty return means the
controller produced nothing for an entire period; three in a row is a
dead or disabled device (RX off, dead clock, fault injection), not
scheduling jitter.  Without a budget such a loop never terminates."""

_I16 = np.dtype("<i2")  # the sample half of a FIFO word, as the drains view it


class I2sDriver(Driver):
    """Instrumented I²S capture/playback driver."""

    NAME = "tegra-i2s"

    def __init__(
        self,
        host: DriverHost,
        controller: I2sController,
        mmio_region: MemoryRegion,
        compiled_out: frozenset[str] = frozenset(),
    ):
        super().__init__(host, compiled_out)
        self.controller = controller  # used only for capture pacing
        self.reg_base = mmio_region.base
        self.state = "unbound"
        self.chunk_frames = 0
        self._buf_addr: int | None = None
        self._buf_bytes = 0
        self.volume_pct = 100
        self.muted = False
        self._clocks_on = False
        self._powered = False
        self._regmap_ready = False
        self._pinmux_done = False
        self.capture_mode = "pio"
        self._dma: DmaEngine | None = None
        self._dma_staging_addr: int | None = None
        self._dma_staging_words = 0
        self._chunks_read = 0
        self._short_reads = 0
        self._missing_frames = 0

    # ------------------------------------------------------------------
    # register helpers
    # ------------------------------------------------------------------

    @driver_fn(loc=14, subsystem="regmap")
    def _reg_read(self, reg: I2sReg) -> int:
        return int.from_bytes(self.host.read_mem(self.reg_base + int(reg), 4),
                              "little")

    @driver_fn(loc=12, subsystem="regmap")
    def _reg_write(self, reg: I2sReg, value: int) -> None:
        self.host.write_mem(self.reg_base + int(reg), struct.pack("<I", value))

    @driver_fn(loc=20, subsystem="regmap")
    def _fifo_window_read(self, n_words: int) -> np.ndarray:
        """Pop ``n_words`` FIFO words in one burst bus transaction.

        The memory system charges the window read like any other sized
        transaction (one base cost plus per-line streaming); the
        controller-side per-word pop cost is charged explicitly through
        :meth:`CostModel.fifo_burst_cycles` — this is the recalibrated
        PIO cost attribution for the block-based capture path.
        """
        raw = self.host.read_mem(self.reg_base + int(I2sReg.FIFO), n_words * 4)
        self.host.compute(self.host.machine.costs.fifo_burst_cycles(n_words))
        return np.frombuffer(raw, dtype="<u4")

    @driver_fn(loc=22, subsystem="regmap")
    def _regmap_init(self) -> None:
        self._regmap_ready = True
        self.host.compute(120)

    # ------------------------------------------------------------------
    # probe / device-tree / topology
    # ------------------------------------------------------------------

    @driver_fn(loc=96, subsystem="probe", entry_point=True)
    def probe(self) -> None:
        """Bind the driver: parse DT, init regmap, clocks and power."""
        if self.state != "unbound":
            raise DeviceStateError(f"probe in state {self.state!r}")
        self._parse_device_tree()
        self._regmap_init()
        self._pm_runtime_get()
        self._clk_enable()
        self._pinmux_apply()
        self.state = "idle"

    @driver_fn(loc=64, subsystem="probe")
    def _parse_device_tree(self) -> None:
        self.host.compute(400)

    @driver_fn(loc=48, subsystem="probe", entry_point=True)
    def remove(self) -> None:
        """Unbind: quiesce hardware and release resources."""
        if self.state == "capturing":
            self.trigger_stop()
        if self._buf_addr is not None:
            self._release_dma_buffer()
        if self._dma_staging_addr is not None:
            self._dma_teardown()
        self._clk_disable()
        self._pm_runtime_put()
        self.state = "unbound"

    # ------------------------------------------------------------------
    # clock tree
    # ------------------------------------------------------------------

    @driver_fn(loc=40, subsystem="clock")
    def _clk_enable(self) -> None:
        self._pll_configure()
        self._mclk_set_parent()
        self._clocks_on = True
        self.host.compute(600)

    @driver_fn(loc=28, subsystem="clock")
    def _clk_disable(self) -> None:
        self._clocks_on = False
        self.host.compute(200)

    @driver_fn(loc=74, subsystem="clock")
    def _pll_configure(self) -> None:
        self.host.compute(900)

    @driver_fn(loc=33, subsystem="clock")
    def _mclk_set_parent(self) -> None:
        self.host.compute(150)

    @driver_fn(loc=51, subsystem="clock")
    def clk_set_rate(self, rate_hz: int) -> None:
        """Retune the bit clock for a new sample rate."""
        if rate_hz <= 0:
            raise DriverError(f"bad clock rate {rate_hz}")
        if not self._clocks_on:
            raise DeviceStateError("clocks are off")
        self._pll_configure()
        self.host.compute(300)

    # ------------------------------------------------------------------
    # power management
    # ------------------------------------------------------------------

    @driver_fn(loc=36, subsystem="power")
    def _pm_runtime_get(self) -> None:
        self._powered = True
        self.host.compute(250)

    @driver_fn(loc=30, subsystem="power")
    def _pm_runtime_put(self) -> None:
        self._powered = False
        self.host.compute(180)

    @driver_fn(loc=58, subsystem="power", entry_point=True)
    def suspend(self) -> None:
        """System suspend: save context, gate clocks."""
        if self.state == "capturing":
            raise DeviceStateError("cannot suspend while capturing")
        self._save_context()
        self._clk_disable()
        self.state = "suspended"

    @driver_fn(loc=62, subsystem="power", entry_point=True)
    def resume(self) -> None:
        """System resume: ungate clocks, restore context."""
        if self.state != "suspended":
            raise DeviceStateError(f"resume in state {self.state!r}")
        self._clk_enable()
        self._restore_context()
        self.state = "idle"

    @driver_fn(loc=44, subsystem="power")
    def _save_context(self) -> None:
        self.host.compute(300)

    @driver_fn(loc=47, subsystem="power")
    def _restore_context(self) -> None:
        self.host.compute(320)

    # ------------------------------------------------------------------
    # pinmux
    # ------------------------------------------------------------------

    @driver_fn(loc=39, subsystem="pinmux")
    def _pinmux_apply(self) -> None:
        self._pinmux_done = True
        self.host.compute(180)

    @driver_fn(loc=25, subsystem="pinmux")
    def pinmux_sleep_state(self) -> None:
        """Park the pins for low power (unused by plain capture)."""
        self.host.compute(120)

    # ------------------------------------------------------------------
    # PCM capture stream
    # ------------------------------------------------------------------

    @driver_fn(loc=52, subsystem="pcm", entry_point=True)
    def pcm_open_capture(self, chunk_frames: int) -> None:
        """Open a capture stream with a given period size."""
        if self.state != "idle":
            raise DeviceStateError(f"pcm_open_capture in state {self.state!r}")
        if chunk_frames <= 0:
            raise DriverError("chunk_frames must be positive")
        self.chunk_frames = chunk_frames
        self._hw_params()
        self._alloc_dma_buffer(chunk_frames * 2)  # int16 samples
        self.state = "prepared"

    @driver_fn(loc=68, subsystem="pcm")
    def _hw_params(self) -> None:
        self.clk_set_rate(self.controller.format.sample_rate)
        self.host.compute(350)

    @driver_fn(loc=31, subsystem="pcm")
    def _alloc_dma_buffer(self, nbytes: int) -> None:
        self._buf_addr = self.host.alloc_buffer(nbytes)
        self._buf_bytes = nbytes

    @driver_fn(loc=18, subsystem="pcm")
    def _release_dma_buffer(self) -> None:
        if self._buf_addr is not None:
            self.host.free_buffer(self._buf_addr)
            self._buf_addr = None
            self._buf_bytes = 0

    @driver_fn(loc=41, subsystem="pcm", entry_point=True)
    def trigger_start(self) -> None:
        """Enable the controller's receive path."""
        if self.state != "prepared":
            raise DeviceStateError(f"trigger_start in state {self.state!r}")
        self._reg_write(I2sReg.CTRL, int(CtrlBits.ENABLE | CtrlBits.RX_ENABLE))
        self.state = "capturing"

    @driver_fn(loc=37, subsystem="pcm", entry_point=True)
    def trigger_stop(self) -> None:
        """Disable the receive path and reset the FIFO."""
        if self.state != "capturing":
            raise DeviceStateError(f"trigger_stop in state {self.state!r}")
        self._reg_write(I2sReg.CTRL, int(CtrlBits.FIFO_RESET))
        self.state = "prepared"

    @driver_fn(loc=88, subsystem="pcm", entry_point=True)
    def read_chunk(self) -> np.ndarray:
        """Capture one period of audio into the I/O buffer; return samples.

        The heart of the data path: clocks frames in from the bus in
        FIFO-sized batches, drains the FIFO through the memory-mapped FIFO
        register (PIO), applies the mixer gain, and lands the int16 samples
        in the driver's I/O buffer — whose security attribute is decided
        entirely by the host that allocated it.
        """
        if self.state != "capturing":
            raise DeviceStateError(f"read_chunk in state {self.state!r}")
        if self._buf_addr is None:
            raise DriverError("no I/O buffer allocated")
        pcm = np.empty(self.chunk_frames, dtype=np.int16)
        filled = 0
        remaining = self.chunk_frames
        batch = max(1, self.controller.fifo_depth // 2)
        while remaining > 0:
            n = min(batch, remaining)
            self.controller.capture(n)
            if self.capture_mode == "dma":
                got = self._drain_fifo_dma(n)
            else:
                got = self._drain_fifo_pio(n)
            pcm[filled : filled + len(got)] = got
            filled += len(got)
            remaining -= n
        self._chunks_read += 1
        if filled < self.chunk_frames:
            # FIFO underrun: the contract is "at most one period"; callers
            # see the short array and the shortfall shows up in
            # capture_stats() rather than being silently zero-padded.
            self._short_reads += 1
            self._missing_frames += self.chunk_frames - filled
            pcm = pcm[:filled]
        pcm = self._apply_gain(pcm)
        self.host.write_mem(self._buf_addr, pcm16_encode(pcm))
        return pcm

    @driver_fn(loc=46, subsystem="pcm")
    def _drain_fifo_pio(self, max_words: int) -> np.ndarray:
        """Drain up to ``max_words`` samples via FIFO window reads.

        One FIFO_LEVEL poll plus one level-sized window read per
        iteration, instead of two register loads per word.  The int16
        samples are the low halves of the little-endian words, read as
        the strided view ``words.view("<i2")[::2]``.
        """
        out = np.empty(max_words, dtype=np.int16)
        filled = 0
        while filled < max_words:
            level = self._reg_read(I2sReg.FIFO_LEVEL)
            if level == 0:
                break
            n = min(level, max_words - filled)
            out[filled : filled + n] = self._fifo_window_read(n).view(_I16)[::2]
            filled += n
        return out[:filled]

    # ------------------------------------------------------------------
    # DMA capture path
    # ------------------------------------------------------------------

    @driver_fn(loc=21, subsystem="dma", entry_point=True)
    def set_capture_mode(self, mode: str) -> None:
        """Select ``"pio"`` (FIFO register reads) or ``"dma"`` drain mode."""
        if mode not in ("pio", "dma"):
            raise DriverError(f"unknown capture mode {mode!r}")
        if mode == "dma" and self._dma_staging_addr is None:
            self._dma_setup()
        self.capture_mode = mode

    @driver_fn(loc=48, subsystem="dma")
    def _dma_setup(self) -> None:
        """Program the DMA channel and allocate the staging buffer.

        The engine acts as a bus master with the *host's* security
        attribute: a secure-hosted driver gets secure DMA targeting the
        secure carveout; the TZASC would fault a non-secure engine there.
        """
        self._dma = DmaEngine(self.host.machine)
        words = max(1, self.controller.fifo_depth)
        self._dma_staging_addr = self.host.alloc_buffer(words * 4)
        self._dma_staging_words = words
        self.host.compute(self.host.machine.costs.dma_setup_cycles)

    @driver_fn(loc=52, subsystem="dma")
    def _drain_fifo_dma(self, max_words: int) -> np.ndarray:
        if self._dma is None or self._dma_staging_addr is None:
            raise DriverError("DMA not set up")
        out = np.empty(max_words, dtype=np.int16)
        filled = 0
        while filled < max_words:
            burst = min(max_words - filled, self._dma_staging_words)
            moved = self._dma.fifo_to_memory(
                self.controller, self._dma_staging_addr, burst,
                self.host.world,
            )
            if moved == 0:
                break
            raw = self.host.read_mem(self._dma_staging_addr, moved * 4)
            words = np.frombuffer(raw, dtype="<u4")
            out[filled : filled + moved] = words.view(_I16)[::2]
            filled += moved
        return out[:filled]

    @driver_fn(loc=17, subsystem="dma")
    def _dma_teardown(self) -> None:
        if self._dma_staging_addr is not None:
            self.host.free_buffer(self._dma_staging_addr)
            self._dma_staging_addr = None
            self._dma = None

    @driver_fn(loc=29, subsystem="pcm")
    def _apply_gain(self, pcm: np.ndarray) -> np.ndarray:
        if self.muted:
            return np.zeros_like(pcm)
        if self.volume_pct == 100:
            return pcm
        scaled = pcm.astype(np.int32) * self.volume_pct // 100
        return scaled.clip(-32768, 32767).astype(np.int16)

    @driver_fn(loc=26, subsystem="pcm", entry_point=True)
    def pcm_pointer(self) -> int:
        """Frames captured so far (the ALSA pointer callback)."""
        return self._reg_read(I2sReg.FRAME_COUNT)

    @driver_fn(loc=34, subsystem="pcm", entry_point=True)
    def pcm_close(self) -> None:
        """Close the stream and release the I/O buffer."""
        if self.state == "capturing":
            self.trigger_stop()
        if self.state != "prepared":
            raise DeviceStateError(f"pcm_close in state {self.state!r}")
        self._release_dma_buffer()
        self.chunk_frames = 0
        self.state = "idle"

    @driver_fn(loc=57, subsystem="pcm", entry_point=True)
    def encode_chunk(self, pcm: np.ndarray, codec: str = "pcm16") -> bytes:
        """Encode captured samples (the paper's in-driver processing step)."""
        self.host.compute(len(pcm) * 3)
        if codec == "pcm16":
            return pcm16_encode(pcm)
        if codec == "mulaw":
            return mulaw_encode(pcm)
        raise DriverError(f"unknown codec {codec!r}")

    # ------------------------------------------------------------------
    # playback (TX) path — present, unused by the capture task
    # ------------------------------------------------------------------

    @driver_fn(loc=49, subsystem="tx", entry_point=True)
    def pcm_open_playback(self, chunk_frames: int) -> None:
        """Open a playback stream (TX path)."""
        if self.state != "idle":
            raise DeviceStateError(f"pcm_open_playback in state {self.state!r}")
        if chunk_frames <= 0:
            raise DriverError("chunk_frames must be positive")
        self.chunk_frames = chunk_frames
        self._tx_fifo_setup()
        self.state = "tx_prepared"

    @driver_fn(loc=42, subsystem="tx")
    def _tx_fifo_setup(self) -> None:
        self.host.compute(280)

    @driver_fn(loc=77, subsystem="tx", entry_point=True)
    def write_chunk(self, pcm: np.ndarray) -> int:
        """Queue samples for playback."""
        if self.state != "tx_prepared":
            raise DeviceStateError(f"write_chunk in state {self.state!r}")
        self._tx_push_fifo(pcm)
        return len(pcm)

    @driver_fn(loc=38, subsystem="tx")
    def _tx_push_fifo(self, pcm: np.ndarray) -> None:
        self.host.compute(len(pcm) * 2)

    @driver_fn(loc=27, subsystem="tx", entry_point=True)
    def pcm_close_playback(self) -> None:
        """Close the playback stream."""
        if self.state != "tx_prepared":
            raise DeviceStateError(f"pcm_close_playback in state {self.state!r}")
        self.chunk_frames = 0
        self.state = "idle"

    # ------------------------------------------------------------------
    # full duplex
    # ------------------------------------------------------------------

    @driver_fn(loc=83, subsystem="duplex", entry_point=True)
    def duplex_start(self, chunk_frames: int) -> None:
        """Start simultaneous capture + playback (loopback style)."""
        if self.state != "idle":
            raise DeviceStateError(f"duplex_start in state {self.state!r}")
        if chunk_frames <= 0:
            raise DriverError("chunk_frames must be positive")
        self.chunk_frames = chunk_frames
        self._hw_params()
        self._alloc_dma_buffer(chunk_frames * 2)
        self._tx_fifo_setup()
        self._reg_write(I2sReg.CTRL,
                        int(CtrlBits.ENABLE | CtrlBits.RX_ENABLE | CtrlBits.LOOPBACK))
        self.state = "duplex"

    @driver_fn(loc=35, subsystem="duplex", entry_point=True)
    def duplex_stop(self) -> None:
        """Stop a duplex stream."""
        if self.state != "duplex":
            raise DeviceStateError(f"duplex_stop in state {self.state!r}")
        self._reg_write(I2sReg.CTRL, int(CtrlBits.FIFO_RESET))
        self._release_dma_buffer()
        self.state = "idle"

    # ------------------------------------------------------------------
    # mixer controls
    # ------------------------------------------------------------------

    @driver_fn(loc=32, subsystem="mixer", entry_point=True)
    def set_volume(self, pct: int) -> None:
        """Set the capture gain (0-200%)."""
        if not 0 <= pct <= 200:
            raise DriverError(f"volume {pct}% out of range")
        self.volume_pct = pct
        self.host.compute(80)

    @driver_fn(loc=19, subsystem="mixer", entry_point=True)
    def get_volume(self) -> int:
        """Current capture gain."""
        return self.volume_pct

    @driver_fn(loc=23, subsystem="mixer", entry_point=True)
    def set_mute(self, muted: bool) -> None:
        """Mute/unmute the capture path."""
        self.muted = bool(muted)
        self.host.compute(60)

    @driver_fn(loc=45, subsystem="mixer", entry_point=True)
    def mixer_enumerate(self) -> list[str]:
        """List mixer control names (alsamixer-style discovery)."""
        self.host.compute(150)
        return ["Capture Volume", "Capture Switch", "Loopback Switch"]

    # ------------------------------------------------------------------
    # interrupt handling
    # ------------------------------------------------------------------

    @driver_fn(loc=66, subsystem="irq", entry_point=True)
    def irq_handler(self) -> str:
        """Service an interrupt: classify and clear the condition."""
        status = self._reg_read(I2sReg.STATUS)
        if status & StatusBits.OVERRUN:
            self._handle_overrun()
            return "overrun"
        return "spurious"

    @driver_fn(loc=43, subsystem="irq")
    def _handle_overrun(self) -> None:
        self._reg_write(I2sReg.STATUS, int(StatusBits.OVERRUN))
        self.host.compute(200)

    # ------------------------------------------------------------------
    # debug facilities
    # ------------------------------------------------------------------

    @driver_fn(loc=71, subsystem="debug", entry_point=True)
    def dump_registers(self) -> dict[str, int]:
        """debugfs-style register dump."""
        return {
            "ctrl": self._reg_read(I2sReg.CTRL),
            "status": self._reg_read(I2sReg.STATUS),
            "fifo_level": self._reg_read(I2sReg.FIFO_LEVEL),
            "frame_count": self._reg_read(I2sReg.FRAME_COUNT),
            "overruns": self._reg_read(I2sReg.OVERRUN_COUNT),
        }

    @driver_fn(loc=24, subsystem="debug", entry_point=True)
    def capture_stats(self) -> dict[str, int]:
        """Capture-path statistics (short reads surface FIFO underruns).

        ``short_reads`` counts chunks that came back smaller than the
        configured period; ``missing_frames`` totals the shortfall, so a
        caller can reconcile ``sum(len(chunk))`` against
        ``chunks * chunk_frames`` exactly.
        """
        return {
            "chunks": self._chunks_read,
            "short_reads": self._short_reads,
            "missing_frames": self._missing_frames,
        }

    @driver_fn(loc=54, subsystem="debug", entry_point=True)
    def selftest(self) -> bool:
        """Loopback self-test (manufacturing diagnostic)."""
        self.host.compute(2000)
        return self._regmap_ready and self._pinmux_done
