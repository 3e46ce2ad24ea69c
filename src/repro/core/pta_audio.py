"""The secure audio PTA.

The intermediary the paper describes (Section II): "a secure module with
OS-level privileges that could serve as an intermediary between a TA (no
OS-level privileges) and low-level code like device driver software."

At ``INIT`` the PTA claims the I²S controller's MMIO partition into the
secure world (after which the kernel literally cannot program the device)
and instantiates the — typically trace-minimized — I²S driver on a
:class:`~repro.drivers.hosting.SecureDriverHost`, so the driver's I/O
buffers land in the secure carveout (Fig. 1 step 3).

Commands (TA-facing)::

    INIT           payload: {"compiled_out": frozenset|None}
    OPEN           payload: {"chunk_frames": int}
    START / STOP / CLOSE
    READ           payload: {"frames": int} → np.int16 PCM (secure-side)
    BUFFER_ADDR    → (addr, size) of the driver's current I/O buffer
    STATE          → driver state string ("uninit" before INIT) — the
                     recovery handshake a restarted TA uses to adopt a
                     still-running capture stream
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.drivers.hosting import SecureDriverHost
from repro.drivers.i2s_driver import STALL_BUDGET, I2sDriver
from repro.errors import DeviceStateError, TeeBadParameters
from repro.optee.pta import PseudoTa
from repro.peripherals.i2s import I2sController
from repro.tz.memory import MemoryRegion

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.optee.ta import TrustedApplication

CMD_INIT = 1
CMD_OPEN = 2
CMD_START = 3
CMD_READ = 4
CMD_STOP = 5
CMD_CLOSE = 6
CMD_BUFFER_ADDR = 7
CMD_STATE = 8


class SecureAudioPta(PseudoTa):
    """Hosts the secure I²S driver behind a PTA command interface."""

    NAME = "pta.secure-audio"

    def __init__(self, controller: I2sController, mmio_region: MemoryRegion):
        super().__init__()
        self._controller = controller
        self._mmio_region = mmio_region
        self.driver: I2sDriver | None = None
        self._utt_buf_addr: int | None = None
        self._utt_buf_size = 0  # allocated capacity (bytes)
        self._utt_buf_len = 0  # live utterance length (bytes)

    def on_invoke(
        self, cmd: int, payload: Any, caller: "TrustedApplication | None"
    ) -> Any:
        """Dispatch one command (see module docstring for the table)."""
        if cmd == CMD_INIT:
            return self._init(payload or {})
        self.require_caller(caller)
        if cmd == CMD_STATE:
            # Recovery handshake: a restarted TA asks where the hardware
            # actually is (the PTA and driver survive a TA panic), so it
            # can adopt a still-running capture instead of re-OPENing a
            # non-idle stream and tripping the driver's state machine.
            return self.driver.state if self.driver is not None else "uninit"
        if self.driver is None:
            raise TeeBadParameters("secure audio PTA not initialized")
        if cmd == CMD_OPEN:
            self.driver.pcm_open_capture(int(payload["chunk_frames"]))
            return None
        if cmd == CMD_START:
            self.driver.trigger_start()
            return None
        if cmd == CMD_READ:
            return self._read(int(payload["frames"]))
        if cmd == CMD_STOP:
            self.driver.trigger_stop()
            return None
        if cmd == CMD_CLOSE:
            self.driver.pcm_close()
            return None
        if cmd == CMD_BUFFER_ADDR:
            return (self.driver._buf_addr, self.driver._buf_bytes)
        raise TeeBadParameters(f"secure audio PTA: unknown command {cmd}")

    def _init(self, payload: dict) -> None:
        """Claim the controller and probe the (minimized) secure driver."""
        assert self.ctx is not None, "PTA not registered"
        if self.driver is not None:
            return  # idempotent
        self.ctx.claim_region(self._mmio_region)
        compiled_out = payload.get("compiled_out") or frozenset()
        self.driver = I2sDriver(
            SecureDriverHost(self.ctx),
            self._controller,
            self._mmio_region,
            compiled_out=frozenset(compiled_out),
        )
        self.driver.probe()
        # Pull the controller's interrupt line into the secure world too:
        # the kernel must neither handle nor observe mic activity.
        from repro.tz.interrupts import IRQ_I2S
        from repro.tz.worlds import World

        # Weak: the machine's GIC must not keep the OS's PTA alive.
        pta = weakref.proxy(self)
        self.ctx.machine.gic.configure(
            IRQ_I2S, World.SECURE, lambda: pta.driver.irq_handler()
        )
        self.ctx.log("driver_ready", compiled_out=len(self.driver.compiled_out))

    def _read(self, frames: int) -> np.ndarray:
        """Capture ``frames`` samples through the secure driver.

        The assembled utterance is also landed in a *secure* carveout
        buffer (the in-TEE analogue of the userland app buffer a baseline
        system would hold) — the address experiments hand to the attack
        models, which then fault on it.
        """
        assert self.driver is not None and self.ctx is not None
        full = np.empty(frames, dtype=np.int16)
        filled = 0
        empty_reads = 0
        with self.ctx.machine.obs.span(
            "pta_read", category="capture.secure", frames=frames
        ):
            while filled < frames:
                pcm = self.driver.read_chunk()
                if len(pcm) == 0:
                    empty_reads += 1
                    if empty_reads >= STALL_BUDGET:
                        raise DeviceStateError(
                            f"secure audio capture stalled: {empty_reads} "
                            f"consecutive empty reads at {filled}/{frames} "
                            f"frames"
                        )
                    continue
                empty_reads = 0
                take = min(len(pcm), frames - filled)
                full[filled : filled + take] = pcm[:take]
                filled += take
            self._land_utterance(full)
        return full

    def _land_utterance(self, pcm: np.ndarray) -> None:
        """Land the utterance through the PTA's own context, not the
        driver's host: the PTA is no driver entry point, so cycles priced
        on the host here would wait for the next ``read_chunk``."""
        nbytes = len(pcm) * 2
        self._utt_buf_len = nbytes
        if nbytes == 0:
            return
        ctx = self.ctx
        assert ctx is not None
        if self._utt_buf_addr is None or nbytes > self._utt_buf_size:
            if self._utt_buf_addr is not None:
                ctx.free_secure(self._utt_buf_addr)
            self._utt_buf_addr = ctx.alloc_secure(nbytes)
            self._utt_buf_size = nbytes
        ctx.write_phys(self._utt_buf_addr, pcm.astype("<i2").tobytes())
        if nbytes < self._utt_buf_size:
            # Scrub the stale tail: a reused larger buffer would otherwise
            # keep the previous utterance's plaintext past the live window.
            ctx.write_phys(
                self._utt_buf_addr + nbytes, b"\x00" * (self._utt_buf_size - nbytes)
            )

    def utterance_buffer(self) -> tuple[int, int] | None:
        """(addr, live length) of the secure utterance buffer, if any.

        The length is the *live* utterance size, not the allocation
        capacity — a shorter utterance landing in a reused larger buffer
        must not report (or expose) the stale tail.
        """
        if self._utt_buf_addr is None:
            return None
        return (self._utt_buf_addr, self._utt_buf_len)

    # -- introspection for experiments -----------------------------------------

    def tcb_loc(self) -> int:
        """LoC of the driver build actually running in the TEE."""
        if self.driver is None:
            return 0
        return self.driver.compiled_loc()
