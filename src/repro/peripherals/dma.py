"""TrustZone-aware DMA engine.

Real SoCs tag each DMA master with a security attribute; a non-secure DMA
cannot write into a secure carveout.  The engine models that: a transfer
declares the world it acts as, and the destination write goes through
:class:`~repro.tz.memory.PhysicalMemory` so the TZASC check applies.  This
matters for the reproduction because the secure driver's DMA lands in
secure buffers — and a normal-world attacker reprogramming DMA cannot make
it scribble into (or read out of) the enclave.
"""

from __future__ import annotations

from repro.peripherals.i2s import I2sController
from repro.sim.clock import CycleDomain
from repro.tz.machine import TrustZoneMachine
from repro.tz.worlds import World


class DmaEngine:
    """A single-channel DMA engine moving I²S FIFO words to memory."""

    def __init__(self, machine: TrustZoneMachine):
        self.machine = machine
        self.transfers = 0
        self.words_moved = 0

    def fifo_to_memory(
        self,
        controller: I2sController,
        dest_addr: int,
        max_words: int,
        world: World,
    ) -> int:
        """Drain up to ``max_words`` FIFO words into memory at ``dest_addr``.

        Acts as a bus master with the given ``world`` security attribute;
        raises :class:`~repro.errors.SecureAccessViolation` if a non-secure
        transfer targets secure memory.  Each 32-bit word is stored
        little-endian.  Returns the number of words moved.
        """
        self.machine.clock.advance(
            self.machine.costs.dma_setup_cycles, CycleDomain.DMA
        )
        faults = self.machine.secure_faults
        if faults is not None and faults.fires("dma"):
            from repro.errors import InjectedFault

            raise InjectedFault(
                f"injected DMA abort (dest=0x{dest_addr:x}, "
                f"world={world.value})"
            )
        payload = controller.drain_bytes(max_words)
        moved = len(payload) // 4
        if moved:
            self.machine.memory.write(dest_addr, payload, world)
            # Streaming cost over and above the memory-system charge.
            self.machine.clock.advance(moved * 2, CycleDomain.DMA)
        self.transfers += 1
        self.words_moved += moved
        return moved
