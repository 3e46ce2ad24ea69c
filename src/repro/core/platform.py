"""Platform assembly: the whole simulated device in one object.

Builds and wires every substrate so examples, tests and benchmarks start
from one call: TrustZone machine, OP-TEE + supplicant, untrusted kernel,
the I²S microphone chain (controller in its own MMIO partition, so it can
be secured independently), an optional camera, the cloud endpoints, and
an energy meter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cloud.service import IngestionConfig, VoiceCloudService
from repro.energy.model import EnergyMeter, PowerModel
from repro.kernel.kernel import Kernel
from repro.optee.os import OpTeeOs
from repro.optee.supplicant import TeeSupplicant
from repro.peripherals.audio import AudioFormat, SilenceSource
from repro.peripherals.camera import Camera, SyntheticScene
from repro.peripherals.i2s import I2sBus, I2sController, I2sReg  # noqa: F401
from repro.peripherals.microphone import DigitalMicrophone
from repro.sim.faults import (
    FaultConfig,
    FaultInjector,
    SecureFaultConfig,
    SecureFaultInjector,
)
from repro.sim.rng import SimRng
from repro.tz.machine import MachineConfig, TrustZoneMachine
from repro.tz.memory import MemoryRegion, SecurityAttr
from repro.tz.worlds import World

I2S_MMIO_BASE = 0x0400_0000
I2S_MMIO_SIZE = 0x1000


@dataclass
class IotPlatform:
    """A fully wired simulated IoT device."""

    machine: TrustZoneMachine
    tee: OpTeeOs
    supplicant: TeeSupplicant
    kernel: Kernel
    mic: DigitalMicrophone
    i2s_controller: I2sController
    i2s_region: MemoryRegion
    camera: Camera
    cloud: VoiceCloudService
    energy: EnergyMeter
    rng: SimRng

    @classmethod
    def create(
        cls,
        seed: int | None = None,
        machine_config: MachineConfig | None = None,
        audio_format: AudioFormat | None = None,
        i2s_fifo_depth: int = 64,
        power_model: PowerModel | None = None,
        ta_verification_key: bytes | None = None,
        network_faults: FaultConfig | None = None,
        secure_faults: SecureFaultConfig | None = None,
        ingestion: IngestionConfig = IngestionConfig.unthrottled(),
    ) -> "IotPlatform":
        """Build the device.

        ``seed`` overrides the master seed of ``machine_config`` (applied
        to a copy, so the caller's config is untouched); ``None`` keeps the
        config's own ``sim.seed``, 42 by default.

        The I²S controller gets its own MMIO partition (``i2s_mmio``) so
        the secure design can claim exactly that peripheral without
        affecting other devices — mirroring per-device TZASC/TZPC control
        on real SoCs.

        ``network_faults`` installs a deterministic fault injector on the
        supplicant's network service (the untrusted relay link of the
        threat model); omit it for a perfectly reliable network.
        ``secure_faults`` does the same *inside* the TEE (TA panics, heap
        exhaustion, PTA/DMA errors, storage corruption) — the chaos knob
        the supervision layer is tested against.

        ``ingestion`` (an :class:`~repro.cloud.service.IngestionConfig`)
        sizes the cloud service's sharded multi-tenant admission tier —
        token buckets, bounded tenant queues, Throttled verdicts — driven
        read-only by this machine's clock and reporting into its metrics
        registry.  The default never throttles and commits every
        accepted event at admission.
        """
        config = machine_config or MachineConfig()
        if seed is not None:
            config = replace(config, sim=replace(config.sim, seed=seed))
        machine = TrustZoneMachine(config)
        rng = machine.rng
        if secure_faults is not None and secure_faults.enabled:
            machine.secure_faults = SecureFaultInjector(
                secure_faults, rng.fork("tee-chaos")
            )

        tee = OpTeeOs(machine, ta_verification_key=ta_verification_key)
        supplicant = TeeSupplicant(machine)
        if network_faults is not None and network_faults.enabled:
            supplicant.net.set_fault_injector(
                FaultInjector(network_faults, rng.fork("net"))
            )
        tee.attach_supplicant(supplicant)
        kernel = Kernel(machine)

        i2s_region = machine.memory.add_region(
            MemoryRegion(
                "i2s_mmio", I2S_MMIO_BASE, I2S_MMIO_SIZE,
                SecurityAttr.NONSECURE, device=True,
            )
        )
        controller = I2sController(
            machine.clock, machine.obs.tracer,
            fmt=audio_format or AudioFormat(),
            fifo_depth=i2s_fifo_depth,
        )
        machine.memory.attach_mmio("i2s_mmio", controller)
        # Interrupt wiring: the controller's IRQ output drives a GIC line,
        # which boots routed to the normal world (unclaimed peripheral).
        from repro.tz.interrupts import IRQ_I2S

        # Closes over the GIC, not the machine: the machine maps the
        # controller, so a closure over the machine would be a cycle.
        gic = machine.gic
        controller.set_irq_callback(lambda: gic.raise_line(IRQ_I2S))
        machine.gic.configure(IRQ_I2S, World.NORMAL, lambda: None)
        mic = DigitalMicrophone(SilenceSource(), fmt=controller.format)
        I2sBus(controller, mic)

        camera = Camera(SyntheticScene(rng.fork("scene")))

        cloud = VoiceCloudService(
            rng.fork("cloud"), machine.clock, machine.obs.metrics, ingestion
        )
        supplicant.net.register_endpoint(
            VoiceCloudService.HOST, VoiceCloudService.TLS_PORT, cloud
        )
        supplicant.net.register_endpoint(
            VoiceCloudService.HOST,
            VoiceCloudService.PLAINTEXT_PORT,
            cloud.plaintext_endpoint,
        )

        energy = EnergyMeter(machine.clock, power_model or PowerModel())
        # Wire the meter into the observability layer so spans carry
        # per-region energy deltas alongside their cycle attribution.
        machine.obs.attach_energy(energy)

        return cls(
            machine=machine,
            tee=tee,
            supplicant=supplicant,
            kernel=kernel,
            mic=mic,
            i2s_controller=controller,
            i2s_region=i2s_region,
            camera=camera,
            cloud=cloud,
            energy=energy,
            rng=rng,
        )
