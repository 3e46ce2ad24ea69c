"""Unit + integration tests: TrustZone interrupt routing."""

import pytest

from repro.errors import SecureAccessViolation, TrustZoneError
from repro.tz.interrupts import IRQ_I2S
from repro.tz.worlds import World


class TestConfiguration:
    def test_normal_world_configures_normal_lines(self, machine):
        machine.gic.configure(40, World.NORMAL, lambda: None)
        machine.gic.raise_line(40)
        assert machine.gic.line_count(40) == 1

    def test_secure_line_requires_secure_world(self, machine):
        with pytest.raises(SecureAccessViolation):
            machine.gic.configure(40, World.SECURE, lambda: None)

    def test_normal_world_cannot_steal_secure_line(self, machine):
        machine.cpu._set_world(World.SECURE)
        machine.gic.configure(40, World.SECURE, lambda: None)
        machine.cpu._set_world(World.NORMAL)
        with pytest.raises(SecureAccessViolation):
            machine.gic.configure(40, World.NORMAL, lambda: None)

    def test_spurious_line_rejected(self, machine):
        with pytest.raises(TrustZoneError):
            machine.gic.raise_line(99)


class TestDelivery:
    def test_same_world_delivery_direct(self, machine):
        fired = []
        machine.gic.configure(40, World.NORMAL, lambda: fired.append(1))
        switches = machine.cpu.switch_count
        machine.gic.raise_line(40)
        assert fired == [1]
        assert machine.cpu.switch_count == switches  # no transition

    def test_cross_world_delivery_switches_and_restores(self, machine):
        seen = {}
        machine.cpu._set_world(World.SECURE)
        machine.gic.configure(
            40, World.SECURE, lambda: seen.setdefault("world", machine.cpu.world)
        )
        machine.cpu._set_world(World.NORMAL)
        switches = machine.cpu.switch_count
        machine.gic.raise_line(40)
        assert seen["world"] is World.SECURE
        assert machine.cpu.world is World.NORMAL
        assert machine.cpu.switch_count == switches + 2

    def test_delivery_restores_world_on_handler_error(self, machine):
        machine.cpu._set_world(World.SECURE)
        machine.gic.configure(
            40, World.SECURE,
            lambda: (_ for _ in ()).throw(RuntimeError("handler bug")),
        )
        machine.cpu._set_world(World.NORMAL)
        with pytest.raises(RuntimeError):
            machine.gic.raise_line(40)
        assert machine.cpu.world is World.NORMAL

    def test_observed_by_counts(self, machine):
        machine.gic.configure(40, World.NORMAL, lambda: None)
        machine.gic.raise_line(40)
        machine.gic.raise_line(40)
        assert machine.gic.observed_by(World.NORMAL) == 2
        assert machine.gic.observed_by(World.SECURE) == 0

    def test_deliveries_traced(self, machine):
        machine.gic.configure(40, World.NORMAL, lambda: None)
        machine.gic.raise_line(40)
        events = machine.obs.tracer.spans_in("tz.gic")
        assert len(events) >= 2  # configure + deliver


class TestSideChannelClosure:
    """The privacy point: who can observe microphone activity."""

    def _flood(self, platform):
        """Force FIFO overruns (activity without anyone draining)."""
        from repro.peripherals.i2s import CtrlBits

        import struct

        platform.i2s_controller._ctrl = int(
            CtrlBits.ENABLE | CtrlBits.RX_ENABLE
        )
        platform.i2s_controller.capture(
            platform.i2s_controller.fifo_depth * 3
        )

    def test_baseline_kernel_observes_mic_interrupts(self, provisioned):
        from repro.core.baseline import BaselinePipeline
        from repro.core.platform import IotPlatform

        platform = IotPlatform.create(seed=401)
        BaselinePipeline(platform, provisioned.bundle.asr)
        self._flood(platform)
        assert platform.machine.gic.observed_by(World.NORMAL) >= 1

    def test_secure_design_hides_mic_interrupts_from_kernel(self, provisioned):
        from repro.core.pipeline import SecurePipeline
        from repro.core.platform import IotPlatform
        from tests.test_core_pipeline import MIXED, make_workload

        platform = IotPlatform.create(seed=402)
        pipeline = SecurePipeline(platform, provisioned.bundle)
        # PTA INIT (first utterance) claims the line into the secure world.
        pipeline.process(make_workload(provisioned, MIXED[:1]))
        normal_before = platform.machine.gic.observed_by(World.NORMAL)
        self._flood(platform)
        assert platform.machine.gic.observed_by(World.NORMAL) == normal_before
        assert platform.machine.gic.observed_by(World.SECURE) >= 1
        # And the secure handler actually cleared the condition.
        from repro.peripherals.i2s import StatusBits

        assert not platform.i2s_controller._overrun_sticky