"""Unit tests: SimConfig and relay module internals not covered elsewhere."""

import pytest

from repro.sim.config import SimConfig
from repro.sim.clock import CycleDomain


class TestSimConfig:
    def test_builders_honor_settings(self):
        config = SimConfig(seed=9, freq_hz=1e9)
        clock = config.build_clock()
        assert clock.freq_hz == 1e9
        rng = config.build_rng()
        assert rng.seed == 9

    def test_default_seed_reproducible(self):
        a = SimConfig().build_rng().bytes(8)
        b = SimConfig().build_rng().bytes(8)
        assert a == b

    def test_machine_uses_config(self):
        from repro.tz.machine import MachineConfig, TrustZoneMachine

        sim = SimConfig(seed=77, freq_hz=1.5e9)
        machine = TrustZoneMachine(MachineConfig(sim=sim))
        assert machine.clock.freq_hz == 1.5e9
        assert machine.rng.seed == 77


class TestPlatformSeed:
    """``IotPlatform.create`` honours ``seed`` with or without a config."""

    def test_seed_applies_to_given_config_without_mutating_it(self):
        from repro.core.platform import IotPlatform
        from repro.tz.machine import MachineConfig

        config = MachineConfig()
        platform = IotPlatform.create(seed=7, machine_config=config)
        assert platform.rng.seed == 7
        assert platform.machine.config.sim.seed == 7
        assert config.sim.seed == 42

    def test_no_seed_means_the_config_seed(self):
        from repro.core.platform import IotPlatform
        from repro.tz.machine import MachineConfig

        assert IotPlatform.create().rng.seed == 42
        config = MachineConfig(sim=SimConfig(seed=9))
        assert IotPlatform.create(machine_config=config).rng.seed == 9


class TestRelayModule:
    """Direct RelayModule behaviour (indirectly exercised via pipelines)."""

    @pytest.fixture
    def relay_setup(self, machine):
        from repro.cloud.service import VoiceCloudService
        from repro.optee.os import OpTeeOs
        from repro.optee.supplicant import TeeSupplicant
        from repro.optee.ta import TaContext, TrustedApplication
        from repro.relay.relay import RelayModule
        from repro.sim.rng import SimRng

        tee = OpTeeOs(machine)
        supplicant = TeeSupplicant(machine)
        tee.attach_supplicant(supplicant)
        cloud = VoiceCloudService(SimRng(1, "cloud"), machine.clock)
        supplicant.net.register_endpoint(cloud.HOST, cloud.TLS_PORT, cloud)

        ta = TrustedApplication()
        ta.ctx = TaContext(tee, ta)
        relay = RelayModule(
            ta.ctx, cloud.HOST, cloud.TLS_PORT,
            cloud.tls.static_public, SimRng(2, "relay"),
        )
        # Yield, not return: the fixture's frame owns the OS and the TA,
        # which the TA context refers to weakly.
        yield machine, relay, cloud

    def test_connect_is_idempotent(self, relay_setup):
        from repro.tz.worlds import World

        machine, relay, _ = relay_setup
        machine.cpu._set_world(World.SECURE)
        try:
            relay.connect()
            handshakes = relay._tls.handshakes
            relay.connect()
            assert relay._tls.handshakes == handshakes
        finally:
            machine.cpu._set_world(World.NORMAL)

    def test_transcript_reaches_cloud_encrypted(self, relay_setup):
        from repro.tz.worlds import World

        machine, relay, cloud = relay_setup
        machine.cpu._set_world(World.SECURE)
        try:
            directive = relay.send_payload("transcript", "hello cloud")
        finally:
            machine.cpu._set_world(World.NORMAL)
        assert directive["directive"] == "Response"
        assert cloud.received_transcripts == ["hello cloud"]
        assert relay.bytes_sent > 0

    def test_heartbeat(self, relay_setup):
        from repro.tz.worlds import World

        machine, relay, cloud = relay_setup
        machine.cpu._set_world(World.SECURE)
        try:
            assert relay.heartbeat()["directive"] == "Ack"
        finally:
            machine.cpu._set_world(World.NORMAL)
