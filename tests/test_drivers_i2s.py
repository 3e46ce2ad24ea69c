"""Unit tests: I²S driver — state machine, capture, mixer, build stripping."""

import numpy as np
import pytest

from repro.drivers.hosting import KernelDriverHost
from repro.drivers.i2s_driver import I2sDriver
from repro.errors import DeviceStateError, DriverError
from repro.peripherals.audio import BufferSource, ToneSource
from repro.peripherals.i2s import I2sBus, I2sController
from repro.peripherals.microphone import DigitalMicrophone
from repro.tz.memory import MemoryRegion, SecurityAttr


@pytest.fixture
def rig(machine):
    """Machine + wired controller + kernel-hosted driver."""
    region = machine.memory.add_region(
        MemoryRegion("i2s_mmio", 0x0400_0000, 0x1000,
                     SecurityAttr.NONSECURE, device=True)
    )
    controller = I2sController(machine.clock, machine.obs.tracer)
    machine.memory.attach_mmio("i2s_mmio", controller)
    mic = DigitalMicrophone(ToneSource(), fmt=controller.format)
    I2sBus(controller, mic)
    host = KernelDriverHost(machine)
    driver = I2sDriver(host, controller, region)
    return machine, driver, mic, controller


def open_capture(driver, chunk=64):
    driver.probe()
    driver.pcm_open_capture(chunk)
    driver.trigger_start()


class TestStateMachine:
    def test_initial_state(self, rig):
        _, driver, _, _ = rig
        assert driver.state == "unbound"

    def test_probe_transitions_to_idle(self, rig):
        _, driver, _, _ = rig
        driver.probe()
        assert driver.state == "idle"

    def test_double_probe_rejected(self, rig):
        _, driver, _, _ = rig
        driver.probe()
        with pytest.raises(DeviceStateError):
            driver.probe()

    def test_read_before_start_rejected(self, rig):
        _, driver, _, _ = rig
        driver.probe()
        driver.pcm_open_capture(64)
        with pytest.raises(DeviceStateError):
            driver.read_chunk()

    def test_open_requires_idle(self, rig):
        _, driver, _, _ = rig
        with pytest.raises(DeviceStateError):
            driver.pcm_open_capture(64)

    def test_stop_requires_capturing(self, rig):
        _, driver, _, _ = rig
        driver.probe()
        with pytest.raises(DeviceStateError):
            driver.trigger_stop()

    def test_full_cycle_returns_to_idle(self, rig):
        _, driver, _, _ = rig
        open_capture(driver)
        driver.read_chunk()
        driver.trigger_stop()
        driver.pcm_close()
        assert driver.state == "idle"

    def test_close_while_capturing_stops_first(self, rig):
        _, driver, _, _ = rig
        open_capture(driver)
        driver.pcm_close()
        assert driver.state == "idle"

    def test_remove_releases_everything(self, rig):
        machine, driver, _, _ = rig
        open_capture(driver)
        driver.remove()
        assert driver.state == "unbound"
        assert machine.ns_allocator.used_bytes == 0

    def test_suspend_resume(self, rig):
        _, driver, _, _ = rig
        driver.probe()
        driver.suspend()
        assert driver.state == "suspended"
        driver.resume()
        assert driver.state == "idle"

    def test_suspend_while_capturing_rejected(self, rig):
        _, driver, _, _ = rig
        open_capture(driver)
        with pytest.raises(DeviceStateError):
            driver.suspend()


class TestCapture:
    def test_read_chunk_length(self, rig):
        _, driver, _, _ = rig
        open_capture(driver, chunk=200)
        assert len(driver.read_chunk()) == 200

    def test_captured_signal_matches_source(self, rig):
        _, driver, mic, _ = rig
        expect = (np.arange(64) * 100 - 3200).astype(np.int16)
        mic.swap_source(BufferSource(expect))
        open_capture(driver, chunk=64)
        got = driver.read_chunk()
        assert np.array_equal(got, expect)

    def test_buffer_holds_last_chunk(self, rig):
        machine, driver, mic, _ = rig
        expect = (np.arange(32) + 1).astype(np.int16)
        mic.swap_source(BufferSource(expect))
        open_capture(driver, chunk=32)
        driver.read_chunk()
        from repro.tz.worlds import World

        raw = machine.memory.read(driver._buf_addr, 64, World.NORMAL)
        assert np.array_equal(np.frombuffer(raw, dtype="<i2"), expect)

    def test_chunk_larger_than_fifo_works(self, rig):
        """Capture interleaves FIFO fills and drains, so chunk > depth is fine."""
        _, driver, _, controller = rig
        open_capture(driver, chunk=controller.fifo_depth * 4)
        pcm = driver.read_chunk()
        assert len(pcm) == controller.fifo_depth * 4

    def test_pointer_tracks_frames(self, rig):
        _, driver, _, _ = rig
        open_capture(driver, chunk=64)
        driver.read_chunk()
        driver.read_chunk()
        assert driver.pcm_pointer() >= 128


class TestMixer:
    def test_volume_scales_samples(self, rig):
        _, driver, mic, _ = rig
        mic.swap_source(BufferSource(np.full(64, 1000, dtype=np.int16)))
        open_capture(driver, chunk=64)
        driver.set_volume(50)
        assert driver.read_chunk()[0] == 500

    def test_mute_zeroes(self, rig):
        _, driver, _, _ = rig
        open_capture(driver)
        driver.set_mute(True)
        assert not np.any(driver.read_chunk())

    def test_volume_range(self, rig):
        _, driver, _, _ = rig
        driver.probe()
        with pytest.raises(DriverError):
            driver.set_volume(201)
        with pytest.raises(DriverError):
            driver.set_volume(-1)

    def test_volume_boost_clips(self, rig):
        _, driver, mic, _ = rig
        mic.swap_source(BufferSource(np.full(64, 30000, dtype=np.int16)))
        open_capture(driver, chunk=64)
        driver.set_volume(200)
        assert driver.read_chunk().max() == 32767

    def test_mixer_enumerate(self, rig):
        _, driver, _, _ = rig
        driver.probe()
        assert "Capture Volume" in driver.mixer_enumerate()


class TestEncode:
    def test_pcm16(self, rig):
        _, driver, _, _ = rig
        open_capture(driver, chunk=32)
        pcm = driver.read_chunk()
        assert len(driver.encode_chunk(pcm, "pcm16")) == 64

    def test_mulaw(self, rig):
        _, driver, _, _ = rig
        open_capture(driver, chunk=32)
        pcm = driver.read_chunk()
        assert len(driver.encode_chunk(pcm, "mulaw")) == 32

    def test_unknown_codec(self, rig):
        _, driver, _, _ = rig
        open_capture(driver, chunk=32)
        with pytest.raises(DriverError):
            driver.encode_chunk(driver.read_chunk(), "opus")


class TestPlaybackAndDuplex:
    def test_playback_path(self, rig):
        _, driver, _, _ = rig
        driver.probe()
        driver.pcm_open_playback(64)
        n = driver.write_chunk(np.zeros(64, dtype=np.int16))
        assert n == 64
        driver.pcm_close_playback()
        assert driver.state == "idle"

    def test_duplex(self, rig):
        _, driver, _, _ = rig
        driver.probe()
        driver.duplex_start(64)
        assert driver.state == "duplex"
        driver.duplex_stop()
        assert driver.state == "idle"


class TestDebugAndIrq:
    def test_dump_registers(self, rig):
        _, driver, _, _ = rig
        open_capture(driver)
        dump = driver.dump_registers()
        assert {"ctrl", "status", "fifo_level"} <= set(dump)

    def test_selftest(self, rig):
        _, driver, _, _ = rig
        driver.probe()
        assert driver.selftest()

    def test_irq_spurious(self, rig):
        _, driver, _, _ = rig
        open_capture(driver)
        assert driver.irq_handler() == "spurious"


class TestCompiledOut:
    def test_stripped_function_raises(self, rig):
        machine, _, _, controller = rig
        region = machine.memory.region("i2s_mmio")
        driver = I2sDriver(
            KernelDriverHost(machine), controller, region,
            compiled_out=frozenset({"suspend", "_save_context"}),
        )
        driver.probe()
        with pytest.raises(DriverError, match="compiled out"):
            driver.suspend()

    def test_stripped_internal_function_raises(self, rig):
        machine, _, _, controller = rig
        region = machine.memory.region("i2s_mmio")
        driver = I2sDriver(
            KernelDriverHost(machine), controller, region,
            compiled_out=frozenset({"_pll_configure"}),
        )
        with pytest.raises(DriverError, match="compiled out"):
            driver.probe()  # probe -> clk_enable -> _pll_configure

    def test_loc_accounting(self, rig):
        machine, _, _, controller = rig
        region = machine.memory.region("i2s_mmio")
        full = I2sDriver.total_loc()
        driver = I2sDriver(
            KernelDriverHost(machine), controller, region,
            compiled_out=frozenset({"suspend"}),
        )
        assert driver.compiled_loc() == full - 58  # suspend's loc

    def test_functions_metadata(self):
        functions = I2sDriver.functions()
        assert len(functions) > 40
        assert functions["read_chunk"].entry_point
        assert not functions["_pll_configure"].entry_point
        subsystems = {f.subsystem for f in functions.values()}
        assert {"pcm", "clock", "power", "mixer", "tx", "debug"} <= subsystems
