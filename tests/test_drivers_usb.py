"""Unit tests: USB bus model + USB audio driver."""

import numpy as np
import pytest

from repro.drivers.hosting import KernelDriverHost
from repro.drivers.usb_audio_driver import UsbAudioDriver
from repro.errors import BusProtocolError, DeviceStateError, DriverError
from repro.peripherals.audio import BufferSource, ToneSource
from repro.peripherals.usb import (
    DESC_CONFIGURATION,
    DESC_DEVICE,
    GET_DESCRIPTOR,
    ISO_IN_ENDPOINT,
    SET_CONFIGURATION,
    SET_INTERFACE,
    SetupPacket,
    UsbAudioMicrophone,
    UsbBus,
)


@pytest.fixture
def usb_rig(machine):
    mic = UsbAudioMicrophone(ToneSource())
    bus = UsbBus(machine.clock, mic)
    driver = UsbAudioDriver(KernelDriverHost(machine), bus)
    return machine, bus, mic, driver


class TestUsbDevice:
    def test_device_descriptor_wire_format(self, usb_rig):
        _, bus, mic, _ = usb_rig
        raw = bus.control(
            SetupPacket(0x80, GET_DESCRIPTOR, DESC_DEVICE << 8, 0, 18)
        )
        assert len(raw) == 18
        assert raw[0] == 18 and raw[1] == DESC_DEVICE

    def test_config_descriptor_contains_topology(self, usb_rig):
        _, bus, _, _ = usb_rig
        raw = bus.control(
            SetupPacket(0x80, GET_DESCRIPTOR, DESC_CONFIGURATION << 8, 0, 255)
        )
        assert raw[1] == DESC_CONFIGURATION
        assert raw.count(b"\x09\x04"[1:]) >= 1  # interface descriptors present

    def test_streaming_requires_configuration(self, usb_rig):
        _, bus, _, _ = usb_rig
        with pytest.raises(BusProtocolError):
            bus.iso_in(ISO_IN_ENDPOINT, 16)

    def test_streaming_after_setup(self, usb_rig):
        _, bus, mic, _ = usb_rig
        bus.control(SetupPacket(0x00, SET_CONFIGURATION, 1, 0, 0))
        bus.control(SetupPacket(0x01, SET_INTERFACE, 1, 1, 0))
        samples = bus.iso_in(ISO_IN_ENDPOINT, 32)
        assert len(samples) == 32
        assert mic.frames_streamed == 32

    def test_bad_endpoint(self, usb_rig):
        _, bus, _, _ = usb_rig
        with pytest.raises(BusProtocolError):
            bus.iso_in(0x82, 8)

    def test_reset_clears_state(self, usb_rig):
        _, bus, mic, _ = usb_rig
        bus.control(SetupPacket(0x00, SET_CONFIGURATION, 1, 0, 0))
        bus.reset()
        assert not mic.configured
        assert mic.address == 0

    def test_unsupported_sample_rate_rejected(self, usb_rig):
        import struct

        from repro.peripherals.usb import UAC_SAMPLE_RATE_CONTROL, UAC_SET_CUR

        _, bus, _, _ = usb_rig
        with pytest.raises(BusProtocolError):
            bus.control(SetupPacket(
                0x21, UAC_SET_CUR, UAC_SAMPLE_RATE_CONTROL, 0x0200, 4,
                struct.pack("<I", 44_100),
            ))


class TestUsbDriver:
    def test_enumeration(self, usb_rig):
        _, _, mic, driver = usb_rig
        driver.probe()
        assert driver.state == "idle"
        assert driver.device_info["vendor_id"] == mic.VENDOR_ID
        assert len(driver.interfaces) == 3  # ctl, alt0, alt1
        assert len(driver.endpoints) == 1
        assert mic.configured

    def test_capture_round_trip(self, usb_rig):
        _, _, mic, driver = usb_rig
        expect = (np.arange(256) * 41 % 3000 - 1500).astype(np.int16)
        mic.source = BufferSource(expect)
        driver.probe()
        driver.pcm_open_capture(256)
        driver.trigger_start()
        pcm = driver.read_chunk()
        assert np.array_equal(pcm, expect)
        driver.trigger_stop()
        driver.pcm_close()
        assert driver.state == "idle"

    def test_device_side_volume(self, usb_rig):
        _, _, mic, driver = usb_rig
        mic.source = BufferSource(np.full(512, 1000, dtype=np.int16))
        driver.probe()
        driver.pcm_open_capture(64)
        driver.set_volume(50)
        driver.trigger_start()
        assert driver.read_chunk()[0] == 500

    def test_device_side_mute(self, usb_rig):
        _, _, _, driver = usb_rig
        driver.probe()
        driver.pcm_open_capture(64)
        driver.set_mute(True)
        driver.trigger_start()
        assert not np.any(driver.read_chunk())

    def test_stall_recovery_mid_capture(self, usb_rig):
        """An endpoint stall is recovered transparently (CLEAR_FEATURE)."""
        _, _, mic, driver = usb_rig
        driver.probe()
        driver.pcm_open_capture(128)
        driver.trigger_start()
        mic.stall_next = True
        pcm = driver.read_chunk()
        assert len(pcm) == 128  # full chunk despite the stall

    def test_state_machine_guards(self, usb_rig):
        _, _, _, driver = usb_rig
        with pytest.raises(DeviceStateError):
            driver.pcm_open_capture(64)
        driver.probe()
        with pytest.raises(DeviceStateError):
            driver.read_chunk()
        with pytest.raises(DriverError):
            driver.set_volume(101)

    def test_suspend_resume(self, usb_rig):
        _, _, _, driver = usb_rig
        driver.probe()
        driver.suspend()
        assert driver.state == "suspended"
        driver.resume()
        assert driver.state == "idle"

    def test_debug_surface(self, usb_rig):
        _, _, _, driver = usb_rig
        driver.probe()
        assert driver.lsusb_info()["vendor_id"]
        assert driver.dump_descriptors()["endpoints"]
        assert driver.selftest()

    def test_remove_releases_resources(self, usb_rig):
        machine, _, _, driver = usb_rig
        driver.probe()
        driver.pcm_open_capture(64)
        driver.remove()
        assert driver.state == "unbound"
        assert machine.ns_allocator.used_bytes == 0


class TestProtocolComplexityClaim:
    """Paper §III: I²S chosen over USB for being 'lightweight'."""

    def test_usb_driver_is_substantially_bigger(self):
        from repro.drivers.i2s_driver import I2sDriver

        assert UsbAudioDriver.total_loc() > 1.3 * I2sDriver.total_loc()

    def test_usb_minimal_capture_tcb_is_much_bigger(self, usb_rig):
        """The decisive comparison: the *minimized* capture TCB.

        I²S capture needs none of the driver's probe bulk beyond clocking;
        USB capture cannot shed enumeration — the paper's lightweight
        argument, quantified.
        """
        from repro.drivers.i2s_driver import I2sDriver
        from repro.tcb.analyze import TcbAnalyzer
        from repro.tcb.tasks import i2s_rig, trace_i2s, trace_usb_record

        _, _, _, driver = usb_rig
        session = trace_usb_record(driver)
        plan = TcbAnalyzer(UsbAudioDriver).analyze([session], task="record")
        i2s_session = trace_i2s(i2s_rig()[0])
        i2s_plan = TcbAnalyzer(I2sDriver).analyze([i2s_session], task="record")
        assert plan.report.loc_kept > 1.5 * i2s_plan.report.loc_kept

    def test_usb_capture_needs_more_control_traffic(self, usb_rig):
        """One chunk of USB audio costs dozens of control transfers during
        setup; I²S needs none (registers are memory-mapped)."""
        _, bus, _, driver = usb_rig
        driver.probe()
        driver.pcm_open_capture(128)
        driver.trigger_start()
        driver.read_chunk()
        assert bus.control_transfers >= 7
