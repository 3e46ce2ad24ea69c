"""Pins: the TCB keep-set is the traced set plus ``always_keep``.

The literal keep sets below were recorded from the trace-and-strip runs
of T2's three I²S task profiles, the USB record task and the camera task.
The property test drops random records from the I²S sessions (the lost
ftrace entries of a ring-buffer overrun) and checks that the plan keeps
exactly the declared functions still present in the trace, plus
``always_keep``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.drivers.camera_driver import CameraDriver
from repro.drivers.i2s_driver import I2sDriver
from repro.drivers.usb_audio_driver import UsbAudioDriver
from repro.kernel.tracer import TraceSession
from repro.tcb.analyze import TcbAnalyzer
from repro.tcb.tasks import (
    I2S_ALWAYS_KEEP,
    I2S_PROFILES,
    i2s_rig,
    trace_i2s,
    traced_tasks,
)

I2S_RECORD_KEEP = [
    "_alloc_dma_buffer", "_apply_gain", "_clk_enable", "_drain_fifo_pio",
    "_fifo_window_read", "_handle_overrun", "_hw_params", "_mclk_set_parent",
    "_parse_device_tree", "_pinmux_apply", "_pll_configure",
    "_pm_runtime_get", "_reg_read", "_reg_write", "_regmap_init",
    "_release_dma_buffer", "clk_set_rate", "encode_chunk", "irq_handler",
    "pcm_close", "pcm_open_capture", "pcm_pointer", "probe", "read_chunk",
    "trigger_start", "trigger_stop",
]

PINNED_KEEP = {
    "record": I2S_RECORD_KEEP,
    "record+volume": sorted(I2S_RECORD_KEEP + ["set_volume"]),
    "record+volume+debug": sorted(
        I2S_RECORD_KEEP + ["set_volume", "dump_registers"]
    ),
}

USB_RECORD_KEEP = [
    "_alloc_urb_pool", "_bandwidth_check", "_bus_reset", "_class_request",
    "_complete_urb", "_free_urb_pool", "_handle_stall", "_iso_schedule",
    "_parse_audio_controls", "_parse_feature_unit", "_parse_interfaces",
    "_read_config_descriptor", "_read_device_descriptor", "_reap_urb",
    "_set_address", "_set_configuration", "_submit_urb", "_validate_config",
    "clear_halt", "pcm_close", "pcm_open_capture", "probe", "read_chunk",
    "set_sample_rate", "trigger_start", "trigger_stop",
]

CAMERA_KEEP = [
    "_apply_exposure", "_program_defaults", "_sensor_detect",
    "capture_frame", "capture_frames", "probe", "remove", "stream_off",
    "stream_on",
]


@pytest.fixture(scope="module")
def i2s_sessions() -> list[TraceSession]:
    """T2's three traced sessions."""
    return [trace_i2s(i2s_rig()[0], task) for task in I2S_PROFILES]


class TestPinnedKeepSets:
    def test_i2s_profiles(self, i2s_sessions):
        analyzer = TcbAnalyzer(I2sDriver)
        for task, session in zip(I2S_PROFILES, i2s_sessions):
            plan = analyzer.analyze([session], task=task,
                                    always_keep=I2S_ALWAYS_KEEP)
            assert sorted(plan.keep) == PINNED_KEEP[task], task

    def test_repro_tcb_tasks(self):
        """I²S record, USB record and camera, as ``repro tcb`` traces them."""
        pinned = {
            I2sDriver: PINNED_KEEP["record"],
            UsbAudioDriver: USB_RECORD_KEEP,
            CameraDriver: CAMERA_KEEP,
        }
        for driver, session, always_keep in traced_tasks():
            plan = TcbAnalyzer(driver).analyze(
                [session], task=session.task, always_keep=always_keep
            )
            assert sorted(plan.keep) == pinned[driver], driver.NAME


DECLARED = frozenset(I2sDriver.functions())


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_keep_is_traced_declared_plus_always_keep(i2s_sessions, data):
    sessions = []
    for session in i2s_sessions:
        kept = data.draw(st.lists(
            st.booleans(), min_size=len(session.records),
            max_size=len(session.records),
        ))
        sessions.append(TraceSession(
            task=session.task,
            records=[r for r, k in zip(session.records, kept) if k],
        ))
    always_keep = frozenset(data.draw(st.sets(st.sampled_from(sorted(DECLARED)))))
    plan = TcbAnalyzer(I2sDriver).analyze(
        sessions, task="subset", always_keep=always_keep
    )
    used = set().union(*(s.functions_used() for s in sessions))
    assert plan.keep == (DECLARED & used) | always_keep
    assert plan.compiled_out == DECLARED - plan.keep
