"""T8: protocol complexity — I²S vs USB for the secure-capture TCB.

The paper's §III design decision, quantified: "We chose the I²S protocol
for our preliminary use case because it is lightweight, contrary to more
complex protocols like USB."  Both drivers run the identical task (record
a chunk of audio) under the tracer; the table compares full and minimized
driver sizes, the trace-based reduction, and the control-plane traffic
the protocols force.
"""

from benchmarks.conftest import write_result
from repro.drivers.i2s_driver import I2sDriver
from repro.drivers.usb_audio_driver import UsbAudioDriver
from repro.tcb.analyze import TcbAnalyzer
from repro.tcb.tasks import i2s_rig, trace_i2s, trace_usb_record, usb_rig


def test_t8_protocol_complexity(benchmark):
    i2s_session = trace_i2s(i2s_rig()[0])
    i2s_plan = TcbAnalyzer(I2sDriver).analyze([i2s_session], task="record")

    usb_bus, usb_driver = usb_rig()
    usb_session = trace_usb_record(usb_driver)
    usb_plan = TcbAnalyzer(UsbAudioDriver).analyze([usb_session], task="record")

    i2s, usb = i2s_plan.report, usb_plan.report
    rows = [
        f"{'metric':34s} {'I2S':>8s} {'USB':>8s} {'USB/I2S':>8s}",
        f"{'full driver functions':34s} {i2s.functions_total:>8d} "
        f"{usb.functions_total:>8d} "
        f"{usb.functions_total / i2s.functions_total:>7.2f}x",
        f"{'full driver LoC':34s} {i2s.loc_total:>8d} {usb.loc_total:>8d} "
        f"{usb.loc_total / i2s.loc_total:>7.2f}x",
        f"{'minimized (record) functions':34s} {i2s.functions_kept:>8d} "
        f"{usb.functions_kept:>8d} "
        f"{usb.functions_kept / i2s.functions_kept:>7.2f}x",
        f"{'minimized (record) LoC':34s} {i2s.loc_kept:>8d} "
        f"{usb.loc_kept:>8d} {usb.loc_kept / i2s.loc_kept:>7.2f}x",
        f"{'LoC reduction by tracing':34s} "
        f"{i2s.loc_reduction_pct:>7.1f}% {usb.loc_reduction_pct:>7.1f}%",
        f"{'control transfers for the task':34s} {'0':>8s} "
        f"{usb_bus.control_transfers:>8d}",
    ]
    write_result("t8_protocols", "\n".join(rows))
    benchmark.extra_info["minimized_loc_ratio"] = usb.loc_kept / i2s.loc_kept
    benchmark(lambda: None)

    # The paper's claim, as shapes: the *ported* USB TCB would be much
    # larger, both absolutely and after minimization.
    assert usb.loc_total > 1.3 * i2s.loc_total
    assert usb.loc_kept > 1.5 * i2s.loc_kept
    # And USB cannot shed its enumeration: its reduction is weaker.
    assert usb.loc_reduction_pct < i2s.loc_reduction_pct
    assert usb_bus.control_transfers >= 7
