"""T13 — the vectorized capture hot path.

Quantifies what the block-based capture refactor buys:

* wall-clock frames/sec of the vectorized I²S PIO path against the
  word-at-a-time scalar reference (same driver, same rig), with the
  streams asserted bit-identical;
* simulated CPU cycles per chunk for both paths (the recalibrated cost
  attribution: one window read per FIFO level instead of two register
  loads per word);
* world switches per guarded camera frame, per-frame vs block mode (the
  camera branch is where batching genuinely removes GP command round
  trips — audio ``CMD_READ`` is a same-world PTA call);
* the USB audio driver's block read path (the rationale for extending
  the dead-TCB cross-check to it).
"""

from __future__ import annotations

import time

import numpy as np

from benchmarks.conftest import write_result
from repro.drivers.hosting import KernelDriverHost
from repro.drivers.i2s_driver import I2sDriver
from repro.drivers.reference import read_chunk_scalar
from repro.drivers.usb_audio_driver import UsbAudioDriver
from repro.peripherals.audio import ToneSource
from repro.peripherals.i2s import I2sBus, I2sController
from repro.peripherals.microphone import DigitalMicrophone
from repro.peripherals.usb import UsbAudioMicrophone, UsbBus
from repro.sim.clock import CycleDomain
from repro.tz.machine import TrustZoneMachine
from repro.tz.memory import MemoryRegion, SecurityAttr

CHUNK = 512
CHUNKS = 40


def build_i2s_rig():
    machine = TrustZoneMachine()
    region = machine.memory.add_region(
        MemoryRegion("i2s_mmio", 0x0400_0000, 0x1000,
                     SecurityAttr.NONSECURE, device=True)
    )
    controller = I2sController(machine.clock, machine.obs.tracer)
    machine.memory.attach_mmio("i2s_mmio", controller)
    I2sBus(controller, DigitalMicrophone(ToneSource(), fmt=controller.format))
    driver = I2sDriver(KernelDriverHost(machine), controller, region)
    driver.probe()
    driver.pcm_open_capture(CHUNK)
    driver.trigger_start()
    return machine, driver


def _run_capture(read_fn, machine):
    """Capture CHUNKS chunks; return (pcm, wall seconds, cpu cycles)."""
    before_cpu = machine.clock.cycles_in(CycleDomain.NORMAL_CPU)
    t0 = time.perf_counter()
    chunks = [read_fn() for _ in range(CHUNKS)]
    elapsed = time.perf_counter() - t0
    cpu = machine.clock.cycles_in(CycleDomain.NORMAL_CPU) - before_cpu
    return np.concatenate(chunks), elapsed, cpu


def test_t13_hotpath(benchmark):
    # -- I2S: scalar reference vs vectorized, identical tone source ------
    machine_s, driver_s = build_i2s_rig()
    scalar_pcm, scalar_s, scalar_cpu = _run_capture(
        lambda: read_chunk_scalar(driver_s), machine_s
    )
    machine_v, driver_v = build_i2s_rig()
    vector_pcm, vector_s, vector_cpu = _run_capture(
        driver_v.read_chunk, machine_v
    )
    assert np.array_equal(scalar_pcm, vector_pcm), \
        "vectorized capture diverged from the scalar reference"

    frames = CHUNK * CHUNKS
    scalar_fps = frames / scalar_s
    vector_fps = frames / vector_s
    speedup = vector_fps / scalar_fps

    # -- camera: world switches per frame, per-frame vs block ------------
    from repro.core.camera_pipeline import (
        SecureCameraPipeline, train_person_detector,
    )
    from repro.core.platform import IotPlatform

    n_frames = 16
    detector = train_person_detector(frames_per_class=40, epochs=6)

    platform_f = IotPlatform.create(seed=11)
    pipe_f = SecureCameraPipeline(platform_f, detector)
    before = platform_f.machine.cpu.switch_count
    per_frame_run = pipe_f.run(n_frames)
    switches_per_frame = (
        (platform_f.machine.cpu.switch_count - before) / n_frames
    )
    pipe_f.close()

    platform_b = IotPlatform.create(seed=11)
    pipe_b = SecureCameraPipeline(platform_b, detector)
    before = platform_b.machine.cpu.switch_count
    block_run = pipe_b.run_block(n_frames, block=8)
    switches_per_frame_block = (
        (platform_b.machine.cpu.switch_count - before) / n_frames
    )
    pipe_b.close()

    # Same platform seed, same detector: the block path must reach the
    # same verdicts while crossing worlds far less often.
    assert [f.released for f in block_run.frames] == \
        [f.released for f in per_frame_run.frames]
    assert switches_per_frame_block < switches_per_frame / 2

    # -- USB: the block read path the dead-TCB cross-check now covers ----
    usb_machine = TrustZoneMachine()
    usb_bus = UsbBus(usb_machine.clock, UsbAudioMicrophone(ToneSource()))
    usb_driver = UsbAudioDriver(KernelDriverHost(usb_machine), usb_bus)
    usb_driver.probe()
    usb_driver.pcm_open_capture(CHUNK)
    usb_driver.trigger_start()
    t0 = time.perf_counter()
    usb_frames = sum(len(usb_driver.read_chunk()) for _ in range(8))
    usb_fps = usb_frames / (time.perf_counter() - t0)
    usb_stats = usb_driver.capture_stats()

    rows = [
        f"{'metric':38s} {'scalar':>12s} {'vectorized':>12s}",
        f"{'I2S capture frames/sec (wall)':38s} {scalar_fps:>12.0f} "
        f"{vector_fps:>12.0f}",
        f"{'I2S CPU cycles per chunk (sim)':38s} "
        f"{scalar_cpu // CHUNKS:>12d} {vector_cpu // CHUNKS:>12d}",
        f"{'capture speedup (wall)':38s} {'1.00x':>12s} {speedup:>11.2f}x",
        f"{'camera world switches / frame':38s} {switches_per_frame:>12.1f} "
        f"{switches_per_frame_block:>12.1f}",
        f"{'USB frames/sec (wall, block path)':38s} {'-':>12s} "
        f"{usb_fps:>12.0f}",
        f"{'USB short reads':38s} {'-':>12s} "
        f"{usb_stats['short_reads']:>12d}",
    ]
    write_result("t13_hotpath", "\n".join(rows))
    benchmark.extra_info["capture_speedup"] = speedup
    benchmark.extra_info["vector_frames_per_sec"] = vector_fps
    benchmark.extra_info["camera_switches_per_frame_block"] = (
        switches_per_frame_block
    )
    benchmark.pedantic(driver_v.read_chunk, rounds=1, iterations=1)

    # The refactor's acceptance bar: >=3x frames/sec on the capture path,
    # cheaper simulated CPU per chunk, full-period USB reads.  The
    # frames/sec floor sits far below local runs (1.0M–1.7M on a 2-vCPU
    # x86 host, Python 3.11) so shared CI runners cannot flake it; the
    # speedup ratio is the load-bearing bound.
    assert speedup >= 3.0, f"capture speedup {speedup:.2f}x < 3x"
    assert vector_fps >= 50_000, \
        f"vectorized capture {vector_fps:.0f} frames/sec < 50000"
    assert switches_per_frame_block <= 0.5, \
        f"{switches_per_frame_block:.2f} camera world switches/frame > 0.5"
    # Both paths' simulated rows are exact: a path that double-charges
    # or leaves cycles pending on its host moves them.
    assert scalar_cpu // CHUNKS == 223_570, scalar_cpu // CHUNKS
    assert vector_cpu // CHUNKS == 12_040, vector_cpu // CHUNKS
    assert usb_frames == CHUNK * 8
