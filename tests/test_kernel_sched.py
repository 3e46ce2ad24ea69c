"""Unit tests: kernel processes and the round-robin scheduler."""

import pytest

from repro.errors import KernelError
from repro.kernel.sched import Process, ProcessState, Scheduler, busy_loop
from repro.sim.clock import CycleDomain


class TestScheduler:
    def test_single_process_runs_to_completion(self, machine):
        sched = Scheduler(machine)
        p = sched.spawn("worker", busy_loop(250_000))
        sched.run()
        assert p.state is ProcessState.DONE
        assert p.cpu_cycles == 250_000

    def test_round_robin_interleaves(self, machine):
        sched = Scheduler(machine, time_slice_cycles=10_000)
        a = sched.spawn("a", busy_loop(50_000, chunk=50_000))
        b = sched.spawn("b", busy_loop(50_000, chunk=50_000))
        sched.run()
        # Both ran in multiple slices (preempted), not back to back.
        assert a.slices_run >= 5 and b.slices_run >= 5

    def test_context_switches_charged(self, machine):
        sched = Scheduler(machine)
        sched.spawn("a", busy_loop(100_000))
        before = machine.clock.cycles_in(CycleDomain.NORMAL_CPU)
        sched.run()
        elapsed = machine.clock.cycles_in(CycleDomain.NORMAL_CPU) - before
        # Work + at least one context switch worth of overhead.
        assert elapsed > 100_000
        assert sched.context_switches >= 1

    def test_crashing_process_contained(self, machine):
        def crasher(process):
            yield 10_000
            raise RuntimeError("segfault")

        sched = Scheduler(machine)
        bad = sched.spawn("bad", crasher)
        good = sched.spawn("good", busy_loop(30_000))
        sched.run()
        assert bad.state is ProcessState.FAULTED
        assert isinstance(bad.exception, RuntimeError)
        assert good.state is ProcessState.DONE

    def test_slice_budget_guard(self, machine):
        def forever(process):
            while True:
                yield 1_000

        sched = Scheduler(machine)
        sched.spawn("spinner", forever)
        with pytest.raises(KernelError, match="budget"):
            sched.run(max_slices=10)

    def test_bad_time_slice(self, machine):
        with pytest.raises(KernelError):
            Scheduler(machine, time_slice_cycles=0)

    def test_stats(self, machine):
        sched = Scheduler(machine)
        sched.spawn("a", busy_loop(10_000))
        sched.run()
        stats = sched.stats()
        assert stats["a"]["state"] == "done"
        assert stats["a"]["cpu_cycles"] == 10_000


class TestContention:
    def test_background_load_delays_foreground(self, machine):
        """The contention effect the scheduler exists to show: the same
        foreground work takes longer wall-clock with competitors."""

        def run_with_load(background_procs):
            from repro.tz.machine import TrustZoneMachine

            m = TrustZoneMachine()
            sched = Scheduler(m, time_slice_cycles=20_000)
            fg = sched.spawn("fg", busy_loop(200_000))
            for i in range(background_procs):
                sched.spawn(f"bg{i}", busy_loop(200_000))
            start = m.clock.now
            sched.run()
            return m.clock.now - start, fg

        alone, _ = run_with_load(0)
        contended, fg = run_with_load(3)
        assert contended > 2 * alone
        assert fg.state is ProcessState.DONE

    def test_capture_as_process_with_attacker_process(self, machine):
        """Baseline capture and a snooping attacker as peer processes."""
        import numpy as np

        from repro.drivers.i2s_driver import I2sDriver
        from repro.kernel.attacks import BufferSnoopAttack
        from repro.kernel.kernel import I2sCharDevice, Kernel
        from repro.peripherals.audio import ToneSource
        from repro.peripherals.i2s import I2sBus, I2sController
        from repro.peripherals.microphone import DigitalMicrophone
        from repro.tz.memory import MemoryRegion, SecurityAttr

        region = machine.memory.add_region(
            MemoryRegion("i2s_mmio", 0x0400_0000, 0x1000,
                         SecurityAttr.NONSECURE, device=True)
        )
        controller = I2sController(machine.clock, machine.obs.tracer)
        machine.memory.attach_mmio("i2s_mmio", controller)
        I2sBus(controller,
               DigitalMicrophone(ToneSource(), fmt=controller.format))
        kernel = Kernel(machine)
        driver = I2sDriver(kernel.driver_host, controller, region)
        kernel.register_device("/dev/snd/i2s0", I2sCharDevice(driver))

        captured = {}

        def assistant(process):
            fd = kernel.sys_open("/dev/snd/i2s0")
            kernel.sys_ioctl(fd, "OPEN_CAPTURE", 128)
            kernel.sys_ioctl(fd, "START")
            yield 10_000  # stream stays open across scheduling points
            captured["pcm"] = np.frombuffer(
                kernel.sys_read(fd, 256 * 2), dtype="<i2"
            )
            yield 10_000  # ... and the attacker gets a turn here
            kernel.sys_ioctl(fd, "STOP")
            kernel.sys_ioctl(fd, "CLOSE_PCM")
            kernel.sys_close(fd)

        def malware(process):
            snoop = BufferSnoopAttack(machine)
            stolen = 0
            for _ in range(6):  # keep polling while the assistant works
                if driver._buf_addr is not None:
                    result = snoop.run(
                        [(driver._buf_addr, driver._buf_bytes)]
                    )
                    stolen += result.bytes_captured
                yield 5_000
            captured["stolen"] = stolen

        sched = Scheduler(machine)
        sched.spawn("assistant", assistant)
        sched.spawn("malware", malware)
        sched.run()
        assert len(captured["pcm"]) == 256
        # Malware-as-a-process reads the kernel driver's buffer: the
        # baseline threat, now with a realistic delivery vector.
        assert captured["stolen"] > 0
