"""Integration tests: the secure pipeline (Fig. 1) end to end."""

import numpy as np
import pytest

from repro.core.pipeline import SecurePipeline
from repro.core.platform import IotPlatform
from repro.core.ta_filter import CMD_HEARTBEAT
from repro.core.workload import UtteranceWorkload
from repro.ml.dataset import Corpus, SensitiveCategory, Utterance
from repro.sim.clock import CycleDomain


def make_workload(provisioned, texts_and_categories):
    corpus = Corpus(
        [Utterance(text=t, category=c) for t, c in texts_and_categories]
    )
    return UtteranceWorkload.from_corpus(corpus, provisioned.bundle.vocoder)


MIXED = [
    ("what is the weather like today", SensitiveCategory.WEATHER),
    ("the password for the email is four two seven one",
     SensitiveCategory.CREDENTIALS),
    ("set a timer for ten minutes", SensitiveCategory.TIMER),
    ("my diabetes has been getting worse lately", SensitiveCategory.HEALTH),
]


@pytest.fixture
def secure_run(provisioned):
    platform = IotPlatform.create(seed=31)
    pipeline = SecurePipeline(platform, provisioned.bundle)
    workload = make_workload(provisioned, MIXED)
    run = pipeline.process(workload)
    return platform, pipeline, workload, run


class TestDataPath:
    def test_all_utterances_processed(self, secure_run):
        _, _, workload, run = secure_run
        assert len(run) == len(workload)

    def test_transcripts_recovered(self, secure_run):
        _, _, _, run = secure_run
        for result in run.results:
            assert result.transcript == result.utterance.text

    def test_sensitive_filtered_benign_forwarded(self, secure_run):
        platform, _, _, run = secure_run
        for result in run.results:
            if result.utterance.sensitive:
                assert not result.forwarded
            else:
                assert result.forwarded
        received = platform.cloud.received_transcripts
        assert "what is the weather like today" in received
        assert all("password" not in t for t in received)

    def test_stage_cycles_reported(self, secure_run):
        _, _, _, run = secure_run
        for stage in ("capture", "asr", "classify", "relay"):
            assert run.stage_cycles.get(stage, 0) > 0
        # Capture (real-time audio) dominates end-to-end latency.
        assert run.stage_cycles["capture"] > run.stage_cycles["classify"]

    def test_latency_positive_and_attributed(self, secure_run):
        _, _, _, run = secure_run
        for result in run.results:
            assert result.latency_cycles > 0
            assert result.energy_mj > 0
            assert CycleDomain.SECURE_CPU in result.domain_cycles
            assert CycleDomain.MONITOR in result.domain_cycles

    def test_driver_runs_in_secure_world(self, secure_run):
        platform, pipeline, _, _ = secure_run
        assert pipeline.pta.driver is not None
        from repro.tz.worlds import World

        assert pipeline.pta.driver.host.world is World.SECURE

    def test_controller_mmio_secured(self, secure_run):
        platform, _, _, _ = secure_run
        from repro.errors import SecureAccessViolation
        from repro.tz.worlds import World

        with pytest.raises(SecureAccessViolation):
            platform.machine.memory.read(
                platform.i2s_region.base, 4, World.NORMAL
            )

    def test_world_switches_happened(self, secure_run):
        platform, _, workload, _ = secure_run
        # At least 2 switches per utterance (one SMC round trip each),
        # plus relay RPCs.
        assert platform.machine.cpu.switch_count >= 2 * len(workload)

    def test_classifier_accuracy_on_path(self, secure_run):
        _, _, _, run = secure_run
        assert run.classifier_accuracy() == 1.0


class TestTaInterface:
    def test_heartbeat(self, provisioned):
        platform = IotPlatform.create(seed=32)
        pipeline = SecurePipeline(platform, provisioned.bundle)
        workload = make_workload(provisioned, MIXED[:1])
        pipeline.process(workload)
        directive = pipeline.session.invoke(CMD_HEARTBEAT)
        assert directive["directive"] == "Ack"

    def test_model_lands_in_secure_heap(self, provisioned):
        platform = IotPlatform.create(seed=33)
        pipeline = SecurePipeline(platform, provisioned.bundle)
        workload = make_workload(provisioned, MIXED[:1])
        pipeline.process(workload)
        assert platform.tee.heap.used_bytes >= (
            provisioned.bundle.model_size_bytes
        )

    def test_model_too_big_for_heap_fails_loudly(self, provisioned):
        """Paper Section V: the TEE memory budget is a hard constraint."""
        from repro.errors import TeeOutOfMemory
        from repro.tz.machine import MachineConfig

        config = MachineConfig(secure_heap_bytes=64 * 1024)  # tiny heap
        platform = IotPlatform.create(machine_config=config)
        with pytest.raises(TeeOutOfMemory):
            SecurePipeline(platform, provisioned.bundle)

    def test_close_releases_session(self, provisioned):
        platform = IotPlatform.create(seed=34)
        pipeline = SecurePipeline(platform, provisioned.bundle)
        pipeline.process(make_workload(provisioned, MIXED[:1]))
        pipeline.close()
        assert pipeline.session.closed

    def test_close_stops_secure_capture(self, provisioned):
        """TA teardown must wind the PTA capture chain all the way down
        (STOP + CLOSE), not leave the secure driver capturing forever."""
        platform = IotPlatform.create(seed=36)
        pipeline = SecurePipeline(platform, provisioned.bundle)
        pipeline.process(make_workload(provisioned, MIXED[:1]))
        driver = pipeline.pta.driver
        assert driver.state == "capturing"  # armed between utterances
        pipeline.close()
        assert driver.state == "idle"


class TestMinimizedDriverDeployment:
    def test_pipeline_works_with_minimized_driver(self, provisioned):
        """Trace the task baseline-side, strip, deploy secure-side."""
        from repro.drivers.i2s_driver import I2sDriver
        from repro.tcb.analyze import TcbAnalyzer
        from repro.tcb.tasks import I2S_ALWAYS_KEEP, i2s_rig, trace_i2s

        session = trace_i2s(i2s_rig()[0])
        plan = TcbAnalyzer(I2sDriver).analyze(
            [session], task="record", always_keep=I2S_ALWAYS_KEEP,
        )

        platform = IotPlatform.create(seed=35)
        pipeline = SecurePipeline(
            platform, provisioned.bundle,
            driver_compiled_out=plan.compiled_out,
        )
        workload = make_workload(provisioned, MIXED)
        run = pipeline.process(workload)
        assert len(run) == len(MIXED)
        for result in run.results:
            assert result.transcript == result.utterance.text
        # The deployed TCB is genuinely smaller.
        assert pipeline.tcb_loc() < I2sDriver.total_loc()
