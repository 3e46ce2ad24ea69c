"""System-level security properties: the paper's claims, asserted.

Each test pits an attack model from the threat model (compromised OS,
memory scanner, wire eavesdropper, curious cloud) against both pipeline
configurations and asserts the claimed asymmetry: the attack succeeds
against the baseline and fails against the secure design.
"""

import numpy as np
import pytest

from repro.cloud.auditor import LeakAuditor
from repro.core.baseline import BaselinePipeline
from repro.core.pipeline import SecurePipeline
from repro.core.platform import IotPlatform
from repro.kernel.attacks import (
    BufferSnoopAttack,
    MemoryScanner,
    WireEavesdropper,
)
from tests.test_core_pipeline import MIXED, make_workload


def run_with_snooping(pipeline, workload, machine):
    """Process a workload with a buffer snoop after every utterance."""
    snoop = BufferSnoopAttack(machine)
    captures, violations = [], [0]

    def attack(p):
        result = snoop.run(p.attack_targets())
        captures.extend(result.captured)
        violations[0] += result.violations

    run = pipeline.process(workload, after_each=attack)
    return run, captures, violations[0]


@pytest.fixture
def secure_attacked(provisioned):
    platform = IotPlatform.create(seed=51)
    pipeline = SecurePipeline(platform, provisioned.bundle)
    workload = make_workload(provisioned, MIXED)
    run, captures, violations = run_with_snooping(
        pipeline, workload, platform.machine
    )
    return platform, workload, run, captures, violations


@pytest.fixture
def baseline_attacked(provisioned):
    platform = IotPlatform.create(seed=51)
    pipeline = BaselinePipeline(platform, provisioned.bundle.asr, use_tls=True)
    workload = make_workload(provisioned, MIXED)
    run, captures, violations = run_with_snooping(
        pipeline, workload, platform.machine
    )
    return platform, workload, run, captures, violations


class TestBufferSnooping:
    def test_baseline_attacker_reads_audio(self, baseline_attacked, provisioned):
        platform, workload, _, captures, violations = baseline_attacked
        assert violations == 0
        assert captures
        auditor = LeakAuditor(
            workload.utterances, reference_asr=provisioned.bundle.asr
        )
        auditor.decode_device_captures(captures)
        report = auditor.report(platform.cloud.received_transcripts)
        assert report.device_leak_rate == 1.0

    def test_secure_attacker_faults(self, secure_attacked, provisioned):
        platform, workload, _, captures, violations = secure_attacked
        assert captures == []
        assert violations > 0
        auditor = LeakAuditor(
            workload.utterances, reference_asr=provisioned.bundle.asr
        )
        auditor.decode_device_captures(captures)
        report = auditor.report(platform.cloud.received_transcripts)
        assert report.device_leak_rate == 0.0

    def test_violations_logged_for_audit(self, secure_attacked):
        platform, _, _, _, _ = secure_attacked
        assert len(platform.machine.obs.tracer.spans_in("tz.fault")) > 0


class TestMemoryScanning:
    def test_scanner_finds_pcm_in_baseline(self, provisioned):
        platform = IotPlatform.create(seed=52)
        pipeline = BaselinePipeline(platform, provisioned.bundle.asr)
        workload = make_workload(provisioned, MIXED[:2])
        pipeline.process(workload)
        # Scan for a distinctive PCM fragment of the last utterance.
        needle = workload.items[-1].pcm[:16].astype("<i2").tobytes()
        scanner = MemoryScanner(platform.machine, charge_scan=False)
        result = scanner.scan(needle)
        assert result.succeeded

    def test_scanner_blind_in_secure_design(self, provisioned):
        platform = IotPlatform.create(seed=52)
        pipeline = SecurePipeline(platform, provisioned.bundle)
        workload = make_workload(provisioned, MIXED[:2])
        pipeline.process(workload)
        needle = workload.items[-1].pcm[:16].astype("<i2").tobytes()
        scanner = MemoryScanner(platform.machine, charge_scan=False)
        result = scanner.scan(needle)
        assert not result.succeeded
        assert result.violations > 0  # secure regions refused the probe

    def test_recon_shows_fewer_readable_regions_in_secure_design(
        self, provisioned
    ):
        platform = IotPlatform.create(seed=53)
        pipeline = SecurePipeline(platform, provisioned.bundle)
        workload = make_workload(provisioned, MIXED[:1])
        pipeline.process(workload)  # PTA INIT claims the I2S MMIO window
        scanner = MemoryScanner(platform.machine)
        readable = scanner.readable_regions()
        assert "dram_secure" not in readable
        assert "secure_heap" not in readable
        assert "i2s_mmio" not in readable
        assert "dram_ns" in readable


class TestWireAndCloud:
    def test_secure_wire_is_ciphertext(self, secure_attacked, provisioned):
        platform, workload, _, _, _ = secure_attacked
        eaves = WireEavesdropper(platform.supplicant.net)
        needles = [u.text.encode() for u in workload.utterances]
        assert eaves.plaintext_hits(needles) == 0

    def test_cloud_leakage_asymmetry(self, provisioned):
        """The headline claim: sensitive cloud leakage 100% -> 0%."""

        def leak_rate(pipeline_cls, **kwargs):
            platform = IotPlatform.create(seed=54)
            if pipeline_cls is SecurePipeline:
                pipeline = SecurePipeline(platform, provisioned.bundle)
            else:
                pipeline = BaselinePipeline(
                    platform, provisioned.bundle.asr, **kwargs
                )
            workload = make_workload(provisioned, MIXED)
            pipeline.process(workload)
            auditor = LeakAuditor(workload.utterances)
            return auditor.report(platform.cloud.received_transcripts)

        secure_report = leak_rate(SecurePipeline)
        baseline_report = leak_rate(BaselinePipeline, use_tls=True)
        assert baseline_report.cloud_leak_rate == 1.0
        assert secure_report.cloud_leak_rate == 0.0
        # And utility is preserved, not bought by blocking everything.
        assert secure_report.utility_rate == 1.0

    def test_model_at_rest_is_sealed(self, provisioned):
        """Persisted model weights are unreadable to the normal world."""
        platform = IotPlatform.create(seed=55)
        from repro.tz.worlds import World

        weights = provisioned.bundle.filter.classifier.serialize()[:256]
        platform.machine.cpu._set_world(World.SECURE)
        try:
            platform.tee.storage.put("classifier", weights)
        finally:
            platform.machine.cpu._set_world(World.NORMAL)
        stored = platform.supplicant.fs.files["tee/objects/classifier"]
        assert weights[:64] not in stored


class TestTcbReductionClaim:
    def test_record_task_needs_under_half_the_driver(self):
        """Paper: 'just part of a large driver code base could be used'."""
        from repro.drivers.i2s_driver import I2sDriver
        from repro.tcb.analyze import TcbAnalyzer
        from tests.test_tcb import build_rig, trace_record_task

        _, kernel, _, _ = build_rig()
        session = trace_record_task(kernel)
        plan = TcbAnalyzer(I2sDriver).analyze([session], task="record")
        assert plan.report.loc_kept < I2sDriver.total_loc() / 2
