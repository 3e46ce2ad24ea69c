"""Observability must be passive: identical decisions with obs on or off.

The guarantee the instrumentation layer makes (see ``repro.obs``): opening
spans and recording metrics reads the clock/energy meter but never charges
cycles, never consumes RNG, and never alters control flow.  These tests
serialize every decision-relevant field — transcripts, sensitive flags,
forwarded payloads, relay statuses, and even the cycle/energy costs — and
require the bytes to be identical between an enabled and a disabled run.
"""

import json

from repro.core.pipeline import SecurePipeline
from repro.core.platform import IotPlatform
from repro.core.workload import UtteranceWorkload
from repro.ml.dataset import UtteranceGenerator
from repro.obs.health import FlightRecorder, HealthMonitor
from repro.sim.faults import FaultConfig
from repro.sim.rng import SimRng


def _decision_bytes(provisioned, disable_obs: bool,
                    continuous: bool = False, network_faults=None,
                    recorder=None, evaluate_health: bool = False) -> bytes:
    platform = IotPlatform.create(seed=177, network_faults=network_faults)
    if disable_obs:
        platform.machine.obs.disable()
    if recorder is not None:
        platform.machine.obs.attach_recorder(recorder)
    pipeline = SecurePipeline(platform, provisioned.bundle)
    corpus = UtteranceGenerator(SimRng(177, "obs-det")).generate(
        6, sensitive_fraction=0.5
    )
    workload = UtteranceWorkload.from_corpus(
        corpus, provisioned.bundle.vocoder
    )
    try:
        if continuous:
            run = pipeline.process_continuous(workload)
        else:
            run = pipeline.process(workload)
    finally:
        pipeline.close()
    if evaluate_health:
        HealthMonitor(platform.machine.obs.metrics,
                      recorder=recorder).evaluate()
    doc = {
        "results": [
            {
                "transcript": r.transcript,
                "sensitive": r.sensitive_predicted,
                "forwarded": r.forwarded,
                "payload": r.payload,
                "relay_status": r.relay_status,
                "relay_attempts": r.relay_attempts,
                "latency_cycles": r.latency_cycles,
                "energy_mj": r.energy_mj,
                "domains": {
                    d.value: c for d, c in sorted(r.domain_cycles.items(),
                                                  key=lambda kv: kv[0].value)
                },
            }
            for r in run.results
        ],
        "stage_cycles": run.stage_cycles,
        "relay_stats": run.relay_stats,
        "cloud": platform.cloud.received_transcripts,
        "final_cycle": platform.machine.clock.now,
    }
    return json.dumps(doc, sort_keys=True).encode()


class TestObsIsPassive:
    def test_batch_runs_byte_identical(self, provisioned):
        enabled = _decision_bytes(provisioned, disable_obs=False)
        disabled = _decision_bytes(provisioned, disable_obs=True)
        assert enabled == disabled

    def test_continuous_runs_byte_identical(self, provisioned):
        enabled = _decision_bytes(provisioned, disable_obs=False,
                                  continuous=True)
        disabled = _decision_bytes(provisioned, disable_obs=True,
                                   continuous=True)
        assert enabled == disabled

    def test_lossy_link_with_recorder_and_health_byte_identical(
        self, provisioned
    ):
        """A lossy link, a flight recorder attached on both sides, and
        health evaluated on the enabled side before the final state is
        read: decisions stay byte-identical."""
        faults = FaultConfig.send_failure(0.3)
        enabled = _decision_bytes(
            provisioned, disable_obs=False, network_faults=faults,
            recorder=FlightRecorder(capacity=32), evaluate_health=True,
        )
        disabled = _decision_bytes(
            provisioned, disable_obs=True, network_faults=faults,
            recorder=FlightRecorder(capacity=32),
        )
        assert enabled == disabled

    def test_disabled_run_retains_nothing(self, provisioned):
        platform = IotPlatform.create(seed=178)
        platform.machine.obs.disable()
        pipeline = SecurePipeline(platform, provisioned.bundle)
        corpus = UtteranceGenerator(SimRng(178, "obs-det")).generate(2)
        workload = UtteranceWorkload.from_corpus(
            corpus, provisioned.bundle.vocoder
        )
        try:
            run = pipeline.process(workload)
        finally:
            pipeline.close()
        assert platform.machine.obs.tracer.spans == []
        assert platform.machine.obs.metrics.counters() == {}
        # ...while the legacy stage accounting still works (spans measure
        # even when retention is off).
        assert run.stage_cycles["capture"] > 0
