"""Chaos engineering: secure-world faults, supervision, fail-closed.

Covers the recovery contract layer by layer:

* :class:`SecureFaultConfig` / :class:`SecureFaultInjector` — validated
  rates, per-kind RNG streams, and draw-for-draw determinism;
* determinism under chaos — a (seed, config) pair replays the identical
  fault sequence, restart count and decision stream, and an all-zero
  config is byte-identical to a run with no injector at all;
* recovery — a scripted mid-run panic restarts the TA, restores from
  sealed checkpoints, and preserves every committed decision exactly
  once (the cloud sees no duplicates and loses nothing);
* fail-closed — when the TA stays dead past every budget, utterances
  degrade to suppressed-as-sensitive and nothing new reaches the wire;
* the gated ``recovery_time`` SLO and health-alert routing through the
  TA's relay (delivered, or sealed in the store-and-forward queue).
"""

import json

import pytest

from repro.core.pipeline import SecurePipeline
from repro.core.platform import IotPlatform
from repro.core.ta_filter import CMD_PROCESS, RELAY_QUEUED, RELAY_SENT
from repro.errors import TeeTargetDead
from repro.ml.dataset import UtteranceGenerator
from repro.core.workload import UtteranceWorkload
from repro.obs.health import HealthMonitor, SloRule, default_slo_rules
from repro.obs.metrics import MetricsRegistry
from repro.optee.params import Params, Value
from repro.optee.supervise import SupervisorPolicy
from repro.relay.alerts import build_alert_doc, route_health_alert
from repro.sim.faults import (
    SECURE_FAULT_KINDS,
    FaultConfig,
    SecureFaultConfig,
    SecureFaultInjector,
)
from repro.sim.rng import SimRng

CHAOS_SEED = 1007  # same pair as benchmarks/bench_t12_chaos.py: the


# chaos profile injects a TA panic *and* a storage corruption on the
# restart's checkpoint restore, so one run exercises the whole path.


def _workload(bundle, n=6, seed=311, sensitive_fraction=0.5):
    corpus = UtteranceGenerator(SimRng(seed, "chaos-test")).generate(
        n, sensitive_fraction=sensitive_fraction
    )
    return UtteranceWorkload.from_corpus(corpus, bundle.vocoder)


def _run(provisioned, *, seed=311, n=6, secure_faults=None, supervise=False,
         network_faults=None):
    platform = IotPlatform.create(
        seed=seed, secure_faults=secure_faults, network_faults=network_faults,
    )
    pipeline = SecurePipeline(
        platform, provisioned.bundle,
        supervisor=SupervisorPolicy() if supervise else None,
    )
    try:
        run = pipeline.process(_workload(provisioned.bundle, n=n, seed=seed))
    finally:
        pipeline.close()
    return platform, pipeline, run


def _decision_bytes(platform, run) -> bytes:
    """Every decision-relevant field, serialized for byte comparison."""
    doc = {
        "results": [
            {
                "transcript": r.transcript,
                "sensitive": r.sensitive_predicted,
                "forwarded": r.forwarded,
                "payload": r.payload,
                "relay_status": r.relay_status,
                "relay_attempts": r.relay_attempts,
                "degraded": r.degraded,
                "latency_cycles": r.latency_cycles,
                "energy_mj": r.energy_mj,
            }
            for r in run.results
        ],
        "cloud": platform.cloud.received_transcripts,
        "final_cycle": platform.machine.clock.now,
    }
    return json.dumps(doc, sort_keys=True).encode()


class ScriptedInjector:
    """Test double: fires a fault kind at exact draw indices.

    Presents the same ``fires``/``corrupt``/``counts``/``draws`` surface
    as :class:`SecureFaultInjector` but is fully scripted, so a test can
    panic the TA at precisely one hook crossing with no seed hunting.
    """

    def __init__(self, script=None, always=None):
        self.script = {k: set(v) for k, v in (script or {}).items()}
        self.always = set(always or ())
        self.draws = {k: 0 for k in SECURE_FAULT_KINDS}
        self.counts = {k: 0 for k in SECURE_FAULT_KINDS}

    def fires(self, kind):
        idx = self.draws[kind]
        self.draws[kind] += 1
        hit = kind in self.always or idx in self.script.get(kind, ())
        if hit:
            self.counts[kind] += 1
        return hit

    def corrupt(self, payload):
        if not payload:
            return payload
        out = bytearray(payload)
        out[0] ^= 0xFF
        return bytes(out)

    def summary(self):
        return {"counts": dict(self.counts), "draws": dict(self.draws)}


class TestSecureFaultConfig:
    def test_zero_config_is_disabled(self):
        assert not SecureFaultConfig().enabled

    def test_any_rate_enables(self):
        assert SecureFaultConfig(dma_rate=0.01).enabled

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            SecureFaultConfig(ta_panic_rate=1.5)
        with pytest.raises(ValueError):
            SecureFaultConfig(storage_rate=-0.1)

    def test_chaos_profile_scales_with_intensity(self):
        full, half = SecureFaultConfig.chaos(), SecureFaultConfig.chaos(0.5)
        for kind in SECURE_FAULT_KINDS:
            assert getattr(half, f"{kind}_rate") == pytest.approx(
                getattr(full, f"{kind}_rate") / 2
            )
        assert not SecureFaultConfig.chaos(0.0).enabled

    def test_chaos_intensity_validated(self):
        with pytest.raises(ValueError):
            SecureFaultConfig.chaos(intensity=2.0)


class TestSecureFaultInjector:
    def _sequence(self, seed, config, kind="ta_panic", n=200):
        inj = SecureFaultInjector(config, SimRng(seed, "t"))
        return [inj.fires(kind) for _ in range(n)]

    def test_same_seed_same_fault_sequence(self):
        config = SecureFaultConfig.chaos()
        assert self._sequence(7, config) == self._sequence(7, config)
        assert True in self._sequence(7, config, n=500)

    def test_different_seed_different_stream(self):
        config = SecureFaultConfig(ta_panic_rate=0.5)
        assert self._sequence(1, config, n=64) != self._sequence(2, config, n=64)

    def test_zero_rate_kinds_never_draw(self):
        inj = SecureFaultInjector(
            SecureFaultConfig(ta_panic_rate=0.5), SimRng(9, "t")
        )
        for kind in SECURE_FAULT_KINDS:
            for _ in range(10):
                inj.fires(kind)
        assert inj.draws["ta_panic"] == 10
        for kind in SECURE_FAULT_KINDS:
            if kind != "ta_panic":
                assert inj.draws[kind] == 0, kind

    def test_kind_streams_are_independent(self):
        # Interleaving storage draws must not shift which invoke panics.
        config = SecureFaultConfig(ta_panic_rate=0.3, storage_rate=0.3)
        plain = SecureFaultInjector(config, SimRng(11, "t"))
        mixed = SecureFaultInjector(config, SimRng(11, "t"))
        a = [plain.fires("ta_panic") for _ in range(100)]
        b = []
        for _ in range(100):
            mixed.fires("storage")
            b.append(mixed.fires("ta_panic"))
        assert a == b

    def test_corrupt_flips_exactly_one_byte(self):
        inj = SecureFaultInjector(
            SecureFaultConfig(storage_rate=1.0), SimRng(3, "t")
        )
        blob = bytes(range(64))
        out = inj.corrupt(blob)
        diffs = [i for i in range(64) if out[i] != blob[i]]
        assert len(diffs) == 1
        assert out[diffs[0]] == blob[diffs[0]] ^ 0xFF
        assert inj.corrupt(b"") == b""


class TestChaosDeterminism:
    def test_chaos_run_is_reproducible(self, provisioned):
        """Same (seed, config): identical faults, restarts and decisions."""
        runs = [
            _run(provisioned, seed=CHAOS_SEED, n=10,
                 secure_faults=SecureFaultConfig.chaos(), supervise=True)
            for _ in range(2)
        ]
        (pa, la, ra), (pb, lb, rb) = runs
        assert pa.machine.secure_faults.summary() == \
            pb.machine.secure_faults.summary()
        assert sum(pa.machine.secure_faults.counts.values()) > 0
        assert la.supervisor.summary() == lb.supervisor.summary()
        assert la.supervisor.restarts >= 1
        assert _decision_bytes(pa, ra) == _decision_bytes(pb, rb)

    def test_all_zero_config_installs_no_injector(self, provisioned):
        platform, _, _ = _run(
            provisioned, n=2, secure_faults=SecureFaultConfig()
        )
        assert platform.machine.secure_faults is None

    def test_all_zero_config_is_byte_identical_to_off(self, provisioned):
        """Rates all 0 == chaos absent: the injector must cost nothing."""
        off = _run(provisioned, n=4, secure_faults=None)
        zero = _run(provisioned, n=4, secure_faults=SecureFaultConfig())
        assert _decision_bytes(off[0], off[2]) == \
            _decision_bytes(zero[0], zero[2])

    def test_supervised_clean_run_preserves_decisions(self, provisioned):
        """Supervision changes costs (checkpoints), never decisions."""
        _, _, plain = _run(provisioned, n=4)
        platform, pipeline, sup = _run(provisioned, n=4, supervise=True)
        assert pipeline.supervisor.restarts == 0
        assert sup.degraded_count() == 0
        for got, want in zip(sup.results, plain.results):
            assert got.transcript == want.transcript
            assert got.sensitive_predicted == want.sensitive_predicted
            assert got.forwarded == want.forwarded
            assert got.payload == want.payload
        counters = platform.machine.obs.metrics.counters()
        assert counters["tee.checkpoints"] == 4


class TestRecovery:
    def _supervised(self, provisioned, seed=311):
        platform = IotPlatform.create(seed=seed)
        pipeline = SecurePipeline(
            platform, provisioned.bundle, supervisor=SupervisorPolicy()
        )
        return platform, pipeline

    def test_scripted_panic_recovers_and_preserves_decisions(
        self, provisioned
    ):
        """One panic mid-run: restart, restore, same decisions, no dupes."""
        clean_platform, _, clean = _run(provisioned, n=6)
        clean_cloud = list(clean_platform.cloud.received_transcripts)

        platform, pipeline = self._supervised(provisioned)
        # Installed after boot so draw 0 is the first utterance's invoke
        # hook: the panic lands exactly on utterance 3's CMD_PROCESS.
        platform.machine.secure_faults = ScriptedInjector(
            script={"ta_panic": {2}}
        )
        try:
            run = pipeline.process(_workload(provisioned.bundle, n=6))
        finally:
            pipeline.close()

        assert pipeline.supervisor.restarts == 1
        assert pipeline.supervisor.panics_seen == 1
        assert run.degraded_count() == 0
        for got, want in zip(run.results, clean.results):
            assert got.transcript == want.transcript
            assert got.sensitive_predicted == want.sensitive_predicted
            assert got.forwarded == want.forwarded
            assert got.payload == want.payload
        # Exactly-once: the restarted TA neither replayed a committed
        # forward (no duplicates) nor dropped one (no gaps).
        assert platform.cloud.received_transcripts == clean_cloud
        # CMD_STATS stays cumulative across the restart: the fresh relay
        # module's window must not shadow the restored lifetime counts.
        assert run.relay_stats["sent"] == run.sent_count()
        counters = platform.machine.obs.metrics.counters()
        assert counters["tee.panics"] == 1
        assert counters["tee.restarts"] == 1
        assert counters["tee.reaped"] == 1
        events = platform.machine.obs.tracer.spans_in("optee.ta")
        names = {e.name for e in events}
        assert "checkpoint_restored" in names

    @pytest.mark.parametrize("script, seqs", [
        # Before utterance 3's CMD_PROCESS runs: no capture in the dead TA.
        ({"ta_panic": {2}}, [1, 2, 3, 4, 5, 6]),
        # Mid-capture of utterance 3 (PTA draws 0-4 bring capture up for
        # utterance 1, then one READ each): the retry keeps its id.
        ({"pta": {6}}, [1, 2, 3, 3, 4, 5, 6]),
    ], ids=["before-invoke", "mid-capture"])
    def test_trace_ids_stay_consecutive_across_restarts(
        self, provisioned, script, seqs
    ):
        """The restarted TA restores the utterance counter from the sealed
        checkpoint, so every utterance keeps one id of its own."""
        platform, pipeline = self._supervised(provisioned)
        platform.machine.secure_faults = ScriptedInjector(script=script)
        try:
            pipeline.process(_workload(provisioned.bundle, n=6))
        finally:
            pipeline.close()
        assert pipeline.supervisor.restarts == 1
        captures = [
            sp.trace_id
            for sp in platform.machine.obs.tracer.spans_in("stage.secure")
            if sp.name == "capture"
        ]
        assert captures == [f"device/u{i:05d}" for i in seqs]

    def test_full_chaos_profile_tolerates_corrupt_checkpoint(
        self, provisioned
    ):
        """The T12 pair: restore survives a corrupted generation."""
        platform, pipeline, run = _run(
            provisioned, seed=CHAOS_SEED, n=10,
            secure_faults=SecureFaultConfig.chaos(), supervise=True,
        )
        assert pipeline.supervisor.restarts >= 1
        assert run.lost_count() == 0
        events = platform.machine.obs.tracer.spans_in("optee.ta")
        names = [e.name for e in events]
        assert "checkpoint_invalid" in names   # generation a: corrupted read
        assert "checkpoint_restored" in names  # ...generation b still good
        # Every utterance keeps one id across the restart.
        captures = [
            sp.trace_id
            for sp in platform.machine.obs.tracer.spans_in("stage.secure")
            if sp.name == "capture"
        ]
        assert captures == sorted(captures)
        assert sorted(set(captures)) == [
            f"device/u{i:05d}" for i in range(1, 11)
        ]

    def test_replay_guard_returns_committed_record(self, provisioned):
        """Re-invoking the checkpointed seq must not re-decide or re-send."""
        platform, pipeline = self._supervised(provisioned)
        try:
            run = pipeline.process(_workload(provisioned.bundle, n=3))
            sent_before = list(platform.cloud.received_transcripts)
            record = pipeline.session.invoke(
                CMD_PROCESS, Params.of(Value(a=1, b=pipeline._seq))
            )
        finally:
            pipeline.close()
        last = run.results[-1]
        assert record["transcript"] == last.transcript
        assert record["forwarded"] == last.forwarded
        assert record["payload"] == last.payload
        assert platform.cloud.received_transcripts == sent_before
        counters = platform.machine.obs.metrics.counters()
        assert counters["tee.replays_suppressed"] == 1


class TestFailClosed:
    def test_permanent_death_degrades_and_leaks_nothing(self, provisioned):
        """TA dead past every budget: suppress, mark degraded, ship nothing."""
        platform = IotPlatform.create(seed=311)
        pipeline = SecurePipeline(
            platform, provisioned.bundle, supervisor=SupervisorPolicy()
        )
        workload = _workload(provisioned.bundle, n=6)
        healthy = UtteranceWorkload(items=list(workload)[:3])
        doomed = UtteranceWorkload(items=list(workload)[3:])
        try:
            before = pipeline.process(healthy)
            wire_before = len(platform.supplicant.net.wire_log)
            cloud_before = list(platform.cloud.received_transcripts)
            platform.machine.secure_faults = ScriptedInjector(
                always={"ta_panic"}
            )
            after = pipeline.process(doomed)
        finally:
            pipeline.close()  # must not raise on a dead TA

        assert before.degraded_count() == 0
        assert after.degraded_count() == 3
        for r in after.results:
            assert r.degraded and r.sensitive_predicted
            assert not r.forwarded
            assert r.payload is None
            assert r.relay_status == "suppressed"
        # Fail-closed means fail-*silent* to the outside world: nothing
        # new on the wire (eavesdropper's vantage), nothing at the cloud,
        # and no raw transcript bytes anywhere in the captured traffic.
        assert len(platform.supplicant.net.wire_log) == wire_before
        assert platform.cloud.received_transcripts == cloud_before
        joined = b"".join(platform.supplicant.net.wire_log)
        for item in doomed:
            assert item.utterance.text.encode() not in joined
        # Stats collection degrades instead of raising.
        assert after.stage_cycles == {}
        counters = platform.machine.obs.metrics.counters()
        assert counters["tee.degraded_utterances"] == 3
        assert pipeline.supervisor.degraded_invokes >= 3

    def test_reap_panicked_releases_heap(self, provisioned):
        platform = IotPlatform.create(seed=311)
        pipeline = SecurePipeline(platform, provisioned.bundle)
        item = list(_workload(provisioned.bundle, n=1))[0]
        pipeline.process_item(item)
        used_live = platform.tee.heap.used_bytes
        assert used_live > 0
        platform.machine.secure_faults = ScriptedInjector(always={"ta_panic"})
        with pytest.raises(TeeTargetDead):
            pipeline.session.invoke(CMD_PROCESS, Params.of(Value(a=item.frames)))
        assert platform.tee.heap.used_bytes == used_live  # leaked until reaped
        assert platform.tee.reap_panicked(pipeline.ta_uuid)
        assert platform.tee.heap.used_bytes < used_live
        assert not platform.tee.reap_panicked(pipeline.ta_uuid)  # idempotent
        pipeline.client.close()


class TestRecoverySlo:
    def _rule(self):
        return next(
            r for r in default_slo_rules() if r.name == "recovery_time"
        )

    def test_gated_when_no_restarts_happened(self):
        reg = MetricsRegistry()
        ev = self._rule().evaluate(reg)
        assert ev.ok and ev.gated
        assert ev.to_doc()["gated"] is True
        report = HealthMonitor(reg, [self._rule()]).evaluate()
        assert report.ok
        assert "gated" in report.table()

    def test_evaluated_once_restarts_exist(self):
        reg = MetricsRegistry()
        reg.inc("tee.restarts")
        reg.observe("tee.recovery_cycles", 5.0e8)  # 250 ms: over budget
        ev = self._rule().evaluate(reg)
        assert not ev.ok and not ev.gated

    def test_fast_recovery_passes(self):
        reg = MetricsRegistry()
        reg.inc("tee.restarts")
        reg.observe("tee.recovery_cycles", 200_000.0)
        assert self._rule().evaluate(reg).ok

    def test_budget_knob(self):
        rules = default_slo_rules(recovery_budget_cycles=100.0)
        rule = next(r for r in rules if r.name == "recovery_time")
        reg = MetricsRegistry()
        reg.inc("tee.restarts")
        reg.observe("tee.recovery_cycles", 200.0)
        assert not rule.evaluate(reg).ok


class TestAlertRouting:
    def _failing_report(self):
        reg = MetricsRegistry()
        reg.inc("errors", 9)
        rules = [SloRule("errs", metric="errors", op="<=", threshold=1)]
        return HealthMonitor(reg, rules).evaluate()

    def test_alert_doc_schema(self):
        doc = build_alert_doc(self._failing_report(), device_id="dut")
        assert doc["kind"] == "health_alert"
        assert doc["device"] == "dut"
        assert doc["ok"] is False
        assert doc["rules"][0]["rule"] == "errs"
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_violation_routes_through_relay_to_cloud(self, provisioned):
        platform, pipeline, _ = _run(provisioned, n=1)
        outcome = route_health_alert(
            platform, pipeline.ta_uuid, self._failing_report(),
            device_id="dut",
        )
        assert outcome["status"] == RELAY_SENT
        alert = platform.cloud.alerts[-1]
        assert alert["kind"] == "health_alert" and alert["device"] == "dut"
        counters = platform.machine.obs.metrics.counters()
        assert counters["tee.alerts_sent"] == 1

    def test_alert_queued_on_outage_and_drained_after(self, provisioned):
        platform = IotPlatform.create(
            seed=311, network_faults=FaultConfig(refuse_rate=1.0)
        )
        pipeline = SecurePipeline(platform, provisioned.bundle)
        try:
            outcome = route_health_alert(
                platform, pipeline.ta_uuid, self._failing_report(),
                device_id="dut",
            )
            assert outcome["status"] == RELAY_QUEUED
            assert platform.cloud.alerts == []
            counters = platform.machine.obs.metrics.counters()
            assert counters["tee.alerts_queued"] == 1
            # The network heals; the next successful forward drains the
            # sealed queue and the alert arrives via the kind dispatch.
            platform.supplicant.net.set_fault_injector(None)
            workload = _workload(
                provisioned.bundle, n=2, sensitive_fraction=0.0
            )
            pipeline.process(workload)
        finally:
            pipeline.close()
        assert [a["device"] for a in platform.cloud.alerts] == ["dut"]
