"""Normal-world client crash/restart chaos.

The client *application* dies mid-run — OOM-killed, segfaulted,
upgraded — losing its session object, its supervisor and its utterance
counter.  Nothing client-side runs cleanup; the kernel releases the TEE
driver fd (tearing down the non-keep-alive TA instance once its last
session drops) and reclaims shared memory.  Recovery must come from the
TA's sealed state alone: ``on_create`` restores the newest valid
checkpoint generation and the store-and-forward queue, ``CMD_RESUME``
tells the fresh client where committed state actually is, and replaying
the committed sequence is suppressed so nothing ever double-sends.

The restore path itself is then put under intensified fault pressure
(satellite 3): corrupted checkpoint generations and corrupted sealed
queue entries interleaved with the crash — recovery degrades gracefully
(older generation, pinned queue head) or fails closed, never silently.
"""

import pytest

from repro.core.pipeline import SecurePipeline
from repro.core.platform import IotPlatform
from repro.core.ta_filter import CMD_HEARTBEAT, CMD_PROCESS, CMD_STATS
from repro.optee.params import Params, Value
from repro.optee.supervise import SupervisorPolicy
from repro.relay.relay import RetryPolicy
from repro.sim.faults import (
    ClientCrashConfig,
    ClientCrashInjector,
    SecureFaultConfig,
)
from repro.sim.rng import SimRng
from tests.test_core_pipeline import make_workload
from tests.test_relay_faults import BENIGN


def _tamper(platform, needle):
    """Flip one byte in every supplicant-fs blob whose path contains
    ``needle`` — the normal world corrupting sealed state at rest."""
    fs = platform.supplicant.fs
    paths = [p for p in fs.files if needle in p]
    assert paths, f"no sealed blob matching {needle!r}"
    for path in paths:
        blob = bytearray(fs.files[path])
        blob[len(blob) // 2] ^= 0xFF
        fs.files[path] = bytes(blob)
    return paths


class TestClientCrashConfig:
    def test_rate_validated(self):
        with pytest.raises(ValueError):
            ClientCrashConfig(rate=1.5)
        with pytest.raises(ValueError):
            ClientCrashConfig(rate=-0.1)
        with pytest.raises(ValueError):
            ClientCrashConfig(max_crashes=-1)

    def test_enabled_property(self):
        assert not ClientCrashConfig().enabled
        assert ClientCrashConfig(rate=0.1).enabled

    def test_chaos_profile(self):
        config = ClientCrashConfig.chaos()
        assert config.enabled
        assert config.max_crashes == 2

    def test_disabled_injector_never_draws(self):
        injector = ClientCrashInjector(ClientCrashConfig(), SimRng(3, "dev"))
        assert not any(injector.fires() for _ in range(50))
        assert injector.draws == 0

    def test_schedule_deterministic(self):
        def schedule():
            injector = ClientCrashInjector(
                ClientCrashConfig(rate=0.3), SimRng(7, "dev")
            )
            return [injector.fires() for _ in range(40)]

        first = schedule()
        assert first == schedule()
        assert any(first)

    def test_max_crashes_caps_the_run(self):
        injector = ClientCrashInjector(
            ClientCrashConfig(rate=1.0, max_crashes=2), SimRng(1, "dev")
        )
        fired = [injector.fires() for _ in range(10)]
        assert sum(fired) == 2
        assert fired[:2] == [True, True]


class TestCrashRecovery:
    """Crash mid-run, recover from sealed checkpoint + queue alone."""

    def _supervised(self, provisioned, seed, **kwargs):
        platform = IotPlatform.create(seed=seed)
        pipeline = SecurePipeline(
            platform, provisioned.bundle,
            supervisor=SupervisorPolicy(), **kwargs,
        )
        return platform, pipeline

    def test_mid_run_crash_loses_no_decision(self, provisioned):
        platform, pipeline = self._supervised(provisioned, seed=511)
        workload = make_workload(provisioned, BENIGN * 2)
        results = [pipeline.process_item(i) for i in workload.items[:2]]

        pipeline.crash_client()
        assert pipeline.session is None and pipeline.supervisor is None
        resume = pipeline.recover_client()
        assert resume["seq"] == 2  # both utterances committed pre-crash
        assert pipeline._seq == 2
        assert pipeline.client_restarts == 1

        results += [pipeline.process_item(i) for i in workload.items[2:]]
        assert [r.relay_status for r in results] == ["sent"] * 4
        # Exactly once at the cloud: every decision, no duplicates.
        received = platform.cloud.received
        assert sorted(r.transcript for r in received) == sorted(
            r.payload for r in results
        )
        dialog_ids = [(r.device_id, r.dialog_id) for r in received]
        assert len(dialog_ids) == len(set(dialog_ids)) == 4
        assert platform.cloud.duplicates_suppressed == 0
        metrics = platform.machine.obs.metrics.counters()
        assert metrics["client.crashes"] == 1
        assert metrics["client.restarts"] == 1
        assert metrics["tee.client_resumes"] == 1

    def test_replay_of_committed_seq_is_suppressed(self, provisioned):
        """A recovered client that re-submits the committed sequence gets
        the recorded decision back — the relay never runs again."""
        platform, pipeline = self._supervised(provisioned, seed=512)
        workload = make_workload(provisioned, BENIGN[:1])
        first = pipeline.process_item(workload.items[0])
        assert first.relay_status == "sent"

        pipeline.crash_client()
        pipeline.recover_client()
        replay = pipeline.session.invoke(
            CMD_PROCESS, Params.of(Value(a=workload.items[0].frames, b=1))
        )
        assert replay["transcript"] == first.transcript
        assert replay["payload"] == first.payload
        assert platform.cloud.received_transcripts == [first.payload]
        metrics = platform.machine.obs.metrics.counters()
        assert metrics["tee.replays_suppressed"] == 1

    def test_crash_with_queued_backlog_drains_after_recovery(self, provisioned):
        platform, pipeline = self._supervised(
            provisioned, seed=513,
            retry_policy=RetryPolicy(max_attempts=2),
        )
        saved = dict(platform.supplicant.net._endpoints)
        platform.supplicant.net._endpoints.clear()
        workload = make_workload(provisioned, BENIGN)
        queued = pipeline.process_item(workload.items[0])
        assert queued.relay_status == "queued"

        pipeline.crash_client()
        resume = pipeline.recover_client()
        # The sealed backlog survived the dead instance.
        assert resume["queue_depth"] == 1

        platform.supplicant.net._endpoints.update(saved)
        assert pipeline.session.invoke(CMD_HEARTBEAT)["directive"] == "Ack"
        stats = pipeline.session.invoke(CMD_STATS)["relay"]
        assert stats["queue_depth"] == 0
        assert stats["drained"] == 1
        assert platform.cloud.received_transcripts == [queued.payload]
        # The re-send advertised its pre-crash attempt history.
        assert platform.cloud.received[0].attempt == 3

    def test_dialog_cursor_restored_past_dead_instance(self, provisioned):
        """A fresh relay restarts its dialog counter at zero; the restore
        must advance it, or the cloud's dedup would eat new decisions."""
        platform, pipeline = self._supervised(provisioned, seed=514)
        workload = make_workload(provisioned, BENIGN)
        pipeline.process_item(workload.items[0])
        first_dialog = platform.cloud.received[0].dialog_id

        pipeline.crash_client()
        resume = pipeline.recover_client()
        assert resume["dialog_cursor"] > first_dialog

        second = pipeline.process_item(workload.items[1])
        assert second.relay_status == "sent"
        dialogs = [r.dialog_id for r in platform.cloud.received]
        assert len(dialogs) == len(set(dialogs)) == 2
        assert platform.cloud.duplicates_suppressed == 0

    def test_unsupervised_recovery_restarts_from_zero(self, provisioned):
        """Without supervision there are no checkpoints: recovery works
        but resumes from scratch — the documented degraded contract."""
        platform = IotPlatform.create(seed=515)
        pipeline = SecurePipeline(platform, provisioned.bundle)
        workload = make_workload(provisioned, BENIGN)
        pipeline.process_item(workload.items[0])

        pipeline.crash_client()
        resume = pipeline.recover_client()
        assert resume["seq"] == 0
        assert pipeline._seq == 0
        # The pipeline still works after the restart.
        assert pipeline.process_item(workload.items[1]).relay_status == "sent"

    def test_double_crash_recovers_each_time(self, provisioned):
        platform, pipeline = self._supervised(provisioned, seed=516)
        workload = make_workload(provisioned, BENIGN * 2)
        results = []
        for index, item in enumerate(workload.items):
            if index in (1, 3):
                pipeline.crash_client()
                pipeline.recover_client()
            results.append(pipeline.process_item(item))
        assert pipeline.client_restarts == 2
        assert [r.relay_status for r in results] == ["sent"] * 4
        received = platform.cloud.received
        assert len(received) == 4
        assert len({(r.device_id, r.dialog_id) for r in received}) == 4

    def test_trace_ids_continue_across_crashes(self, provisioned):
        """Each recovered instance restores the utterance counter from
        the sealed checkpoint: the ids stay unique and consecutive."""
        platform, pipeline = self._supervised(provisioned, seed=517)
        workload = make_workload(provisioned, BENIGN * 2)
        for index, item in enumerate(workload.items):
            if index in (1, 3):
                pipeline.crash_client()
                assert pipeline.recover_client()["utt_seq"] == index
            pipeline.process_item(item)
        captures = [
            sp.trace_id
            for sp in platform.machine.obs.tracer.spans_in("stage.secure")
            if sp.name == "capture"
        ]
        assert captures == [f"device/u{i:05d}" for i in range(1, 5)]


class TestRestoreChaos:
    """Satellite 3: intensified faults on the ``on_create`` restore path."""

    def _supervised(self, provisioned, seed, **kwargs):
        platform = IotPlatform.create(seed=seed)
        pipeline = SecurePipeline(
            platform, provisioned.bundle,
            supervisor=SupervisorPolicy(), **kwargs,
        )
        return platform, pipeline

    def test_corrupt_older_generation_restores_the_newer(self, provisioned):
        platform, pipeline = self._supervised(provisioned, seed=521)
        workload = make_workload(provisioned, BENIGN)
        for item in workload.items:
            pipeline.process_item(item)
        # A/B alternation: generation a holds seq 1, b holds seq 2.
        _tamper(platform, "ckpt/audio-filter/a")

        pipeline.crash_client()
        resume = pipeline.recover_client()
        assert resume["seq"] == 2  # the intact (newest) generation won
        invalid = [
            e for e in platform.machine.obs.tracer.spans_in("optee.ta")
            if e.name == "checkpoint_invalid"
        ]
        assert len(invalid) == 1

    def test_corrupt_newest_generation_falls_back(self, provisioned):
        """Torn write on the newest checkpoint: restore adopts the older
        intact generation instead of failing — and nothing already at
        the cloud is lost."""
        platform, pipeline = self._supervised(provisioned, seed=522)
        workload = make_workload(provisioned, BENIGN)
        results = [pipeline.process_item(i) for i in workload.items]
        _tamper(platform, "ckpt/audio-filter/b")

        pipeline.crash_client()
        resume = pipeline.recover_client()
        assert resume["seq"] == 1  # fell back one committed generation
        assert sorted(platform.cloud.received_transcripts) == sorted(
            r.payload for r in results
        )

    def test_both_generations_corrupt_fails_closed_to_fresh(self, provisioned):
        """Total checkpoint loss: the TA restores nothing and restarts
        from sequence zero — degraded, explicit, and still functional."""
        platform, pipeline = self._supervised(provisioned, seed=523)
        workload = make_workload(provisioned, BENIGN)
        pipeline.process_item(workload.items[0])
        _tamper(platform, "ckpt/audio-filter")

        pipeline.crash_client()
        resume = pipeline.recover_client()
        assert resume["seq"] == 0
        # Pre-crash commits are already at the cloud: nothing was lost.
        assert len(platform.cloud.received) == 1
        # And the recovered instance still processes utterances.
        assert pipeline.process_item(workload.items[1]).forwarded

    def test_corrupt_queue_head_pins_fail_closed(self, provisioned):
        """A corrupted sealed queue entry discovered during the
        post-restore drain stops the drain with the entry pinned at
        depth — surfaced by the queue-depth SLO, never silently lost."""
        platform, pipeline = self._supervised(
            provisioned, seed=524,
            retry_policy=RetryPolicy(max_attempts=2),
        )
        saved = dict(platform.supplicant.net._endpoints)
        platform.supplicant.net._endpoints.clear()
        workload = make_workload(provisioned, BENIGN)
        for item in workload.items:
            assert pipeline.process_item(item).relay_status == "queued"

        pipeline.crash_client()
        _tamper(platform, "relayq/00000000")
        resume = pipeline.recover_client()
        assert resume["queue_depth"] == 2

        platform.supplicant.net._endpoints.update(saved)
        assert pipeline.session.invoke(CMD_HEARTBEAT)["directive"] == "Ack"
        stats = pipeline.session.invoke(CMD_STATS)["relay"]
        # Head unsealable: nothing drained, nothing deleted, depth holds.
        assert stats["drained"] == 0
        assert stats["queue_depth"] == 2
        qfiles = [p for p in platform.supplicant.fs.files if "relayq/" in p]
        assert len(qfiles) == 2

    def test_storage_chaos_crash_loop_never_loses_silently(self, provisioned):
        """The intensified profile: random storage faults *and* repeated
        client crashes.  The run must complete with every decision
        accounted — delivered, sealed in the queue, or an explicitly
        counted shed — and the cloud must hold every payload the device
        reported as sent."""
        platform = IotPlatform.create(
            seed=525,
            secure_faults=SecureFaultConfig(storage_rate=0.5),
        )
        pipeline = SecurePipeline(
            platform, provisioned.bundle, supervisor=SupervisorPolicy()
        )
        workload = make_workload(provisioned, BENIGN * 3)
        results = []
        for index, item in enumerate(workload.items):
            if index in (2, 4):
                pipeline.crash_client()
                pipeline.recover_client()
            results.append(pipeline.process_item(item))
        assert pipeline.client_restarts == 2
        accounted = {"sent", "queued", "throttled", "shed", "suppressed", ""}
        assert {r.relay_status for r in results} <= accounted
        sent = [r.payload for r in results if r.relay_status == "sent"]
        received = platform.cloud.received_transcripts
        for payload in sent:
            assert received.count(payload) >= 1
        # Fail-closed accounting: anything lost is an explicit shed.
        run_sheds = sum(1 for r in results if r.relay_status == "shed")
        rejected = platform.machine.obs.metrics.counters().get(
            "relay.queue.rejected", 0
        )
        assert run_sheds <= rejected
