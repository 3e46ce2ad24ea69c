"""Backpressure-aware multi-tenant cloud ingestion, device loop included.

Three layers, mirroring the architecture:

* the admission tier alone — token buckets, bounded tenant queues,
  deterministic ``Throttled`` verdicts, admission-time dedup, and the
  clock-driven commit loop (direct :class:`VoiceCloudService` tests);
* the device loop — a ``Throttled`` verdict opens a server-directed
  backpressure window (deferred deliveries with zero wire traffic),
  throttled payloads spill sealed, and the queue drains exactly-once
  after the window closes;
* the equivalence proof — the default (unthrottled) profile commits at
  admission, and its wire bytes, decisions, clock and cloud records are
  pinned to digests recorded from the accept-all sink it replaced, so
  pre-existing baselines stay pinned.

Plus the satellite regressions: the typed
:class:`~repro.errors.RelayExhaustedError` contract and the bounded
store-and-forward queue's fail-closed shedding and drain edge cases.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.cloud.service import (
    IngestionConfig,
    VoiceCloudService,
    tenant_shard,
)
from repro.core.pipeline import SecurePipeline
from repro.core.platform import IotPlatform
from repro.core.ta_filter import CMD_HEARTBEAT, CMD_STATS
from repro.core.workload import UtteranceWorkload
from repro.errors import (
    CryptoError,
    RelayDeliveryError,
    RelayError,
    RelayExhaustedError,
    RelayQueueFullError,
    RelayThrottledError,
)
from repro.ml.dataset import UtteranceGenerator
from repro.obs.fleet import run_fleet
from repro.obs.metrics import MetricsRegistry
from repro.relay.avs import AvsEvent
from repro.relay.queue import StoreForwardQueue
from repro.relay.relay import RetryPolicy
from repro.sim.clock import CycleDomain, SimClock
from repro.sim.rng import SimRng
from tests.test_core_pipeline import MIXED, make_workload
from tests.test_relay_faults import BENIGN, FakeStorage, ScriptedFaults


def make_service(config, seed=5):
    clock = SimClock()
    metrics = MetricsRegistry()
    service = VoiceCloudService(
        SimRng(seed, "cloud"), clock=clock, metrics=metrics, ingestion=config
    )
    return service, clock, metrics


def send(service, transcript, dialog_id, attempt=1, device="dev-a"):
    """One plaintext Recognize straight at the service; parsed reply."""
    event = AvsEvent.recognize(
        transcript, dialog_id, attempt=attempt, device_id=device
    )
    return json.loads(service.plaintext_endpoint.receive(event.to_bytes()))


class TestIngestionConfig:
    def test_sizing_validated(self):
        with pytest.raises(ValueError):
            IngestionConfig(shards=0)
        with pytest.raises(ValueError):
            IngestionConfig(tenant_queue_depth=0)
        with pytest.raises(ValueError):
            IngestionConfig(bucket_capacity=0)
        with pytest.raises(ValueError):
            IngestionConfig(refill_cycles_per_token=-1)
        with pytest.raises(ValueError):
            IngestionConfig(admission_base_cycles=-5)

    def test_overload_profile_is_starved(self):
        config = IngestionConfig.overload()
        # One token, refilling on a seconds scale: far below the cadence
        # any simulated device offers, so throttling is guaranteed.
        assert config.bucket_capacity == 1
        assert config.refill_cycles_per_token >= 1_000_000_000

    def test_tenant_shard_deterministic_and_in_range(self):
        for shards in (1, 2, 4, 7):
            for device in ("", "dev-a", "dev-b", "device-0042"):
                first = tenant_shard(device, shards)
                assert 0 <= first < shards
                assert tenant_shard(device, shards) == first


class TestAdmissionVerdicts:
    """The admission tier alone, driven by a hand-advanced clock."""

    # Commit loop parked out of the way: these tests isolate admission.
    SLOW_DRAIN = IngestionConfig(
        shards=1,
        tenant_queue_depth=8,
        bucket_capacity=2,
        refill_cycles_per_token=1_000_000,
        service_cycles_per_record=10**12,
    )

    def test_tokens_admit_then_throttle(self):
        service, _, metrics = make_service(self.SLOW_DRAIN)
        assert send(service, "one", 1)["directive"] == "Response"
        assert send(service, "two", 2)["directive"] == "Response"
        verdict = send(service, "three", 3)
        assert verdict["directive"] == "Throttled"
        assert verdict["retryAfterCycles"] >= 1
        assert (service.accepted, service.throttled) == (2, 1)
        counters = metrics.counters("cloud.ingest")
        assert counters["cloud.ingest.accepted"] == 2
        assert counters["cloud.ingest.throttled"] == 1

    def test_accepted_reply_byte_identical_to_legacy(self):
        """A queued accept answers with the default profile's bytes,
        which are the accept-all sink's reply."""
        service, _, _ = make_service(self.SLOW_DRAIN)
        default = VoiceCloudService(SimRng(5, "cloud"), SimClock())
        event = AvsEvent.recognize("hello there", 1, device_id="dev-a")
        reply = service.plaintext_endpoint.receive(event.to_bytes())
        assert reply == default.plaintext_endpoint.receive(event.to_bytes())
        assert reply == b'{"directive": "Response", "speech": "ok: 11 chars"}'

    def test_retry_hint_covers_token_deficit(self):
        service, _, _ = make_service(self.SLOW_DRAIN)
        send(service, "one", 1)
        send(service, "two", 2)
        verdict = send(service, "three", 3)
        # Empty bucket: the hint must at least span one full refill.
        assert verdict["retryAfterCycles"] >= (
            self.SLOW_DRAIN.refill_cycles_per_token
        )

    def test_refill_restores_admission(self):
        service, clock, _ = make_service(self.SLOW_DRAIN)
        send(service, "one", 1)
        send(service, "two", 2)
        assert send(service, "three", 3)["directive"] == "Throttled"
        clock.advance(
            self.SLOW_DRAIN.refill_cycles_per_token, CycleDomain.IDLE
        )
        assert send(service, "three", 3, attempt=2)["directive"] == "Response"

    def test_throttled_event_never_registers_for_dedup(self):
        """A throttled event must not poison its own later re-send."""
        service, clock, _ = make_service(self.SLOW_DRAIN)
        send(service, "one", 1)
        send(service, "two", 2)
        assert send(service, "spike", 7)["directive"] == "Throttled"
        clock.advance(
            self.SLOW_DRAIN.refill_cycles_per_token, CycleDomain.IDLE
        )
        send(service, "spike", 7, attempt=2)
        assert service.duplicates_suppressed == 0
        service.flush()
        assert service.received_transcripts.count("spike") == 1

    def test_admitted_uncommitted_retry_is_suppressed(self):
        """Dedup keys register at admission, not commit: a reconnecting
        device retrying an admitted-but-pending event must not make the
        commit loop record the decision twice."""
        service, _, metrics = make_service(self.SLOW_DRAIN)
        send(service, "pending", 9)
        assert service.pending_depth() == 1
        reply = send(service, "pending", 9, attempt=2)
        assert reply["directive"] == "Response"
        assert service.duplicates_suppressed == 1
        assert service.accepted == 1
        assert service.pending_depth() == 1
        assert metrics.counters()["cloud.ingest.deduped"] == 1
        service.flush()
        assert service.received_transcripts == ["pending"]

    def test_full_tenant_queue_throttles_despite_tokens(self):
        config = IngestionConfig(
            shards=1,
            tenant_queue_depth=1,
            bucket_capacity=100,
            refill_cycles_per_token=1,
            service_cycles_per_record=10**12,
        )
        service, _, _ = make_service(config)
        assert send(service, "one", 1)["directive"] == "Response"
        assert send(service, "two", 2)["directive"] == "Throttled"

    def test_tenants_are_isolated(self):
        """One tenant's spike cannot starve another's admission."""
        config = IngestionConfig(
            shards=2,
            tenant_queue_depth=8,
            bucket_capacity=1,
            refill_cycles_per_token=10**12,
            service_cycles_per_record=10**12,
        )
        service, _, _ = make_service(config)
        send(service, "a1", 1, device="dev-a")
        assert (
            send(service, "a2", 2, device="dev-a")["directive"] == "Throttled"
        )
        assert (
            send(service, "b1", 1, device="dev-b")["directive"] == "Response"
        )

    def test_drain_commits_as_the_clock_advances(self):
        config = IngestionConfig(
            shards=1,
            tenant_queue_depth=100,
            bucket_capacity=100,
            refill_cycles_per_token=1,
            service_cycles_per_record=1_000,
        )
        service, clock, metrics = make_service(config)
        send(service, "a", 1)
        assert service.received_transcripts == []  # admitted, not committed
        clock.advance(2_500, CycleDomain.IDLE)
        send(service, "b", 2)  # arrival drives the lazy drain loop
        assert service.received_transcripts == ["a"]
        assert service.flush() == 1
        assert service.received_transcripts == ["a", "b"]
        assert service.committed == 2
        assert metrics.counters()["cloud.ingest.committed"] == 2
        assert metrics.gauges()["cloud.ingest.queue_depth"] == 0.0

    def test_commit_round_robins_across_tenants(self):
        """No tenant starves behind a noisy neighbour's backlog."""
        config = IngestionConfig(
            shards=1,
            tenant_queue_depth=100,
            bucket_capacity=100,
            refill_cycles_per_token=1,
            service_cycles_per_record=10**12,
        )
        service, _, _ = make_service(config)
        send(service, "a1", 1, device="dev-a")
        send(service, "a2", 2, device="dev-a")
        send(service, "b1", 1, device="dev-b")
        service.flush()
        assert service.received_transcripts == ["a1", "b1", "a2"]

    def test_admission_latency_observed_per_accept(self):
        service, _, metrics = make_service(self.SLOW_DRAIN)
        send(service, "one", 1)
        send(service, "two", 2)
        send(service, "three", 3)  # throttled: no admission sample
        hist = metrics.histogram("cloud.ingest.admission_cycles")
        assert hist.count == 2
        assert hist.quantile(0.0) >= self.SLOW_DRAIN.admission_base_cycles


class TestDeviceBackpressure:
    """The full TA↔cloud loop under the ``overload`` profile."""

    def _overloaded(self, provisioned, seed, **pipeline_kwargs):
        platform = IotPlatform.create(
            seed=seed, ingestion=IngestionConfig.overload()
        )
        pipeline = SecurePipeline(
            platform, provisioned.bundle, **pipeline_kwargs
        )
        return platform, pipeline

    def test_overload_throttles_into_sealed_queue(self, provisioned):
        platform, pipeline = self._overloaded(provisioned, seed=431)
        run = pipeline.process(make_workload(provisioned, BENIGN * 3))

        statuses = [r.relay_status for r in run.results]
        assert statuses == ["sent"] + ["throttled"] * 5
        assert run.lost_count() == 0 and run.shed_count() == 0
        stats = pipeline.session.invoke(CMD_STATS)["relay"]
        assert stats["sent"] == 1
        assert stats["throttled"] == 1        # one verdict on the wire...
        assert stats["throttle_deferred"] == 4  # ...then the window holds
        assert stats["retries"] == 0  # backpressure burns no retry budget
        assert stats["queue_depth"] == 5
        assert platform.cloud.throttled == 1

    def test_deferred_throttle_sends_no_wire_bytes(self, provisioned):
        platform, pipeline = self._overloaded(provisioned, seed=432)
        workload = make_workload(provisioned, BENIGN * 2)
        net = platform.supplicant.net
        assert pipeline.process_item(workload.items[0]).relay_status == "sent"
        # The Throttled verdict itself is a wire round trip...
        second = pipeline.process_item(workload.items[1])
        assert second.relay_status == "throttled"
        frames_after_verdict = len(net.wire_log)
        # ...but while the window holds, deliveries defer locally.
        for item in workload.items[2:]:
            assert pipeline.process_item(item).relay_status == "throttled"
        assert len(net.wire_log) == frames_after_verdict
        stats = pipeline.session.invoke(CMD_STATS)["relay"]
        assert stats["throttle_deferred"] == 2

    def test_throttle_queue_drain_round_trip_exactly_once(self, provisioned):
        """The acceptance round trip: overload throttles decisions into
        the sealed queue; once the server-directed window passes, drains
        re-send them and the cloud records every decision exactly once."""
        platform, pipeline = self._overloaded(provisioned, seed=433)
        run = pipeline.process(make_workload(provisioned, BENIGN + BENIGN[:1]))
        assert [r.relay_status for r in run.results] == [
            "sent", "throttled", "throttled",
        ]

        clock = platform.machine.clock
        drained_total = 0
        for _ in range(2):  # one token per window: two drains to empty
            clock.advance(12_000_000_000, CycleDomain.IDLE)
            directive = pipeline.session.invoke(CMD_HEARTBEAT)
            assert directive["directive"] == "Ack"
            stats = pipeline.session.invoke(CMD_STATS)["relay"]
            drained_total = stats["drained"]
        assert drained_total == 2
        assert stats["queue_depth"] == 0

        platform.cloud.flush()
        received = platform.cloud.received_transcripts
        assert sorted(received) == sorted(r.payload for r in run.results)
        # Exactly once, keyed by dialog id (transcripts may repeat).
        dialog_ids = [r.dialog_id for r in platform.cloud.received]
        assert len(dialog_ids) == len(set(dialog_ids)) == 3
        assert platform.cloud.duplicates_suppressed == 0
        # Drained re-sends advertise their full attempt history: the
        # verdict-throttled payload burned one wire attempt before
        # spilling (so its re-send is attempt 2); the deferred one never
        # reached the wire (its re-send is attempt 1, its first ever).
        attempts = sorted(r.attempt for r in platform.cloud.received)
        assert attempts == [1, 1, 2]

    def test_bounded_queue_sheds_fail_closed_under_overload(self, provisioned):
        platform, pipeline = self._overloaded(
            provisioned, seed=434, queue_max_depth=1
        )
        run = pipeline.process(make_workload(provisioned, BENIGN * 2))
        statuses = [r.relay_status for r in run.results]
        assert statuses == ["sent", "throttled", "shed", "shed"]
        # Nothing is ever lost silently: every loss is an accounted shed.
        assert run.lost_count() == run.shed_count() == 2
        stats = pipeline.session.invoke(CMD_STATS)["relay"]
        assert stats["shed"] == 2
        assert stats["queue_depth"] == 1
        metrics = platform.machine.obs.metrics
        assert metrics.counters()["relay.queue.rejected"] == 2

    def test_retry_of_admitted_event_deduped_at_ingestion(self, provisioned):
        """At-least-once wire, exactly-once commit — now through the
        admission tier: the first attempt was admitted (key registered,
        record still pending) and only the reply was corrupted, so the
        retry must dedup against the *pending* record."""
        # Free tokens, but a drain loop too slow to commit during the run.
        platform = IotPlatform.create(
            seed=435,
            ingestion=IngestionConfig(
                refill_cycles_per_token=0, service_cycles_per_record=10**12
            ),
        )
        pipeline = SecurePipeline(platform, provisioned.bundle)
        workload = make_workload(provisioned, BENIGN)
        pipeline.process_item(workload.items[0])
        platform.supplicant.net.set_fault_injector(ScriptedFaults(["corrupt"]))
        result = pipeline.process_item(workload.items[1])
        assert result.relay_status == "sent"
        assert result.relay_attempts == 2
        assert platform.cloud.duplicates_suppressed == 1
        assert result.payload not in platform.cloud.received_transcripts
        platform.cloud.flush()
        assert platform.cloud.received_transcripts.count(result.payload) == 1

    def test_fleet_depth_gauge_zero_after_flush(self):
        """The end-of-run flush commits what the tier still held, so the
        exported depth gauge must read the empty queues, not the backlog
        before the flush."""
        report = run_fleet(devices=4, seed=9, utterances=4, overload=True)
        merged = report.merged_registry()
        counters = merged.counters("cloud.ingest.")
        assert counters["cloud.ingest.throttled"] >= 1
        assert counters["cloud.ingest.committed"] == (
            counters["cloud.ingest.accepted"]
        ) >= 1
        assert merged.gauges()["cloud.ingest.queue_depth"] == 0.0

    def test_heartbeat_reports_throttled_window(self, provisioned):
        platform, pipeline = self._overloaded(provisioned, seed=436)
        workload = make_workload(provisioned, BENIGN)
        pipeline.process_item(workload.items[0])
        pipeline.process_item(workload.items[1])  # opens the window
        directive = pipeline.session.invoke(CMD_HEARTBEAT)
        assert directive["directive"] == "error"
        assert directive["reason"] == "throttled"
        assert directive["retry_after_cycles"] >= 1
        assert not pipeline.session.closed


def _sha(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


class TestDefaultIngestByteIdentity:
    """Acceptance: the default profile reproduces the accept-all sink.

    Before the sink was deleted, each seed's run (default platform, an
    8-utterance 50/50 corpus, the ``provisioned`` CNN bundle) was
    recorded as sha256 digests of the wire log, the decision tuples, the
    final clock and switch count, and the cloud's records read before and
    after ``flush()``.  The admission tier must reproduce every one of
    them.
    """

    SINK_DIGESTS = {
        437: {
            "wire": "0301f1e1009c3a69d461611602a2da03736ac776ee42c03ceb2a471c8a718431",
            "decisions": "6f755497dacdab5110a5e8a355229c7f83aa8281fbbc67c8eba27308026be9ee",
            "clock": "d04d36d1b227aa9601587b7732809b7d4c80f221c0514f3206e230debd0687c0",
            "received_before_flush": "561eb0e596ae61c9455394eaac62d5b805b332725f554d0e1b12f1ec511a5ecb",
            "received_after_flush": "561eb0e596ae61c9455394eaac62d5b805b332725f554d0e1b12f1ec511a5ecb",
        },
        438: {
            "wire": "c7a31636911d7ef43fcae3a37b3c35f561a83f9faab457e5678db333ed4cd80d",
            "decisions": "9179218823e5f902a5b79f0cb57e09181456b15d8f4f0f1a487b56fe5da263bb",
            "clock": "6d577805fe64df545c946144328dc87d58cfef285a5baec2aa1c8cac913a63ea",
            "received_before_flush": "9d51e52d5b92a05eb26fd3d40e7e74fbd089fc412750e799b5ae3d406f5ec88e",
            "received_after_flush": "9d51e52d5b92a05eb26fd3d40e7e74fbd089fc412750e799b5ae3d406f5ec88e",
        },
        439: {
            "wire": "29522ac759e09c91d330f1f14edeeb130c32b26cd3794ea10bd5b8f635a2a6a4",
            "decisions": "799694f8db271419631b5e60c283f06fb006b017af5ec884d4bf27b0b181a140",
            "clock": "e880d55b5b308f0fa1a65253a9afbe02c61676c96021a8b9abc65be15860b31a",
            "received_before_flush": "c8f4919c770a6079ff8a5a2be647c0c067ce4731ef4442031347ab274a412f2b",
            "received_after_flush": "c8f4919c770a6079ff8a5a2be647c0c067ce4731ef4442031347ab274a412f2b",
        },
    }

    @pytest.mark.parametrize("seed", sorted(SINK_DIGESTS))
    def test_matches_sink_digests(self, provisioned, seed):
        bundle = provisioned.bundle
        platform = IotPlatform.create(seed=seed)
        pipeline = SecurePipeline(platform, bundle)
        corpus = UtteranceGenerator(SimRng(seed, "golden")).generate(
            8, sensitive_fraction=0.5
        )
        run = pipeline.process(
            UtteranceWorkload.from_corpus(corpus, bundle.vocoder)
        )
        cloud = platform.cloud
        before = [dataclasses.asdict(r) for r in cloud.received]
        cloud.flush()
        after = [dataclasses.asdict(r) for r in cloud.received]
        pipeline.close()
        wire = platform.supplicant.net.wire_log
        assert wire and before  # the pin covers real traffic
        assert {
            "wire": _sha([frame.hex() for frame in wire]),
            "decisions": _sha([
                [r.transcript, r.sensitive_predicted, r.forwarded, r.payload,
                 r.relay_status, r.relay_attempts, r.latency_cycles]
                for r in run.results
            ]),
            "clock": _sha([
                platform.machine.clock.now, platform.machine.cpu.switch_count
            ]),
            "received_before_flush": _sha(before),
            "received_after_flush": _sha(after),
        } == self.SINK_DIGESTS[seed]

    def test_commits_at_admission(self, provisioned):
        platform = IotPlatform.create(seed=438)
        pipeline = SecurePipeline(platform, provisioned.bundle)
        cloud = platform.cloud
        for item in make_workload(provisioned, MIXED).items:
            result = pipeline.process_item(item)
            assert cloud.pending_depth() == 0
            assert len(cloud.received) == cloud.accepted
            if result.forwarded:
                assert cloud.received[-1].transcript == result.payload
        pipeline.close()
        assert cloud.accepted >= 1 and cloud.throttled == 0
        assert cloud.flush() == 0
        metrics = platform.machine.obs.metrics
        assert metrics.counters("cloud.ingest.") == {
            "cloud.ingest.accepted": cloud.accepted,
            "cloud.ingest.committed": cloud.accepted,
        }
        assert metrics.gauges("cloud.ingest.") == {
            "cloud.ingest.queue_depth": 0.0
        }
        hist = metrics.histograms("cloud.ingest.")
        assert hist["cloud.ingest.admission_cycles"].count == cloud.accepted


class TestRelayExhausted:
    """Satellite: the typed exhaustion contract of RelayModule._deliver."""

    def test_exception_carries_attempts_and_backoff(self):
        exc = RelayExhaustedError("gone", attempts=4, backoff_cycles=321)
        assert isinstance(exc, RelayDeliveryError)
        assert exc.attempts == 4
        assert exc.backoff_cycles == 321
        assert "gone" in str(exc)

    def test_throttled_is_not_exhaustion(self):
        exc = RelayThrottledError(retry_after_cycles=9, attempts=1)
        assert isinstance(exc, RelayDeliveryError)
        assert not isinstance(exc, RelayExhaustedError)
        assert exc.retry_after_cycles == 9

    def test_deliver_raises_typed_exhaustion(self):
        """Total outage: every attempt burns backoff, and the raised
        error accounts for all of it — the regression the satellite
        pins, because callers budget on these two numbers."""
        from repro.errors import TeeCommunicationError
        from repro.relay.relay import RelayModule

        class DeadLinkCtx:
            """Minimal TaContext stand-in: every RPC finds the link down."""

            def __init__(self):
                self.metrics = MetricsRegistry()
                self.cycles = 0
                costs = type(
                    "Costs", (), {
                        "crypto_cycles_per_byte": 0.0,
                        "handshake_cycles": 100,
                    },
                )()
                machine = type("Machine", (), {"costs": costs})()
                self._os = type("Os", (), {"machine": machine})()

            def now(self):
                return self.cycles

            def span(self, name, category="", **fields):
                import contextlib

                return contextlib.nullcontext()

            def compute(self, cycles):
                self.cycles += int(cycles)

            def rpc(self, service, method, *args):
                raise TeeCommunicationError("link down")

            def log(self, name, **fields):
                pass

        ctx = DeadLinkCtx()
        relay = RelayModule(
            ctx, "host", 443, pinned_server_public=b"\x00" * 32,
            rng=SimRng(9, "relay"),
            retry_policy=RetryPolicy(max_attempts=3),
        )
        with pytest.raises(RelayExhaustedError) as excinfo:
            relay.send_payload("transcript", "probe payload")
        assert excinfo.value.attempts == 3
        assert excinfo.value.backoff_cycles > 0
        assert relay.stats["failed"] == 1
        assert relay.stats["retries"] == 2
        assert relay.stats["backoff_cycles"] == excinfo.value.backoff_cycles
        assert ctx.metrics.counters()["relay.failed"] == 1

    def test_exhaustion_accounted_end_to_end(self, provisioned):
        """The spill path surfaces the exhaustion accounting: attempts
        on the result, failed/retries/backoff in the relay stats."""
        platform = IotPlatform.create(seed=438)
        pipeline = SecurePipeline(
            platform, provisioned.bundle,
            retry_policy=RetryPolicy(max_attempts=3),
        )
        platform.supplicant.net._endpoints.clear()
        workload = make_workload(provisioned, BENIGN[:1])
        result = pipeline.process_item(workload.items[0])
        assert result.relay_status == "queued"
        assert result.relay_attempts == 3
        stats = pipeline.session.invoke(CMD_STATS)["relay"]
        assert stats["failed"] == 1
        assert stats["retries"] == 2
        assert stats["backoff_cycles"] > 0


class CorruptibleStorage(FakeStorage):
    """FakeStorage whose reads can be forced to fail unsealing."""

    def __init__(self):
        super().__init__()
        self.corrupt = set()

    def get(self, name):
        if name in self.corrupt:
            raise CryptoError(f"unseal failed: {name}")
        return super().get(name)


class TestBoundedQueue:
    """Satellite: bounded depth, fail-closed shedding, drain edges."""

    def test_depth_validated(self):
        with pytest.raises(ValueError):
            StoreForwardQueue(FakeStorage(), max_depth=0)

    def test_full_queue_refuses_the_newest(self):
        store = FakeStorage()
        queue = StoreForwardQueue(store, max_depth=2)
        queue.enqueue("a")
        queue.enqueue("b")
        with pytest.raises(RelayQueueFullError) as excinfo:
            queue.enqueue("c")
        assert excinfo.value.depth == 2
        # Fail-closed means deterministic: the accounted entries stay,
        # nothing was evicted and nothing partial hit storage.
        assert queue.names == ["relayq/00000000", "relayq/00000001"]
        assert len(store.blobs) == 2

    def test_rejection_preserves_fifo_drain(self):
        queue = StoreForwardQueue(FakeStorage(), max_depth=2)
        queue.enqueue("a")
        queue.enqueue("b")
        with pytest.raises(RelayQueueFullError):
            queue.enqueue("c")
        sent = []
        assert queue.drain(lambda p, m: sent.append(p)) == 2
        assert sent == ["a", "b"]

    def test_mid_drain_refailure_preserves_fifo(self):
        """The network dying again mid-drain must not reorder: the
        failed entry stays at the head and the next drain resumes there."""
        store = FakeStorage()
        queue = StoreForwardQueue(store)
        for payload in ("a", "b", "c"):
            queue.enqueue(payload)

        def dies_at_b(payload, meta):
            if payload == "b":
                raise RelayError("link died mid-drain")

        assert queue.drain(dies_at_b) == 1
        assert queue.names == ["relayq/00000001", "relayq/00000002"]
        sent = []
        assert queue.drain(lambda p, m: sent.append(p)) == 2
        assert sent == ["b", "c"]
        assert store.blobs == {}

    def test_corrupt_head_pins_the_queue(self):
        """An unsealable head entry stops the drain without being lost:
        it stays at depth (surfaced by the queue-depth SLO) and a later
        clean read drains it in order."""
        store = CorruptibleStorage()
        queue = StoreForwardQueue(store)
        first = queue.enqueue("a")
        queue.enqueue("b")
        store.corrupt.add(first)
        sent = []
        assert queue.drain(lambda p, m: sent.append(p)) == 0
        assert sent == []
        assert queue.names == [first, "relayq/00000001"]
        # Transient corruption clears: FIFO order still holds.
        store.corrupt.clear()
        assert queue.drain(lambda p, m: sent.append(p)) == 2
        assert sent == ["a", "b"]

    def test_drained_resends_dedup_idempotent_at_new_service(self):
        """A drained re-send carries the original dialog id and attempt
        count, so even a *re*-drained payload (reply lost after a first
        successful drain) commits exactly once at the ingestion tier."""
        service, _, _ = make_service(
            IngestionConfig(
                shards=1,
                tenant_queue_depth=100,
                bucket_capacity=100,
                refill_cycles_per_token=1,
                service_cycles_per_record=10**12,
            )
        )

        def resend(payload, meta):
            reply = send(
                service,
                payload,
                meta["dialog_id"],
                attempt=int(meta["attempts"]) + 1,
                device="dev-a",
            )
            if reply["directive"] == "Throttled":
                raise RelayThrottledError(
                    retry_after_cycles=reply["retryAfterCycles"], attempts=1
                )

        queue = StoreForwardQueue(FakeStorage())
        queue.enqueue("spilled", meta={"dialog_id": 11, "attempts": 2})
        assert queue.drain(resend) == 1
        # The drain's reply was lost: the payload spills and drains again.
        requeued = StoreForwardQueue(FakeStorage())
        requeued.enqueue("spilled", meta={"dialog_id": 11, "attempts": 3})
        assert requeued.drain(resend) == 1
        assert service.duplicates_suppressed == 1
        assert service.accepted == 1
        service.flush()
        assert service.received_transcripts == ["spilled"]
