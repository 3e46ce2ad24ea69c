"""Fault-tolerant relay: injection, retry/backoff, store-and-forward."""

import json

import pytest

from repro.core.pipeline import SecurePipeline
from repro.core.platform import IotPlatform
from repro.core.ta_filter import CMD_HEARTBEAT, CMD_STATS
from repro.errors import RelayError, TeeCommunicationError
from repro.optee.supplicant import NetworkService
from repro.relay.queue import StoreForwardQueue
from repro.relay.relay import RetryPolicy
from repro.sim.faults import FAULT_KINDS, FaultConfig, FaultInjector
from repro.sim.rng import SimRng
from tests.test_core_pipeline import MIXED, make_workload

# Both benign: they travel the full relay path.
BENIGN = [MIXED[0], MIXED[2]]


class EchoEndpoint:
    """A trivial endpoint recording what it was handed."""

    def __init__(self):
        self.received = []

    def receive(self, payload):
        self.received.append(bytes(payload))
        return b"ok:" + bytes(payload)


class ScriptedFaults:
    """FaultInjector stand-in replaying an exact fault sequence.

    Lets the retry tests force "fail once, then succeed" without relying
    on probabilities: the script is consumed one entry per send; an
    exhausted script means clean delivery.
    """

    def __init__(self, script):
        self.script = list(script)
        self.config = FaultConfig()
        self.counts = {kind: 0 for kind in FAULT_KINDS}
        self.sends_seen = 0

    def next_fault(self):
        self.sends_seen += 1
        fault = self.script.pop(0) if self.script else None
        if fault is not None:
            self.counts[fault] += 1
        return fault

    def corrupt(self, payload):
        out = bytearray(payload)
        out[0] ^= 0xFF
        return bytes(out)


class TestFaultConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(refuse_rate=1.5)
        with pytest.raises(ValueError):
            FaultConfig(drop_rate=-0.1)

    def test_enabled_property(self):
        assert not FaultConfig().enabled
        assert not FaultConfig.send_failure(0.0).enabled
        assert FaultConfig(latency_rate=0.2).enabled

    def test_send_failure_splits_budget(self):
        config = FaultConfig.send_failure(0.3)
        assert config.refuse_rate == pytest.approx(0.1)
        assert config.drop_rate == pytest.approx(0.1)
        assert config.corrupt_rate == pytest.approx(0.1)
        assert config.latency_rate == 0.0


class TestFaultInjection:
    """Each fault kind, exercised at the supplicant's NetworkService."""

    def make_net(self, machine, config, seed=5):
        net = NetworkService(machine)
        endpoint = EchoEndpoint()
        net.register_endpoint("h", 1, endpoint)
        net.set_fault_injector(FaultInjector(config, SimRng(seed, "net")))
        return net, endpoint

    def test_refuse_never_reaches_the_wire(self, machine):
        net, endpoint = self.make_net(machine, FaultConfig(refuse_rate=1.0))
        with pytest.raises(TeeCommunicationError, match="refused"):
            net.call("send", "h", 1, b"ciphertext")
        assert net.wire_log == []
        assert endpoint.received == []
        assert net.sends_failed == 1
        assert net.faults.counts["refuse"] == 1

    def test_drop_reaches_wire_but_not_endpoint(self, machine):
        """A dropped send is the eavesdropper's gain and the endpoint's
        loss: ciphertext on the wire, nothing delivered."""
        net, endpoint = self.make_net(machine, FaultConfig(drop_rate=1.0))
        with pytest.raises(TeeCommunicationError, match="timed out"):
            net.call("send", "h", 1, b"ciphertext")
        assert net.wire_log == [b"ciphertext"]
        assert endpoint.received == []

    def test_corrupt_flips_reply_bytes(self, machine):
        net, endpoint = self.make_net(machine, FaultConfig(corrupt_rate=1.0))
        reply = net.call("send", "h", 1, b"abc")
        clean = b"ok:abc"
        assert endpoint.received == [b"abc"]  # request arrived intact
        assert reply != clean
        assert len(reply) == len(clean)
        diffs = [i for i in range(len(clean)) if reply[i] != clean[i]]
        assert len(diffs) == 1
        assert reply[diffs[0]] == clean[diffs[0]] ^ 0xFF

    def test_latency_charges_cycles(self, machine):
        net, _ = self.make_net(
            machine,
            FaultConfig(latency_rate=1.0, latency_cycles=12_345),
        )
        before = machine.clock.now
        reply = net.call("send", "h", 1, b"abc")
        assert reply == b"ok:abc"  # delivery still succeeds
        assert machine.clock.now - before >= 12_345

    def test_at_most_one_fault_per_send(self, machine):
        """With every rate at 1.0 only the first kind in order fires."""
        net, _ = self.make_net(
            machine,
            FaultConfig(refuse_rate=1.0, drop_rate=1.0,
                        corrupt_rate=1.0, latency_rate=1.0),
        )
        for _ in range(3):
            with pytest.raises(TeeCommunicationError):
                net.call("send", "h", 1, b"x")
        assert net.faults.counts == {
            "refuse": 3, "drop": 0, "corrupt": 0, "latency": 0,
        }

    def test_fault_sequence_deterministic(self):
        config = FaultConfig.send_failure(0.5)
        seqs = []
        for _ in range(2):
            injector = FaultInjector(config, SimRng(7, "net"))
            seqs.append([injector.next_fault() for _ in range(50)])
        assert seqs[0] == seqs[1]
        assert any(f is not None for f in seqs[0])


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            backoff_base_cycles=100, backoff_multiplier=2.0,
            backoff_cap_cycles=500, jitter_fraction=0.0,
        )
        rng = SimRng(1, "backoff")
        delays = [policy.backoff_cycles(a, rng) for a in range(5)]
        assert delays == [100, 200, 400, 500, 500]

    def test_jitter_bounded(self):
        policy = RetryPolicy(backoff_base_cycles=1_000, jitter_fraction=0.25)
        rng = SimRng(2, "backoff")
        for _ in range(20):
            delay = policy.backoff_cycles(0, rng)
            assert 1_000 <= delay <= 1_250

    def test_max_attempts_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestRetryPath:
    """Transient faults are absorbed by retry + re-handshake."""

    def _pipeline(self, provisioned, seed):
        platform = IotPlatform.create(seed=seed)
        pipeline = SecurePipeline(platform, provisioned.bundle)
        return platform, pipeline

    def _relay_stats(self, pipeline):
        return pipeline.session.invoke(CMD_STATS)["relay"]

    def test_refuse_then_success(self, provisioned):
        platform, pipeline = self._pipeline(provisioned, seed=401)
        workload = make_workload(provisioned, BENIGN)
        first = pipeline.process_item(workload.items[0])  # clean send
        assert first.relay_status == "sent"
        assert first.relay_attempts == 1

        platform.supplicant.net.set_fault_injector(ScriptedFaults(["refuse"]))
        second = pipeline.process_item(workload.items[1])
        assert second.relay_status == "sent"
        assert second.relay_attempts == 2
        stats = self._relay_stats(pipeline)
        assert stats["retries"] == 1
        assert stats["rehandshakes"] == 1  # fresh handshake after the fault
        assert stats["backoff_cycles"] > 0
        assert platform.cloud.received_transcripts.count(second.payload) == 1

    def test_drop_then_success_delivers_exactly_once(self, provisioned):
        platform, pipeline = self._pipeline(provisioned, seed=402)
        workload = make_workload(provisioned, BENIGN)
        pipeline.process_item(workload.items[0])

        platform.supplicant.net.set_fault_injector(ScriptedFaults(["drop"]))
        result = pipeline.process_item(workload.items[1])
        assert result.relay_status == "sent"
        assert result.relay_attempts == 2
        assert platform.cloud.received_transcripts.count(result.payload) == 1
        assert platform.cloud.duplicates_suppressed == 0

    def test_corrupt_reply_retries_and_cloud_deduplicates(self, provisioned):
        """The first attempt *was* recorded by the cloud (only its reply
        was mangled), so the retry must be suppressed as a duplicate —
        at-least-once on the wire, exactly-once in the cloud's log."""
        platform, pipeline = self._pipeline(provisioned, seed=403)
        workload = make_workload(provisioned, BENIGN)
        pipeline.process_item(workload.items[0])

        platform.supplicant.net.set_fault_injector(ScriptedFaults(["corrupt"]))
        result = pipeline.process_item(workload.items[1])
        assert result.relay_status == "sent"
        assert result.relay_attempts == 2
        assert platform.cloud.received_transcripts.count(result.payload) == 1
        assert platform.cloud.duplicates_suppressed == 1

    def test_malformed_server_hello_costs_one_retry(self, provisioned):
        """A server hello without ``finished`` is a handshake failure the
        relay retries, not an exception that panics the TA."""

        class StripFinished(ScriptedFaults):
            def corrupt(self, payload):
                hello = json.loads(payload)
                del hello["finished"]
                return json.dumps(hello).encode()

        platform, pipeline = self._pipeline(provisioned, seed=405)
        workload = make_workload(provisioned, BENIGN[:1])
        platform.supplicant.net.set_fault_injector(StripFinished(["corrupt"]))
        result = pipeline.process_item(workload.items[0])
        metrics = platform.machine.obs.metrics
        assert metrics.counter("relay.retries").value == 1
        assert metrics.counter("tee.panics").value == 0
        assert result.relay_status == "sent"
        assert result.relay_attempts == 2
        assert platform.cloud.received_transcripts.count(result.payload) == 1

    @pytest.mark.parametrize("reply", [
        b"[]",
        b'{"directive": "Throttled", "retryAfterCycles": "soon"}',
        b'{"directive": "Throttled", "retryAfterCycles": null}',
    ], ids=["not-an-object", "retry-after-string", "retry-after-null"])
    def test_malformed_directive_spills_without_panic(self, provisioned,
                                                      reply):
        """A malformed directive from the untrusted cloud is a record
        error the relay retries; once the budget is spent the payload
        spills sealed into the queue, and the TA never panics."""
        platform, pipeline = self._pipeline(provisioned, seed=406)
        platform.cloud.tls.set_handler(lambda _: reply)
        workload = make_workload(provisioned, BENIGN[:1])
        try:
            run = pipeline.process(workload)
            stats = self._relay_stats(pipeline)
        finally:
            pipeline.close()
        metrics = platform.machine.obs.metrics
        assert [r.relay_status for r in run.results] == ["queued"]
        assert metrics.counter("tee.panics").value == 0
        assert metrics.counter("relay.failed").value == 1
        assert stats["queue_depth"] == 1

    def test_retry_events_traced(self, provisioned):
        platform, pipeline = self._pipeline(provisioned, seed=404)
        workload = make_workload(provisioned, BENIGN[:1])
        platform.supplicant.net.set_fault_injector(ScriptedFaults(["refuse"]))
        pipeline.process_item(workload.items[0])
        retries = [e for e in platform.machine.obs.tracer.spans_in("optee.ta")
                   if e.name == "relay_retry"]
        assert len(retries) == 1


class FakeStorage:
    """Dict-backed stand-in for SecureStorage (unit tests only)."""

    def __init__(self):
        self.blobs = {}

    def put(self, name, data):
        self.blobs[name] = bytes(data)

    def get(self, name):
        return self.blobs[name]

    def delete(self, name):
        del self.blobs[name]

    def names(self):
        return sorted(self.blobs)


class TestQueueUnit:
    def test_fifo_restore_and_seq_continuation(self):
        store = FakeStorage()
        queue = StoreForwardQueue(store)
        queue.enqueue("a", meta={"dialog_id": 1})
        queue.enqueue("b", meta={"dialog_id": 2})
        # A fresh instance (TA restart) restores the pending entries.
        restored = StoreForwardQueue(store)
        assert len(restored) == 2
        assert restored.names == queue.names
        sent = []
        delivered = restored.drain(
            lambda payload, meta: sent.append((payload, meta["dialog_id"]))
        )
        assert delivered == 2
        assert sent == [("a", 1), ("b", 2)]
        assert len(restored) == 0 and store.blobs == {}
        # Sequence numbers keep growing; names never collide.
        assert restored.enqueue("c") == "relayq/00000002"

    def test_drain_stops_at_first_failure(self):
        store = FakeStorage()
        queue = StoreForwardQueue(store)
        queue.enqueue("a")
        queue.enqueue("b")

        def flaky(payload, meta):
            if payload == "b":
                raise RelayError("link died again")

        assert queue.drain(flaky) == 1
        assert len(queue) == 1
        assert queue.names == ["relayq/00000001"]
        assert "relayq/00000001" in store.blobs  # undelivered entry kept


class TestStoreAndForward:
    """Retries exhausted: payloads spill sealed, drain on recovery."""

    def _outage(self, provisioned, seed, max_attempts=2):
        platform = IotPlatform.create(seed=seed)
        pipeline = SecurePipeline(
            platform, provisioned.bundle,
            retry_policy=RetryPolicy(max_attempts=max_attempts),
        )
        saved = dict(platform.supplicant.net._endpoints)
        platform.supplicant.net._endpoints.clear()
        return platform, pipeline, saved

    def test_exhausted_retries_spill_to_queue(self, provisioned):
        platform, pipeline, _ = self._outage(provisioned, seed=411)
        workload = make_workload(provisioned, BENIGN)
        result = pipeline.process_item(workload.items[0])
        assert result.forwarded
        assert result.relay_status == "queued"
        assert result.relay_attempts == 2
        stats = pipeline.session.invoke(CMD_STATS)["relay"]
        assert stats["queue_depth"] == 1
        assert stats["queued"] == 1
        assert stats["failed"] == 1
        # The sealed blob is visible to the (untrusted) supplicant fs.
        qfiles = [p for p in platform.supplicant.fs.files if "relayq/" in p]
        assert len(qfiles) == 1

    def test_queued_payload_sealed_never_plaintext(self, provisioned):
        """Security property: the store-and-forward queue must not hand
        the normal world anything it could read — neither in the
        supplicant's filesystem nor on the wire."""
        platform, pipeline, _ = self._outage(provisioned, seed=412)
        workload = make_workload(provisioned, BENIGN)
        result = pipeline.process_item(workload.items[0])
        assert result.relay_status == "queued"
        payload = result.payload.encode()
        for path, blob in platform.supplicant.fs.files.items():
            assert payload not in blob, f"plaintext payload leaked to {path}"
        for frame in platform.supplicant.net.wire_log:
            assert payload not in frame

    def test_queue_drains_after_next_successful_send(self, provisioned):
        platform, pipeline, saved = self._outage(provisioned, seed=413)
        workload = make_workload(provisioned, BENIGN)
        queued = pipeline.process_item(workload.items[0])
        assert queued.relay_status == "queued"
        # Link recovers; the next delivery flushes the backlog too.
        platform.supplicant.net._endpoints.update(saved)
        sent = pipeline.process_item(workload.items[1])
        assert sent.relay_status == "sent"
        stats = pipeline.session.invoke(CMD_STATS)["relay"]
        assert stats["queue_depth"] == 0
        assert stats["drained"] == 1
        received = platform.cloud.received_transcripts
        assert sorted(received) == sorted([queued.payload, sent.payload])
        assert not any(
            "relayq/" in p for p in platform.supplicant.fs.files
        )
        # The drained re-send advertises its full attempt history.
        drained_record = next(
            r for r in platform.cloud.received
            if r.transcript == queued.payload
        )
        assert drained_record.attempt == 3  # 2 failed attempts + this one

    def test_sent_decision_reports_its_own_attempts_after_drain(
        self, provisioned
    ):
        # The decision's own send succeeds on its first try; the drain's
        # re-send of the queued entry is then refused once over the lossy
        # link and goes through on its second try.  The decision took one
        # attempt, whatever its drain took.
        platform, pipeline, saved = self._outage(provisioned, seed=413)
        workload = make_workload(provisioned, BENIGN)
        assert pipeline.process_item(workload.items[0]).relay_status == "queued"
        platform.supplicant.net._endpoints.update(saved)
        # handshake, the decision's record, the drain's first record
        platform.supplicant.net.set_fault_injector(
            ScriptedFaults([None, None, "refuse"])
        )
        sent = pipeline.process_item(workload.items[1])
        assert sent.relay_status == "sent"
        assert sent.relay_attempts == 1
        stats = pipeline.session.invoke(CMD_STATS)["relay"]
        assert stats["drained"] == 1
        assert stats["retries"] == 2  # one in the outage, one in the drain

    def test_heartbeat_drains_queue(self, provisioned):
        platform, pipeline, saved = self._outage(provisioned, seed=414)
        workload = make_workload(provisioned, BENIGN[:1])
        assert pipeline.process_item(workload.items[0]).relay_status == "queued"
        platform.supplicant.net._endpoints.update(saved)
        directive = pipeline.session.invoke(CMD_HEARTBEAT)
        assert directive["directive"] == "Ack"
        stats = pipeline.session.invoke(CMD_STATS)["relay"]
        assert stats["queue_depth"] == 0
        assert stats["drained"] == 1

    def test_heartbeat_reports_unreachable_without_panicking(self, provisioned):
        platform, pipeline, _ = self._outage(provisioned, seed=415)
        directive = pipeline.session.invoke(CMD_HEARTBEAT)
        assert directive["directive"] == "error"
        assert directive["reason"] == "cloud unreachable"
        assert directive["attempts"] == 2
        # The session survives; a later heartbeat can still succeed.
        assert not pipeline.session.closed


class TestEndToEndUnderFaults:
    """The acceptance experiment: lossy network, zero lost decisions."""

    def test_thirty_percent_failure_no_lost_decisions(self, provisioned):
        platform = IotPlatform.create(
            seed=421, network_faults=FaultConfig.send_failure(0.3)
        )
        pipeline = SecurePipeline(platform, provisioned.bundle)
        workload = make_workload(provisioned, MIXED * 3)
        run = pipeline.process(workload)

        assert run.lost_count() == 0
        for result in run.results:
            if result.forwarded:
                assert result.relay_status in ("sent", "queued")
        assert platform.supplicant.net.faults.sends_seen > 0
        # Even injected faults never expose plaintext on the wire.
        for text, _ in MIXED:
            needle = text.encode()
            for frame in platform.supplicant.net.wire_log:
                assert needle not in frame

        # Recovery: faults lifted, one heartbeat flushes the backlog.
        platform.supplicant.net.set_fault_injector(None)
        pipeline.session.invoke(CMD_HEARTBEAT)
        stats = pipeline.session.invoke(CMD_STATS)["relay"]
        assert stats["queue_depth"] == 0
        # Every forwarded payload reached the cloud exactly once.
        expected = sorted(r.payload for r in run.results if r.forwarded)
        assert sorted(platform.cloud.received_transcripts) == expected

    def test_fault_run_reproducible(self, provisioned):
        def once():
            platform = IotPlatform.create(
                seed=422, network_faults=FaultConfig.send_failure(0.3)
            )
            pipeline = SecurePipeline(platform, provisioned.bundle)
            run = pipeline.process(make_workload(provisioned, MIXED))
            return (
                tuple((r.relay_status, r.relay_attempts) for r in run.results),
                platform.supplicant.net.faults.summary(),
                platform.machine.clock.now,
            )

        assert once() == once()

    def test_faults_disabled_matches_baseline(self, provisioned):
        """FaultConfig with all rates zero must be indistinguishable from
        no fault config at all — cycle for cycle."""

        def run_once(faults):
            platform = IotPlatform.create(seed=423, network_faults=faults)
            pipeline = SecurePipeline(platform, provisioned.bundle)
            run = pipeline.process(make_workload(provisioned, MIXED))
            return (
                [(r.transcript, r.forwarded, r.latency_cycles)
                 for r in run.results],
                run.stage_cycles,
                platform.machine.clock.now,
            )

        assert run_once(None) == run_once(FaultConfig.send_failure(0.0))
