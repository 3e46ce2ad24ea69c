"""Byte pins for the health-alert relay path.

Health alerts leave the device through the same relay as decisions, so
their bytes are pinned the same way decision bytes are: the sha256 of
the AVS event encodings, the TA's outcome dict and ``tee.alerts_*``
counters for a delivered and for a spilled-then-drained alert, the
sha256 of every wire frame, and the literal stdout of a failing
``repro health`` run that routes its alert.  The values were recorded
from the implementation that still carried a separate alert relay; a
change that moves one of them changed what leaves the device.  The two
wire digests were re-recorded when every simulated cloud took the one
fleet identity key (:func:`repro.cloud.service.avs_identity`): the
handshake's key schedule, and so every ciphertext and MAC byte, changed;
no frame count, outcome or counter did.  They were re-recorded again
when trace ids came to stay on the device: the alert document lost its
``flight_recorder`` field (and its ``trace_id``, absent here), which the
same code reproduces the old digests with, and the events lost their
``traceId`` variant; the ``all`` variant pins the remaining optional
fields, whose encoding did not change.  The health stdout gained the
``offending trace:`` line, now that every utterance carries an id.
"""

import hashlib

import pytest

from repro.cli import main
from repro.core.pipeline import SecurePipeline
from repro.core.platform import IotPlatform
from repro.core.workload import UtteranceWorkload
from repro.ml.dataset import UtteranceGenerator
from repro.obs.health import HealthMonitor, SloRule
from repro.obs.metrics import MetricsRegistry
from repro.relay.alerts import route_health_alert
from repro.relay.avs import AvsEvent
from repro.sim.faults import FaultConfig
from repro.sim.rng import SimRng

# variant → (kwargs, sha256 of the Recognize bytes, of the Alert bytes)
EVENT_PINS = {
    "plain": (
        {},
        "6683e19de1c05a3758e433ed193dcebb4efa7611fc45d6ec872d235299637074",
        "2b627800c5d76a7f518cb8272ecfb5c8abc19de378eaa483f86bb06f64879028",
    ),
    "attempt": (
        {"attempt": 2},
        "5666922be2c7f7a36e9b4bf1fff0a43203d3d2120f13039b19b62fe8acc342c4",
        "e0009e312e9b572ffcb202d935cfb286123564fe00e68a94451c2a9b7786afe6",
    ),
    "device": (
        {"device_id": "d01"},
        "b24314351685837ae8c364581138638161d01c0753694c2a24d7970a5b7653ba",
        "cb8fce169a79a310944f879d7ac8bd721206835f16b4c3e34297e670fd6ea365",
    ),
    "all": (
        {"attempt": 2, "device_id": "d01"},
        "ae80db3ca51d8ddd1428ececced298521695efdef9ef1a8ed2ab7eefad9188a9",
        "328585c15823aaadab054530ef1795dc2683146146da638fafdb96dc951cd00b",
    ),
}

HEALTH_ALERT_STDOUT = """\
device health (seed 17, clean network, none secure faults, 3 utterances)
rule                      value         budget   status
p99_latency            4.78e+08       <= 2e+06 VIOLATED
relay_success                 1         >= 0.9       ok
queue_depth                   0           <= 4       ok
battery_drain              14.6       <= 2e+03       ok
recovery_time                 0       <= 1e+08    gated
shed_rate                     0         <= 0.5    gated
admission_latency       2.15e+03       <= 5e+04       ok
offending trace: health/u00003

flight recorder: 39 spans captured
alert routed through relay: sent (attempts 1)
"""

# sha256 of no frames at all: a refused link never reaches the wire.
_EMPTY_SHA = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _wire_sha(platform) -> str:
    """sha256 over every wire frame, each prefixed with its length."""
    h = hashlib.sha256()
    for frame in platform.supplicant.net.wire_log:
        h.update(len(frame).to_bytes(4, "big"))
        h.update(frame)
    return h.hexdigest()


def _alert_counters(platform) -> dict[str, int]:
    counters = platform.machine.obs.metrics.counters()
    return {k: v for k, v in counters.items() if k.startswith("tee.alerts_")}


def _failing_report():
    reg = MetricsRegistry()
    reg.inc("errors", 9)
    rules = [SloRule("errs", metric="errors", op="<=", threshold=1)]
    return HealthMonitor(reg, rules).evaluate()


class TestEventBytes:
    @pytest.mark.parametrize("variant", sorted(EVENT_PINS))
    def test_recognize_bytes_pinned(self, variant):
        kwargs, want, _ = EVENT_PINS[variant]
        event = AvsEvent.recognize("turn on the lights", 7, **kwargs)
        assert _sha256(event.to_bytes()) == want

    @pytest.mark.parametrize("variant", sorted(EVENT_PINS))
    def test_alert_bytes_pinned(self, variant):
        kwargs, _, want = EVENT_PINS[variant]
        event = AvsEvent.of_kind(
            "alert", '{"kind": "health_alert"}', 7, **kwargs
        )
        assert _sha256(event.to_bytes()) == want


class TestAlertRouting:
    def test_sent_alert_pinned(self, provisioned):
        platform = IotPlatform.create(seed=311)
        pipeline = SecurePipeline(platform, provisioned.bundle)
        try:
            outcome = route_health_alert(
                platform, pipeline.ta_uuid, _failing_report(),
                device_id="dut",
            )
        finally:
            pipeline.close()
        assert outcome == {
            "status": "sent",
            "directive": {"directive": "AlertAck"},
            "attempts": 1,
        }
        assert _alert_counters(platform) == {"tee.alerts_sent": 1}
        assert len(platform.supplicant.net.wire_log) == 2
        assert _wire_sha(platform) == (
            "57f5150af750c002149e1a3ee54a144c880485f3fe5934b29198b636452fe643"
        )
        assert [a["device"] for a in platform.cloud.alerts] == ["dut"]

    def test_queued_alert_drains_pinned(self, provisioned):
        platform = IotPlatform.create(
            seed=311, network_faults=FaultConfig(refuse_rate=1.0)
        )
        pipeline = SecurePipeline(platform, provisioned.bundle)
        try:
            outcome = route_health_alert(
                platform, pipeline.ta_uuid, _failing_report(),
                device_id="dut",
            )
            assert outcome == {
                "status": "queued",
                "entry": "relayq/00000000",
                "attempts": 4,
            }
            assert _alert_counters(platform) == {"tee.alerts_queued": 1}
            assert _wire_sha(platform) == _EMPTY_SHA
            # The spill is logged like a decision's, tagged with its kind.
            spills = [
                (e.name, dict(e.attrs))
                for e in platform.machine.obs.tracer.spans_in("optee.ta")
                if e.name.startswith(("relay_queued", "alert_"))
            ]
            assert spills == [("relay_queued", {
                "entry": "relayq/00000000", "depth": 1, "status": "queued",
                "kind": "alert",
            })]
            # The link heals; the first forwarded decision drains the
            # sealed alert ahead of the second one.
            platform.supplicant.net.set_fault_injector(None)
            corpus = UtteranceGenerator(SimRng(311, "chaos-test")).generate(
                2, sensitive_fraction=0.0
            )
            run = pipeline.process(
                UtteranceWorkload.from_corpus(corpus, provisioned.bundle.vocoder)
            )
        finally:
            pipeline.close()
        assert [r.relay_status for r in run.results] == ["sent", "sent"]
        assert _alert_counters(platform) == {"tee.alerts_queued": 1}
        assert len(platform.supplicant.net.wire_log) == 4
        assert _wire_sha(platform) == (
            "c684a3aef3e86fb933a63645b42e06ff5b898f5802fa84dcee9e05a4b910d146"
        )
        assert [a["device"] for a in platform.cloud.alerts] == ["dut"]


def test_health_cli_routes_alert_stdout_pinned(capsys):
    assert main(["health", "--seed", "17", "--utterances", "3",
                 "--dump", "", "--latency-budget-ms", "1"]) == 1
    assert capsys.readouterr().out == HEALTH_ALERT_STDOUT
