"""Golden pins: the exported fleet and health artifacts, byte for byte.

Each fleet pin is the sha256 of one ``repro fleet`` artifact — the JSON
report, the merged OpenMetrics text, the correlated trace JSONL and the
Chrome trace — for two rosters that between them cover trace
collection, cloud overload and client crashes.  The health pin is the
literal stdout of a chaos ``repro health`` run whose seed injects a real
TA restart.  The values were recorded from an earlier implementation of
the telemetry layer; a change that moves one of them changed what an
operator receives, so it must say so and refresh the pin on purpose.
The two OpenMetrics digests were refreshed when the supplicant RPC's
fixed overhead moved inside its ``rpc`` span: each
``repro_rpc_*_cycles`` histogram's sum grew by 18,000 cycles per RPC and
its bucket bounds moved with it; no other line changed.  The ``doc`` and
``openmetrics`` digests were refreshed when energy came to be priced
from the clock's per-domain totals: only energy floats moved, in their
last digits (device and fleet ``energy_mj`` and ``battery_days``, span
``energy_mj``, ``repro_fleet_e2e_energy_mj_sum``).  When trace ids came
to stay on the device, the ``traced`` roster's ``doc`` and
``openmetrics`` became exactly those of the same roster run without
traces before (no ``traceId`` bytes on its wire any more), and its two
trace exports moved with the spans' cycles and the ``relay`` spans' new
``dialog_id``; the ``overload-crash`` roster's ``doc`` and
``openmetrics`` and the chaos health stdout moved with the bytes of the
sealed checkpoint's ``utt_seq`` alone.
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.obs.export import (
    fleet_chrome_trace,
    fleet_trace_jsonl,
    to_openmetrics,
)
from repro.obs.fleet import run_fleet

FLEET_PINS = [
    (
        dict(devices=4, seed=7, utterances=4, collect_traces=True),
        {
            "doc": "d233b92fa713d21600dc707adf01f78c5542981ed4a4c26dd12b55bcea80decb",
            "openmetrics": "8c7fbdc1e6a707ebd0422f6d5aa3755e090c9882ba4ffa422a44fdf2d7eeb92a",
            "trace_jsonl": "a6ad8330eac379f5859103c8779d9a660df84cd078f92e07e0a36e9f615a95ee",
            "chrome": "2d1722aec58003969f72bdf42e72420d0c184694b00c6cd8f3e6db12ee22d012",
        },
    ),
    (
        dict(devices=6, seed=7, utterances=6, overload=True,
             client_crashes=True),
        {
            "doc": "aadf63115254851e99baf6da599755f2dd3571b3e66286588342051a07a7e580",
            "openmetrics": "e6236a62f9c49f26e5d8bb8ff5c7d1a1ce7695afc66ece96e273d4338d972fea",
            # No traces collected: the empty string's digest.
            "trace_jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "chrome": "e45dbff716b0cf2542fd742ba6a21435a10ee3bd6170bb38179a772b4d7b4821",
        },
    ),
]

HEALTH_CHAOS_STDOUT = """\
device health (seed 17, clean network, chaos secure faults, 8 utterances)
rule                      value         budget   status
p99_latency            5.72e+08       <= 2e+09       ok
relay_success                 1         >= 0.9       ok
queue_depth                   0           <= 4       ok
battery_drain              17.7       <= 2e+03       ok
recovery_time           1.7e+05       <= 1e+08       ok
shed_rate                     0         <= 0.5    gated
admission_latency       2.15e+03       <= 5e+04       ok
"""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "kwargs, pins", FLEET_PINS, ids=["traced", "overload-crash"]
)
def test_fleet_artifacts_pinned(provisioned, kwargs, pins):
    report = run_fleet(bundle=provisioned.bundle, **kwargs)
    assert {
        "doc": _sha256(json.dumps(report.to_doc(), sort_keys=True)),
        "openmetrics": _sha256(to_openmetrics(report.merged_registry())),
        "trace_jsonl": _sha256(fleet_trace_jsonl(report)),
        "chrome": _sha256(fleet_chrome_trace(report)),
    } == pins


def test_health_chaos_stdout_pinned(capsys):
    assert main(["health", "--chaos", "--seed", "17", "--utterances", "8",
                 "--dump", ""]) == 0
    assert capsys.readouterr().out == HEALTH_CHAOS_STDOUT
