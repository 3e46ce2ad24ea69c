"""Golden pins: the exported fleet and health artifacts, byte for byte.

Each fleet pin is the sha256 of one ``repro fleet`` artifact — the JSON
report, the merged OpenMetrics text, the correlated trace JSONL and the
Chrome trace — for two rosters that between them cover sampling, trace
collection, cloud overload, client crashes and a sharded merge.  The
health pin is the literal stdout of a chaos ``repro health`` run whose
seed injects a real TA restart.  The values were recorded from an
earlier implementation of the telemetry layer; a change that moves one
of them changed what an operator receives, so it must say so and
refresh the pin on purpose.
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
        dict(devices=4, seed=7, utterances=4, sample_rate="auto",
             collect_traces=True),
        {
            "doc": "19e3f5ae7decc48906788c686d1078704d98a45ff2069a180abb152ebd6bfb43",
            "openmetrics": "b60bb3c69913adbf78f1c7cee855351b044f8eb48e34be7b3d7e25fe8e01a0ad",
            "trace_jsonl": "6c8ee84cee6507178bfa3f168bf3ddfa6a04adeae69aed3567b2ff2e47d9bc19",
            "chrome": "9feda59f3a00da7d39aa693f08ff4d1848bc1f10ea2a9ba7ad5130bb35595afe",
        },
    ),
    (
        dict(devices=6, seed=7, utterances=6, overload=True,
             client_crashes=True, shards=2),
        {
            "doc": "bf8baf8a113ccb14264c4b1c18f693cf3f97edb77c1e2c6db5b97c90f1e51553",
            "openmetrics": "93a98009e21f6c759e8b10c145ba248ed469fba2e32becf29d3f4248a841d509",
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
recovery_time          1.69e+05       <= 1e+08       ok
shed_rate                     0         <= 0.5    gated
admission_latency       2.15e+03       <= 5e+04       ok
"""


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "kwargs, pins", FLEET_PINS, ids=["sampled-traced", "overload-crash-sharded"]
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
