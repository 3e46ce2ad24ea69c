"""Golden pins: the exported fleet and health artifacts, byte for byte.

Each fleet pin is the sha256 of one ``repro fleet`` artifact — the JSON
report, the merged OpenMetrics text, the correlated trace JSONL and the
Chrome trace — for two rosters that between them cover sampling, trace
collection, cloud overload, client crashes and a sharded merge.  The
health pin is the literal stdout of a chaos ``repro health`` run whose
seed injects a real TA restart.  The values were recorded from an
earlier implementation of the telemetry layer; a change that moves one
of them changed what an operator receives, so it must say so and
refresh the pin on purpose.  The two OpenMetrics digests were refreshed
when the supplicant RPC's fixed overhead moved inside its ``rpc`` span:
each ``repro_rpc_*_cycles`` histogram's sum grew by 18,000 cycles per
RPC and its bucket bounds moved with it; no other line changed.  The
``doc`` and ``openmetrics`` digests of both rosters and the sampled
roster's ``trace_jsonl`` were refreshed when energy came to be priced
from the clock's per-domain totals: only energy floats moved, in their
last digits (device and fleet ``energy_mj`` and ``battery_days``, span
``energy_mj``, ``repro_fleet_e2e_energy_mj_sum``).
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
            "doc": "cd48cef09b9af4ba4e1a13c6269464a7b72a082829b930fff238d56bfea10097",
            "openmetrics": "9119e5d984ac1e43e77dab06276141637cb4e63890fd42b51fb5fc591b529b31",
            "trace_jsonl": "0477735b41950736f6a08ee26bdc42b37e77305905dd30f44c4ade5979728d6e",
            "chrome": "9feda59f3a00da7d39aa693f08ff4d1848bc1f10ea2a9ba7ad5130bb35595afe",
        },
    ),
    (
        dict(devices=6, seed=7, utterances=6, overload=True,
             client_crashes=True, shards=2),
        {
            "doc": "dcfadef71722d91f48e4ae247a8e1d301dbad40adf78a78051925f92fc16d5d4",
            "openmetrics": "292a752a5a8ffc2d8531ea03a5fde115cc6ae27e556998cd6799e42fed4dca5f",
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
