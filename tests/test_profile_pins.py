"""Exact pins: the committed per-stage cost profiles.

``benchmarks/baselines/profile_baseline.json`` (batch, 4 utterances) and
``profile_baseline_continuous.json`` (continuous capture, 8 utterances)
hold the per-stage cycles, world switches and energy of the secure and
the baseline pipeline, the costs the paper's argument for TEE-isolated
drivers rests on.  The simulator is deterministic, so each document is
measured again with its own ``seed``, ``utterances`` and ``mode`` and
must equal the committed one exactly.  The pin is two-sided: a stage
that got cheaper moved too.  On failure the message names each moved
value as ``pipeline/stage metric: pinned → got``.

After moving cycles or energy on purpose, refresh both documents::

    PYTHONPATH=src python -m repro.cli profile --seed 7 --utterances 4 \\
        --output benchmarks/baselines/profile_baseline.json
    PYTHONPATH=src python -m repro.cli profile --seed 7 --utterances 8 \\
        --continuous \\
        --output benchmarks/baselines/profile_baseline_continuous.json
"""

import json
import pathlib

import pytest

from repro.obs.profile import collect_profile
from repro.provision import provision_bundle
from repro.tz.costs import CostModel

BASELINES = (
    pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"
)
DOCUMENTS = ("profile_baseline.json", "profile_baseline_continuous.json")


@pytest.fixture(scope="module")
def bundle():
    """The bundle ``repro profile --seed 7`` provisions, trained once."""
    return provision_bundle(seed=7).bundle


@pytest.fixture(scope="module")
def measure(bundle):
    """``measure(name)``: the committed document ``name`` and the same
    profile measured again, each measured once per module."""
    measured = {}

    def run(name):
        if name not in measured:
            pinned = json.loads((BASELINES / name).read_text())
            assert pinned["seed"] == 7, (
                "the shared bundle is provisioned from seed 7"
            )
            measured[name] = pinned, collect_profile(
                seed=pinned["seed"],
                utterances=pinned["utterances"],
                bundle=bundle,
                continuous=pinned["mode"] == "continuous",
            ).to_doc()
        return measured[name]

    return run


def moved_values(pinned: dict, got: dict) -> list[str]:
    """One ``pipeline/stage metric: pinned → got`` line per moved value."""

    def scopes(doc):
        stages = {f"{r['pipeline']}/{r['stage']}": r for r in doc["stages"]}
        return stages, doc["pipelines"]

    lines = []
    for pinned_scope, got_scope in zip(scopes(pinned), scopes(got)):
        for where in sorted(pinned_scope.keys() | got_scope.keys()):
            if where not in pinned_scope:
                lines.append(f"{where}: new")
                continue
            if where not in got_scope:
                lines.append(f"{where}: gone")
                continue
            before, after = pinned_scope[where], got_scope[where]
            for metric in sorted(before.keys() | after.keys()):
                old = before.get(metric, "absent")
                new = after.get(metric, "absent")
                if old != new:
                    lines.append(f"{where} {metric}: {old} → {new}")
    if not lines and pinned != got:
        order = [list(scopes(doc)[0]) for doc in (pinned, got)]
        lines.append(f"stage order: {order[0]} → {order[1]}")
    return lines


@pytest.mark.parametrize("name", DOCUMENTS)
def test_profile_matches_committed_document(name, measure):
    pinned, got = measure(name)
    moved = moved_values(pinned, got)
    assert got == pinned, f"{name}: {len(moved)} moved\n" + "\n".join(moved)


@pytest.mark.parametrize("name", DOCUMENTS)
def test_rpc_row_holds_the_rpc_overhead(name, measure):
    """Each supplicant RPC's fixed overhead is charged inside its ``rpc``
    span, so the pseudo-stage carries at least that much per RPC."""
    _, got = measure(name)
    (row,) = [
        r for r in got["stages"]
        if (r["pipeline"], r["stage"]) == ("secure", "supplicant_rpc")
    ]
    assert row["count"] > 0
    assert row["total_cycles"] >= (
        row["count"] * CostModel().supplicant_rpc_cycles
    )


def test_moved_values_names_each_change():
    pinned = {
        "stages": [
            {"pipeline": "secure", "stage": "asr", "total_cycles": 100},
            {"pipeline": "secure", "stage": "relay", "total_cycles": 50},
        ],
        "pipelines": {"secure": {"energy_mj": 1.5, "world_switches": 4}},
    }
    got = {
        "stages": [
            {"pipeline": "secure", "stage": "asr", "total_cycles": 90},
            {"pipeline": "secure", "stage": "vad", "total_cycles": 7},
        ],
        "pipelines": {"secure": {"energy_mj": 1.5, "world_switches": 5}},
    }
    assert moved_values(pinned, got) == [
        "secure/asr total_cycles: 100 → 90",
        "secure/relay: gone",
        "secure/vad: new",
        "secure world_switches: 4 → 5",
    ]
    reordered = {**pinned, "stages": pinned["stages"][::-1]}
    assert moved_values(pinned, reordered) == [
        "stage order: ['secure/asr', 'secure/relay'] → "
        "['secure/relay', 'secure/asr']"
    ]
