"""Smoke test of the end-to-end benchmark on tiny rosters.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.e2e import workloads
from benchmarks.e2e.layers import (
    FOLD,
    LAYER_TABLE,
    LayerTableError,
    LayerTracer,
)
from benchmarks.e2e.runner import run_workload
from repro.sim.clock import CycleDomain, SimClock

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)

TINY = {
    "steady": lambda seed: workloads.steady(seed, devices=1, utterances=3),
    "onboard": lambda seed: workloads.onboard(seed, devices=2),
    "degraded": lambda seed: workloads.degraded(seed, devices=2, utterances=4),
}


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_workloads_match_benchmark_json():
    declared = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(workloads.WORKLOADS) == declared


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_traced_run(name):
    doc, tracer = run_workload(
        TINY[name](7), seed=7, seconds=0, trace=True, setup_repeats=1
    )
    assert doc["correct"], doc["violations"]
    assert doc["traced_digest"] == doc["digest"]
    emitted = {k: m["unit"] for k, m in doc["metrics"].items()}
    assert emitted == _declared("end_to_end")
    layers = {k: m["unit"] for k, m in doc["layers"].items()}
    assert layers == _declared("per_layer")
    utterances = [s for s in tracer.spans if s["name"] == "core.process_item"]
    assert len(utterances) == doc["metrics"]["accuracy"]["n"]
    assert all(s["end_ns"] >= s["start_ns"] for s in tracer.spans)


def test_drift_guard_names_the_missing_entry():
    bogus = ("sim.clock_rewind", "repro.sim.clock.SimClock.rewind", FOLD)
    with pytest.raises(LayerTableError) as err:
        LayerTracer(LAYER_TABLE + (bogus,))
    assert err.value.missing == [
        "sim.clock_rewind=repro.sim.clock.SimClock.rewind"
    ]


def test_tracer_restores_the_program():
    original = SimClock.__dict__["advance"]
    tracer = LayerTracer()
    with tracer.installed():
        assert SimClock.__dict__["advance"] is not original
        SimClock().advance(5, CycleDomain.SECURE_CPU)
    assert SimClock.__dict__["advance"] is original
    assert tracer.stats["sim.clock_advance"][0] == 1
