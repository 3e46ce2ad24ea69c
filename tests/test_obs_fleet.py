"""Unit + acceptance tests: fleet simulation and merged telemetry.

The acceptance path: merged fleet quantiles equal the concatenated
per-device streams' within one bucket's relative error.  That
instrumentation leaves decisions byte-identical is proved on the
platform in ``test_obs_determinism``.
"""

import json
import math

import pytest

from repro.obs.fleet import FAULT_PROFILES, device_specs, run_fleet


def device_stream(device) -> list[float]:
    """A device's latency stream, read from its registry histogram.

    Cross-checked against the run summary, so a stream that dropped or
    invented an utterance fails here rather than passing the merge math.
    """
    doc = device.latency_hist.to_doc()
    assert doc["count"] == device.summary["utterances"]
    assert doc["total"] == device.summary["total_latency_cycles"]
    assert doc["samples"] is not None, "unsampled device keeps raw samples"
    return doc["samples"]


@pytest.fixture(scope="module")
def fleet(provisioned):
    """One small fleet covering every fault profile (shared: ~seconds)."""
    return run_fleet(devices=4, seed=7, utterances=2,
                     bundle=provisioned.bundle)


class TestDeviceSpecs:
    def test_roster_is_deterministic_and_varied(self):
        a = device_specs(8, seed=7)
        b = device_specs(8, seed=7)
        assert a == b
        assert len({s.seed for s in a}) == 8
        assert {s.fault_profile for s in a} == set(FAULT_PROFILES)
        assert all(s.seed >= 7 + 1000 for s in a)

    def test_workload_sizes_rotate(self):
        sizes = {s.utterances for s in device_specs(6, utterances=4)}
        assert sizes == {4, 5, 6}

    def test_empty_fleet_rejected(self):
        with pytest.raises(ValueError):
            device_specs(0)


class TestDeviceReport:
    def test_relay_conservation_and_registry(self, fleet):
        for d in fleet.devices:
            assert d.summary["sent"] + d.summary["queued"] == (
                d.summary["forwarded"]
            )
            reg = d.registry
            utterances = d.summary["utterances"]
            assert reg.counter("fleet.utterances").value == utterances
            assert d.latency_hist is reg.histogram("fleet.e2e_latency_cycles")
            assert d.latency_hist.count == utterances
            assert 0.0 <= d.relay_success_rate <= 1.0

    def test_doc_row_is_json_ready(self, fleet):
        doc = fleet.devices[0].to_doc()
        json.dumps(doc)
        assert "machine" not in doc
        assert doc["device"] == "d00"


class TestFleetMerge:
    def test_merged_quantiles_match_concatenated_stream(self, fleet):
        merged = fleet.latency_hist
        concat = sorted(
            lat for d in fleet.devices for lat in device_stream(d)
        )
        assert merged.count == len(concat)
        assert merged.min == concat[0] and merged.max == concat[-1]
        assert merged.total == sum(concat)
        for q in (0.5, 0.95, 0.99):
            estimate = merged.quantile(q)
            if merged.exact:
                # Under the cap the merge kept every sample: the merged
                # quantile IS the concatenated stream's (interpolated).
                rank = q * (len(concat) - 1)
                lo = int(rank)
                hi = min(lo + 1, len(concat) - 1)
                frac = rank - lo
                expected = concat[lo] * (1.0 - frac) + concat[hi] * frac
                assert estimate == expected, (q, expected, estimate)
            else:
                # Bucket mode: nearest-rank exact bracketed within one
                # bucket's relative error.
                rank = max(1, math.ceil(q * len(concat)))
                exact = concat[rank - 1]
                assert exact <= estimate * (1 + 1e-12), (q, exact, estimate)
                assert estimate <= exact * merged.gamma * (1 + 1e-12), (
                    q, exact, estimate,
                )

    def test_overflowed_merge_still_brackets(self, fleet):
        # Force bucket mode by merging into a zero-cap histogram so the
        # one-bucket-error guarantee is exercised on real fleet data.
        from repro.obs.metrics import BucketHistogram

        tight = BucketHistogram("fleet.e2e_latency_cycles", max_samples=0)
        merged = tight
        for d in fleet.devices:
            merged = merged.merge(d.latency_hist)
        assert not merged.exact
        concat = sorted(
            lat for d in fleet.devices for lat in device_stream(d)
        )
        for q in (0.5, 0.95, 0.99):
            rank = max(1, math.ceil(q * len(concat)))
            exact = concat[rank - 1]
            estimate = merged.quantile(q)
            assert exact <= estimate * (1 + 1e-12), (q, exact, estimate)
            assert estimate <= exact * merged.gamma * (1 + 1e-12), (
                q, exact, estimate,
            )

    def test_merged_registry_sums_devices(self, fleet):
        reg = fleet.merged_registry()
        for name in ("fleet.utterances", "fleet.relay.sent",
                     "fleet.relay.forwarded"):
            assert reg.counter(name).value == sum(
                d.registry.counter(name).value for d in fleet.devices
            )

    def test_report_doc_shape(self, fleet):
        doc = fleet.to_doc()
        assert len(doc["devices"]) == 4
        f = doc["fleet"]
        assert f["latency_p50_cycles"] <= f["latency_p95_cycles"] <= (
            f["latency_p99_cycles"]
        )
        assert f["latency_hist"]["count"] == f["utterances"]
        json.dumps(doc)

    def test_table_has_per_device_rows_and_fleet_line(self, fleet):
        table = fleet.table()
        for d in fleet.devices:
            assert d.spec.device_id in table
        assert "relay success" in table
        assert "p99" in table


class TestAcceptanceDeterminism:
    """The same roster and seed always produce the same fleet report."""

    def test_fleet_runs_are_reproducible(self, fleet, provisioned):
        again = run_fleet(devices=4, seed=7, utterances=2,
                          bundle=provisioned.bundle)
        assert json.dumps(again.to_doc(), sort_keys=True) == json.dumps(
            fleet.to_doc(), sort_keys=True
        )
