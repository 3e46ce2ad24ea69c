"""Burn-rate SLOs, snapshot rings and weighted adaptive sampling.

The three data-model contracts behind ``repro health --burn-rate`` and
``repro fleet --sample-rate``:

* the registry's snapshot ring — cumulative ``fleet.*`` state per cycle
  stamp — survives the pickled shard hop and merges associatively and
  commutatively, so a sharded fleet's burn rates are byte-identical to
  the sequential run's;
* multi-window burn-rate evaluation: bad-event extraction per rule
  shape, window selection, the firing conjunction (fast AND slow), and
  the NO-DATA verdict on unusable windows;
* systematic 1-in-k sampling with weight ``k``: an exact weighting law
  (the weighted histogram equals the unsampled histogram of the kept
  subsequence scaled by ``k``), ``k=1`` as a byte-identity, and the
  rank-window unbiasedness bound for merged weighted quantiles.
"""

import json
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.health import (
    FAST_WINDOW_DIVISOR,
    SloRule,
    default_slo_rules,
    evaluate_burn_rates,
)
from repro.obs.metrics import (
    BucketHistogram,
    MetricsRegistry,
    merge_snapshot_rings,
)

FREQ = 1.0e9  # 1 GHz keeps cycle<->second arithmetic readable


def ring_doc(registry: MetricsRegistry) -> str:
    return json.dumps(
        [s.to_doc() for s in registry.snapshots], sort_keys=True
    )


class TestSnapshotRing:
    def test_snapshot_captures_prefixed_metrics_only(self):
        reg = MetricsRegistry()
        reg.inc("fleet.utterances", 2)
        reg.observe("fleet.e2e_latency_cycles", 100.0)
        reg.inc("pipeline.stage.calls", 9)  # not a snapshot prefix
        reg.inc("tee.checkpoints", 6)  # recorded live, not replayed
        reg.observe("tee.recovery_cycles", 5.0)
        reg.record_snapshot(1000)
        (snap,) = reg.snapshots
        assert snap.cycle == 1000
        assert snap.counters == {"fleet.utterances": 2}
        assert set(snap.hists) == {"fleet.e2e_latency_cycles"}

    def test_doc_round_trip(self):
        reg = MetricsRegistry()
        reg.inc("fleet.utterances", 3)
        reg.observe("fleet.restart_cycles", 5.0)
        reg.record_snapshot(77)
        (snap,) = reg.snapshots
        doc = snap.to_doc()
        # JSON-ready: bucket indices are string keys, so the document
        # survives JSON unchanged.
        assert json.loads(json.dumps(doc)) == doc
        assert doc["counters"] == {"fleet.utterances": 3}
        assert doc["hists"]["fleet.restart_cycles"]["count"] == 1

    def test_delta_is_pointwise_and_clamped(self):
        reg = MetricsRegistry()
        reg.inc("fleet.relay.sent", 4)
        reg.record_snapshot(10)
        reg.inc("fleet.relay.sent", 5)
        reg.record_snapshot(20)
        older, newer = reg.snapshots
        delta = newer.delta(older)
        assert delta.counters["fleet.relay.sent"] == 5
        # Reversed order clamps at zero instead of going negative.
        assert older.delta(newer).counters["fleet.relay.sent"] == 0

    def test_quiet_metric_reads_zero_delta_not_missing(self):
        reg = MetricsRegistry()
        reg.inc("fleet.relay.queued", 0)
        reg.record_snapshot(10)
        reg.record_snapshot(20)
        older, newer = reg.snapshots
        assert newer.delta(older).counters["fleet.relay.queued"] == 0

    def test_ring_trimmed_to_capacity(self):
        reg = MetricsRegistry(snapshot_capacity=3)
        reg.inc("fleet.utterances", 1)
        for cycle in range(1, 6):
            reg.record_snapshot(cycle)
        assert [s.cycle for s in reg.snapshots] == [3, 4, 5]

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry()
        reg.enabled = False
        reg.inc("fleet.utterances", 1)
        reg.record_snapshot(10)
        assert reg.snapshots == []

    def test_registry_doc_round_trip_carries_ring(self):
        reg = MetricsRegistry()
        reg.inc("fleet.utterances", 1)
        reg.record_snapshot(5)
        assert reg.to_doc()["snapshots"] == [
            s.to_doc() for s in reg.snapshots
        ]
        # Shard workers ship registries pickled; the ring rides along.
        back = pickle.loads(pickle.dumps(reg))
        assert ring_doc(back) == ring_doc(reg)


def _device_registry(sent: list[int], stamp_step: int) -> MetricsRegistry:
    """A registry whose ring records one snapshot per entry of ``sent``."""
    reg = MetricsRegistry()
    cycle = 0
    for n in sent:
        reg.inc("fleet.relay.forwarded", 1)
        reg.inc("fleet.relay.sent", n)
        cycle += stamp_step
        reg.record_snapshot(cycle)
    return reg


class TestRingMerge:
    def test_merge_is_commutative(self):
        a = _device_registry([1, 1, 0], 100)
        b = _device_registry([0, 1], 150)
        ab = merge_snapshot_rings(a.snapshots, b.snapshots)
        ba = merge_snapshot_rings(b.snapshots, a.snapshots)
        assert [s.to_doc() for s in ab] == [s.to_doc() for s in ba]

    def test_merge_is_associative(self):
        a = _device_registry([1, 0, 1, 1], 100)
        b = _device_registry([1], 250)
        c = _device_registry([0, 1], 90)
        left = merge_snapshot_rings(merge_snapshot_rings(a.snapshots,
                                                         b.snapshots),
                                    c.snapshots)
        right = merge_snapshot_rings(a.snapshots,
                                     merge_snapshot_rings(b.snapshots,
                                                          c.snapshots))
        assert [s.to_doc() for s in left] == [s.to_doc() for s in right]

    def test_shorter_ring_pads_with_its_last_snapshot(self):
        a = _device_registry([1, 1, 1], 100)
        b = _device_registry([2], 100)
        merged = merge_snapshot_rings(a.snapshots, b.snapshots)
        assert len(merged) == 3
        # b's final (only) cumulative state rides along in every later
        # index — a finished device keeps contributing its totals.
        assert [s.counters["fleet.relay.sent"] for s in merged] == [3, 4, 5]

    def test_registry_merge_merges_rings(self):
        a = _device_registry([1, 1], 100)
        b = _device_registry([1, 0], 100)
        a.merge(b)
        assert [s.counters["fleet.relay.sent"] for s in a.snapshots] == [2, 3]


def _ratio_rule(budget: float = 60.0) -> SloRule:
    return SloRule(
        name="relay_success", metric="fleet.relay.sent", op=">=",
        threshold=0.9, denominator="fleet.relay.forwarded",
        budget_per_hour=budget,
    )


class TestBurnRates:
    def test_healthy_stream_does_not_fire(self):
        reg = _device_registry([1] * 40, int(90 * FREQ))
        (burn,) = evaluate_burn_rates(
            reg, [_ratio_rule()], window_hours=1.0, freq_hz=FREQ
        )
        assert not burn.firing and not burn.no_data
        assert burn.bad_slow == 0 and burn.burn_slow == 0.0
        assert burn.fast_window_hours == pytest.approx(
            1.0 / FAST_WINDOW_DIVISOR
        )

    def test_brownout_fires_both_windows(self):
        # 40 events, one per 90 simulated seconds; the last 12 all fail:
        # 24 bad/hour in the slow half-hour window and 48 bad/hour in
        # the 150 s fast window, both past a 10/hour budget.
        sent = [1] * 28 + [0] * 12
        reg = _device_registry(sent, int(90 * FREQ))
        (burn,) = evaluate_burn_rates(
            reg, [_ratio_rule(budget=10.0)], window_hours=0.5, freq_hz=FREQ
        )
        assert burn.firing
        assert burn.bad_slow > 0 and burn.bad_fast > 0
        assert burn.burn_fast >= burn.burn_slow > 1.0

    def test_slow_only_burn_does_not_fire(self):
        # Failures early in the window, clean recovery at the tail: the
        # slow window still burns, the fast window is quiet — the
        # multi-window conjunction must hold the alarm.
        sent = [1] * 10 + [0] * 20 + [1] * 10
        reg = _device_registry(sent, int(90 * FREQ))
        (burn,) = evaluate_burn_rates(
            reg, [_ratio_rule(budget=10.0)], window_hours=1.0, freq_hz=FREQ
        )
        assert burn.burn_slow > 1.0
        assert burn.burn_fast == 0.0
        assert not burn.firing

    def test_single_snapshot_is_no_data(self):
        reg = _device_registry([1], int(90 * FREQ))
        (burn,) = evaluate_burn_rates(
            reg, [_ratio_rule()], window_hours=1.0, freq_hz=FREQ
        )
        assert burn.no_data and not burn.firing

    def test_unbudgeted_and_gauge_rules_skipped(self):
        reg = _device_registry([1] * 4, int(90 * FREQ))
        rules = [
            SloRule(name="nb", metric="fleet.relay.sent", op="<=",
                    threshold=10.0),  # no budget
            SloRule(name="depth", metric="fleet.relay.queue_depth",
                    op="<=", threshold=4.0, budget_per_hour=1.0),  # gauge
        ]
        burns = evaluate_burn_rates(reg, rules, window_hours=1.0,
                                    freq_hz=FREQ)
        assert [b.rule.name for b in burns] == ["depth"]
        assert burns[0].no_data

    def test_default_rules_carry_budgets(self):
        budgeted = {r.name for r in default_slo_rules()
                    if r.budget_per_hour is not None}
        assert budgeted == {"p99_latency", "relay_success", "shed_rate"}

    def test_invalid_window_rejected(self):
        reg = _device_registry([1], int(90 * FREQ))
        with pytest.raises(ValueError):
            evaluate_burn_rates(reg, [_ratio_rule()], window_hours=0.0,
                                freq_hz=FREQ)

    def test_quantile_rule_counts_over_threshold_observations(self):
        rule = SloRule(name="p99_latency", metric="fleet.lat", op="<=",
                       threshold=100.0, quantile=0.99, budget_per_hour=5.0)
        reg = MetricsRegistry()
        cycle = 0
        for value in [10.0, 10.0, 5000.0, 10.0, 5000.0, 5000.0]:
            reg.observe("fleet.lat", value)
            cycle += int(90 * FREQ)
            reg.record_snapshot(cycle)
        (burn,) = evaluate_burn_rates(reg, [rule], window_hours=1.0,
                                      freq_hz=FREQ)
        assert burn.bad_slow == 3
        assert burn.firing  # ~24 bad/hour in both windows >> 5/hour

    def test_merged_ring_burn_identical_to_either_fold_order(self):
        devices = [
            _device_registry([1, 0, 1], int(80 * FREQ)),
            _device_registry([0, 0], int(120 * FREQ)),
            _device_registry([1] * 5, int(60 * FREQ)),
        ]
        def fold(order):
            merged = MetricsRegistry()
            for reg in order:
                merged.merge(pickle.loads(pickle.dumps(reg)))
            burns = evaluate_burn_rates(merged, [_ratio_rule()],
                                        window_hours=0.5, freq_hz=FREQ)
            return json.dumps([b.to_doc() for b in burns], sort_keys=True)
        assert fold(devices) == fold(list(reversed(devices)))


class TestFleetRing:
    """Regression: the fleet runner stamps the ring after the run, so
    live-recorded ``tee.*`` metrics sat in every snapshot at their final
    values — every window's delta was 0 and a budgeted ``tee.*`` rule
    could never fire.  The ring now holds only the replayed ``fleet.*``
    metrics, and such a rule reports NO DATA instead of a silent zero."""

    def test_chaos_fleet_ring_holds_only_fleet_metrics(self, provisioned):
        from repro.obs.fleet import run_fleet

        report = run_fleet(devices=2, seed=9, utterances=6, chaos=True,
                           bundle=provisioned.bundle)
        for device in report.devices:
            reg = device.registry
            assert reg.counters("tee.checkpoints")  # recorded live
            assert len(reg.snapshots) == device.summary["utterances"]
            for snap in reg.snapshots:
                names = [*snap.counters, *snap.hists]
                assert names and all(n.startswith("fleet.") for n in names)
        rule = SloRule(name="checkpoints", metric="tee.checkpoints",
                       op="<=", threshold=0.0, budget_per_hour=1.0)
        (burn,) = evaluate_burn_rates(report.merged_registry(), [rule],
                                      window_hours=1.0)
        assert burn.no_data and not burn.firing


class TestWeightedSampling:
    def test_systematic_one_in_k_keeps_phase_zero(self):
        reg = MetricsRegistry()
        reg.set_sampling(3)
        for v in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]:
            reg.observe("lat", v)
        hist = reg.histogram("lat")
        # Kept: indices 0, 3, 6 -> values 1, 4, 7, each weight 3.
        assert hist.count == 9
        assert hist.total == pytest.approx(3 * (1.0 + 4.0 + 7.0))

    def test_sampling_rate_one_is_identity(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.set_sampling(1)
        for v in [5.0, 2.0, 9.0, 0.0]:
            a.observe("lat", v)
            b.observe("lat", v)
        assert json.dumps(a.to_doc(), sort_keys=True) == \
            json.dumps(b.to_doc(), sort_keys=True)

    def test_weighted_observe_matches_scaled_subsequence(self):
        # The exact weighting law: sampling at 1-in-k then weighting by
        # k produces the same bucket state as observing the kept
        # subsequence k times each.
        values = [3.0, 14.0, 0.0, 999.0, 7.5, 7.5, 61.0]
        k = 2
        sampled = BucketHistogram("lat")
        for v in values[::k]:
            sampled.observe(v, weight=k)
        repeated = BucketHistogram("lat", max_samples=0)
        for v in values[::k]:
            for _ in range(k):
                repeated.observe(v)
        strip = lambda doc: {k_: v for k_, v in doc.items()
                             if k_ != "max_samples"}
        assert strip(sampled.to_doc()) == strip(repeated.to_doc())

    def test_invalid_rates_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.set_sampling(0)
        with pytest.raises(ValueError):
            BucketHistogram("x").observe(1.0, weight=0)


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1e9,
                           allow_nan=False, allow_infinity=False),
                 min_size=1, max_size=40),
        min_size=1, max_size=4,
    ),
    k=st.integers(min_value=1, max_value=8),
    q=st.sampled_from([0.5, 0.9, 0.99]),
)
def test_property_weighted_merged_quantile_rank_window(data, k, q):
    """Unbiasedness of the weighted merge, as an exact rank bound.

    Sort each device's stream, sample it 1-in-k with weight k, merge the
    weighted histograms across devices.  The merged quantile estimate
    must lie within one bucket (``gamma`` relative error) of the value
    window spanned by the true quantile's rank ±2k per device — the
    worst-case rank drift systematic sampling can introduce.  With k=1
    the window collapses and the estimate is within one bucket of the
    exact quantile.
    """
    streams = [sorted(values) for values in data]
    merged = BucketHistogram("lat")
    for stream in streams:
        for v in stream[::k]:
            merged.observe(v, weight=k)
    estimate = merged.quantile(q)

    full = sorted(v for stream in streams for v in stream)
    n = len(full)
    target = max(1, math.ceil(q * n))
    drift = 2 * k * len(streams)
    lo = full[max(0, target - 1 - drift)]
    hi = full[min(n - 1, target - 1 + drift)]
    gamma = merged.gamma
    assert lo / gamma <= estimate <= max(hi * gamma, gamma)

    # Rates stay unbiased: the weighted count covers every event, over-
    # counting by at most k-1 per device stream.
    assert n <= merged.count <= n + len(streams) * (k - 1)
