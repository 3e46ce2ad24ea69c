"""Property tests: the mergeable log-bucketed histogram (hypothesis).

The fleet tier's aggregation math rests on three promises:

* ``merge`` is associative and commutative — fold order never changes
  the fleet report;
* quantile estimates bracket the exact (nearest-rank) percentile within
  one bucket's relative error, ``exact <= estimate <= exact * gamma``;
* merged ``count``/``sum``/``min``/``max`` equal the concatenated
  stream's, always, regardless of sample-cap state.
"""

import json
import math
import pickle

from hypothesis import example, given, settings, strategies as st

from repro.obs.metrics import BucketHistogram

# Integer cycle-like values: float sums stay exact below 2**53, so total
# comparisons are equality, not approx.
values = st.integers(min_value=0, max_value=10**12)
streams = st.lists(values, min_size=1, max_size=200)


def build(vals, max_samples=64, gamma=1.2):
    h = BucketHistogram("t", gamma=gamma, max_samples=max_samples)
    for v in vals:
        h.observe(v)
    return h


def nearest_rank(sorted_vals, q):
    rank = max(1, math.ceil(q * len(sorted_vals)))
    return sorted_vals[rank - 1]


class TestMergeAlgebra:
    @settings(max_examples=60, deadline=None)
    @given(a=streams, b=streams, c=streams,
           cap=st.sampled_from([0, 8, 10_000]))
    def test_associative_and_commutative(self, a, b, c, cap):
        ha, hb, hc = (build(v, max_samples=cap) for v in (a, b, c))
        left = ha.merge(hb).merge(hc)
        right = ha.merge(hb.merge(hc))
        flipped = hc.merge(hb).merge(ha)
        # Full state equality (buckets, retained samples, aggregates):
        # to_doc() captures everything quantiles are computed from.
        assert left.to_doc() == right.to_doc() == flipped.to_doc()

    @settings(max_examples=60, deadline=None)
    @given(a=streams, b=streams, cap=st.sampled_from([0, 8, 10_000]))
    def test_merge_aggregates_equal_concatenated(self, a, b, cap):
        merged = build(a, max_samples=cap).merge(build(b, max_samples=cap))
        concat = a + b
        assert merged.count == len(concat)
        assert merged.total == sum(concat)
        assert merged.min == min(concat)
        assert merged.max == max(concat)

    def test_gamma_mismatch_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            build([1], gamma=1.2).merge(build([1], gamma=2.0))


class TestQuantileBracket:
    @settings(max_examples=80, deadline=None)
    @given(vals=streams, q=st.floats(min_value=0.0, max_value=1.0))
    def test_estimate_within_one_bucket_of_exact(self, vals, q):
        # A zero cap forces bucket-estimate mode (the interesting case);
        # exact mode is pinned to interpolation by the test below.
        h = build(vals, max_samples=0)
        exact = nearest_rank(sorted(vals), q)
        estimate = h.quantile(q)
        if exact == 0:
            assert estimate == 0.0
        else:
            assert exact <= estimate * (1 + 1e-9)
            assert estimate <= exact * h.gamma * (1 + 1e-9)

    @settings(max_examples=40, deadline=None)
    @given(vals=streams, q=st.floats(min_value=0.0, max_value=1.0))
    # 1..100: interpolated p50/p95/p99 are 50.5/95.05/99.01.
    @example(vals=list(range(1, 101)), q=0.50)
    @example(vals=list(range(1, 101)), q=0.95)
    @example(vals=list(range(1, 101)), q=0.99)
    def test_exact_mode_matches_interpolation(self, vals, q):
        # Under the cap the histogram interpolates linearly over the
        # sorted raw samples; the per-stage profile relies on this.
        h = build(vals, max_samples=10_000)
        assert h.exact
        ordered = sorted(vals)
        if len(ordered) == 1:
            expected = float(ordered[0])
        else:
            rank = q * (len(ordered) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(ordered) - 1)
            frac = rank - lo
            expected = ordered[lo] * (1.0 - frac) + ordered[hi] * frac
        assert h.quantile(q) == expected

    @settings(max_examples=40, deadline=None)
    @given(vals=st.lists(values, min_size=70, max_size=200))
    def test_cap_overflow_drops_samples_not_accuracy(self, vals):
        h = build(vals, max_samples=64)
        assert not h.exact
        # Estimates stay ordered even in bucket mode.
        assert h.quantile(0.5) <= h.quantile(0.95) <= h.quantile(0.99)

    @settings(max_examples=40, deadline=None)
    @given(vals=streams)
    def test_doc_round_trip(self, vals):
        h = build(vals, max_samples=16)
        doc = h.to_doc()
        # JSON-ready: the document survives JSON unchanged.
        assert json.loads(json.dumps(doc)) == doc
        # Shard workers ship histograms pickled; quantiles survive.
        back = pickle.loads(pickle.dumps(h))
        assert back.to_doc() == doc
        for q in (0.0, 0.5, 0.95, 1.0):
            assert back.quantile(q) == h.quantile(q)


class TestSmallStreams:
    def test_empty_and_single_sample(self):
        h = BucketHistogram("lat")
        assert h.p50 == 0.0 and h.mean == 0.0
        h.observe(42)
        assert h.p50 == h.p95 == h.p99 == 42.0

    def test_exact_percentiles(self):
        import pytest

        h = build(range(1, 101), max_samples=10_000)  # 1..100
        assert h.exact
        # Linear interpolation over sorted samples: p50 of 1..100 is 50.5.
        assert h.p50 == pytest.approx(50.5)
        assert h.p95 == pytest.approx(95.05)
        assert h.p99 == pytest.approx(99.01)
        assert h.mean == pytest.approx(50.5)
        assert h.min == 1 and h.max == 100
        assert h.total == 5050 and h.count == 100
