"""Metrics registry: counters, gauges and mergeable histograms.

The registry is the aggregate side of the observability layer: spans and
instrumented subsystems feed it, and ``repro profile`` / benchmarks read
it back.  Everything here is pure observation — recording a metric never
charges simulated cycles, touches the RNG, or otherwise perturbs the run,
which is what lets the instrumentation guarantee byte-identical pipeline
outcomes whether observability is enabled or not.

One histogram type, :class:`BucketHistogram`: deterministic log-spaced
buckets (DDSketch-style, relative-error bound ``gamma``) that keep raw
samples and exact percentiles while under the sample cap, degrade to
bucket estimates for unbounded streams, and — the point — **merge**
across devices without bias.  Registry histograms are bucketed so whole
registries can be merged into fleet aggregates; the per-stage profiler
uses the same type, exact because stage counts are small.

Two fleet-scale additions ride on the bucket machinery:

* **Weighted observations / adaptive sampling** — ``observe(v, weight=k)``
  records one retained sample standing for ``k`` identical stream values
  (bucket counts, count and total all advance by ``k``).  A registry put
  into 1-in-``k`` sampling mode (:meth:`MetricsRegistry.set_sampling`)
  records every ``k``-th histogram observation with weight ``k``, so a
  sampled device ships ~``1/k`` of the telemetry while merged fleet
  rates stay unbiased and merged quantiles stay within one bucket of the
  unsampled stream (systematic sampling; weights ride the ordinary
  bucket counts, so ``merge``/``to_doc`` need no special cases).
* **Snapshot ring** — :meth:`MetricsRegistry.record_snapshot` appends a
  compact cumulative :class:`RegistrySnapshot` (counters + histogram
  bucket state, no raw samples) at a simulated cycle, giving the health
  tier a *windowed* time series: burn-rate SLOs compute from snapshot
  deltas rather than lifetime totals.  Rings merge index-aligned
  (associative and commutative, like the histograms), so a merged fleet
  registry carries a fleet-wide snapshot timeline that is byte-identical
  whether devices were folded sequentially or across shards.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Counter:
    """A monotonically increasing count (events, bytes, cycles)."""

    name: str
    value: int = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (must be non-negative) to the counter."""
        if n < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease by {n}")
        self.value += n


@dataclass
class Gauge:
    """A point-in-time value (queue depth, heap usage)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = value


class BucketHistogram:
    """Mergeable distribution with deterministic log-spaced buckets.

    DDSketch-style: a positive value lands in the bucket ``i`` with
    ``gamma**(i-1) < value <= gamma**i`` (zero gets its own bucket), so a
    bucket-based quantile estimate is the true quantile within one
    bucket's relative error — ``q <= estimate <= q * gamma``.  While the
    total count is at most ``max_samples`` the raw samples are retained
    too and quantiles are *exact* (linearly interpolated over the sorted
    samples); past the cap the samples are dropped and estimates come
    from the buckets — no head-keep truncation bias.

    ``merge`` combines two histograms of the same ``gamma`` into the
    distribution of the concatenated streams; it is associative and
    commutative, which is what lets a fleet report fold per-device
    histograms in any order.  Bucket indexing uses no RNG and is
    FP-guarded, so equal value streams always produce equal histograms.
    """

    __slots__ = ("name", "gamma", "max_samples", "count", "total",
                 "min", "max", "_zero", "_buckets", "_samples")

    def __init__(self, name: str, gamma: float = 1.2,
                 max_samples: int = 65_536):
        if gamma <= 1.0:
            raise ValueError(f"gamma must exceed 1.0, got {gamma}")
        if max_samples < 0:
            raise ValueError("max_samples cannot be negative")
        self.name = name
        self.gamma = gamma
        self.max_samples = max_samples
        self.count = 0
        self.total = 0
        self.min: float | None = None
        self.max: float | None = None
        self._zero = 0
        self._buckets: dict[int, int] = {}
        # Kept sorted (insort) so quantiles never re-sort; None once the
        # stream outgrew the cap (estimates only).
        self._samples: list[float] | None = []

    # -- recording ---------------------------------------------------------------

    def _bucket_index(self, value: float) -> int:
        i = math.ceil(math.log(value) / math.log(self.gamma))
        # FP guard: enforce gamma**(i-1) < value <= gamma**i exactly so
        # boundary values bucket identically on every platform.
        while self.gamma ** i < value:
            i += 1
        while self.gamma ** (i - 1) >= value:
            i -= 1
        return i

    def observe(self, value: float, weight: int = 1) -> None:
        """Record one sample (non-negative), optionally weighted.

        ``weight=k`` records this value as standing for ``k`` identical
        stream observations — the adaptive-sampling contract: a device
        sampling 1-in-``k`` observes every kept value with weight ``k``,
        so counts, totals and bucket populations (and therefore merged
        fleet rates and bucket quantiles) stay unbiased.  Weighted
        observations drop the retained raw samples (``exact`` becomes
        false): a weight is a bucket-resolution statement, not ``k``
        recoverable values.
        """
        value = float(value)
        if value < 0:
            raise ValueError(
                f"histogram {self.name!r} cannot observe negative {value}"
            )
        weight = int(weight)
        if weight < 1:
            raise ValueError(
                f"histogram {self.name!r} weight must be >= 1, got {weight}"
            )
        self.count += weight
        self.total += value * weight
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value == 0.0:
            self._zero += weight
        else:
            idx = self._bucket_index(value)
            self._buckets[idx] = self._buckets.get(idx, 0) + weight
        if self._samples is not None:
            if weight == 1 and self.count <= self.max_samples:
                bisect.insort(self._samples, value)
            else:
                self._samples = None

    # -- merging -----------------------------------------------------------------

    def merge(self, other: "BucketHistogram") -> "BucketHistogram":
        """The histogram of the two concatenated streams (a new object).

        Associative and commutative: retained samples are kept sorted and
        only while the combined count fits under ``max_samples``, so the
        result depends on the merged multiset of values alone, never on
        merge order.
        """
        if not math.isclose(self.gamma, other.gamma):
            raise ValueError(
                f"cannot merge gamma={self.gamma} with gamma={other.gamma}"
            )
        out = BucketHistogram(
            self.name, gamma=self.gamma,
            max_samples=min(self.max_samples, other.max_samples),
        )
        out.count = self.count + other.count
        out.total = self.total + other.total
        mins = [m for m in (self.min, other.min) if m is not None]
        maxs = [m for m in (self.max, other.max) if m is not None]
        out.min = min(mins) if mins else None
        out.max = max(maxs) if maxs else None
        out._zero = self._zero + other._zero
        out._buckets = dict(self._buckets)
        for idx, n in other._buckets.items():
            out._buckets[idx] = out._buckets.get(idx, 0) + n
        if (self._samples is not None and other._samples is not None
                and out.count <= out.max_samples):
            out._samples = sorted(self._samples + other._samples)
        else:
            out._samples = None
        return out

    # -- reading back ------------------------------------------------------------

    @property
    def exact(self) -> bool:
        """True while quantiles come from retained raw samples."""
        return self._samples is not None

    @property
    def mean(self) -> float:
        """Arithmetic mean over all observed samples."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0..1): exact under the cap, else bucketed.

        The bucket estimate is each bucket's upper bound (clamped to the
        observed maximum), so it sits within ``gamma`` relative error
        above the nearest-rank exact quantile.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if self._samples is not None:
            ordered = self._samples  # kept sorted by observe/merge
            if len(ordered) == 1:
                return float(ordered[0])
            rank = q * (len(ordered) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(ordered) - 1)
            frac = rank - lo
            return ordered[lo] * (1.0 - frac) + ordered[hi] * frac
        rank = max(1, math.ceil(q * self.count))
        cum = self._zero
        if rank <= cum:
            return 0.0
        for idx in sorted(self._buckets):
            cum += self._buckets[idx]
            if rank <= cum:
                estimate = self.gamma ** idx
                return min(estimate, self.max or estimate)
        return float(self.max or 0.0)

    def percentile(self, p: float) -> float:
        """The ``p``-th percentile (0..100); see :meth:`quantile`."""
        return self.quantile(p / 100.0)

    @property
    def p50(self) -> float:
        """Median."""
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        """95th percentile."""
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        """99th percentile."""
        return self.quantile(0.99)

    def summary(self) -> dict[str, Any]:
        """Flat dict for reports; ``exact`` flags sample-backed quantiles."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min or 0,
            "max": self.max or 0,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "exact": self.exact,
        }

    # -- (de)serialization -------------------------------------------------------

    def to_doc(self) -> dict[str, Any]:
        """JSON-ready state (inverse of :meth:`from_doc`)."""
        return {
            "name": self.name,
            "gamma": self.gamma,
            "max_samples": self.max_samples,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "zero": self._zero,
            "buckets": {str(i): n for i, n in sorted(self._buckets.items())},
            "samples": self._samples,
        }

    @staticmethod
    def from_doc(doc: dict[str, Any]) -> "BucketHistogram":
        """Rebuild a histogram from its :meth:`to_doc` form."""
        h = BucketHistogram(
            str(doc["name"]), gamma=float(doc["gamma"]),
            max_samples=int(doc["max_samples"]),
        )
        h.count = int(doc["count"])
        h.total = doc["total"]
        h.min = doc["min"]
        h.max = doc["max"]
        h._zero = int(doc["zero"])
        h._buckets = {int(i): int(n) for i, n in doc["buckets"].items()}
        samples = doc.get("samples")
        # Re-sort defensively: quantiles assume the invariant even if the
        # doc was produced or edited elsewhere.
        h._samples = None if samples is None else sorted(
            float(v) for v in samples
        )
        return h


@dataclass(frozen=True)
class RegistrySnapshot:
    """Cumulative registry state at one simulated cycle (picklable).

    The unit of the windowed time series behind burn-rate SLOs: counters
    are carried verbatim and histograms as bucket state only
    (``{"gamma", "count", "zero", "buckets"}`` — no retained samples, so
    a snapshot is a few hundred bytes regardless of stream length).  Two
    snapshots subtract (:meth:`delta`) into the events of the window
    between them, and snapshots at the same ring index add
    (:meth:`merge`) into the fleet-wide snapshot for that epoch.
    """

    cycle: int
    counters: dict[str, int]
    hists: dict[str, dict[str, Any]]

    def merge(self, other: "RegistrySnapshot") -> "RegistrySnapshot":
        """Pointwise sum (counters and bucket counts add, cycle = max)."""
        counters = dict(self.counters)
        for name, v in other.counters.items():
            counters[name] = counters.get(name, 0) + v
        hists = {n: _copy_hist_state(s) for n, s in self.hists.items()}
        for name, state in other.hists.items():
            mine = hists.get(name)
            if mine is None:
                hists[name] = _copy_hist_state(state)
                continue
            if not math.isclose(mine["gamma"], state["gamma"]):
                raise ValueError(
                    f"snapshot merge: gamma mismatch on {name!r}"
                )
            mine["count"] += state["count"]
            mine["zero"] += state["zero"]
            for idx, n in state["buckets"].items():
                mine["buckets"][idx] = mine["buckets"].get(idx, 0) + n
        return RegistrySnapshot(
            cycle=max(self.cycle, other.cycle), counters=counters, hists=hists
        )

    def delta(self, earlier: "RegistrySnapshot") -> "RegistrySnapshot":
        """Events between ``earlier`` and this snapshot (both cumulative).

        Counter and bucket values subtract (clamped at zero so a metric
        that first appears mid-ring never goes negative); ``cycle`` is
        the window length in cycles.
        """
        counters = {
            name: max(0, v - earlier.counters.get(name, 0))
            for name, v in self.counters.items()
        }
        hists: dict[str, dict[str, Any]] = {}
        for name, state in self.hists.items():
            prev = earlier.hists.get(
                name, {"gamma": state["gamma"], "count": 0, "zero": 0,
                       "buckets": {}},
            )
            hists[name] = {
                "gamma": state["gamma"],
                "count": max(0, state["count"] - prev["count"]),
                "zero": max(0, state["zero"] - prev["zero"]),
                "buckets": {
                    idx: n - prev["buckets"].get(idx, 0)
                    for idx, n in state["buckets"].items()
                    if n - prev["buckets"].get(idx, 0) > 0
                },
            }
        return RegistrySnapshot(
            cycle=self.cycle - earlier.cycle, counters=counters, hists=hists
        )

    def to_doc(self) -> dict[str, Any]:
        """JSON-ready form (inverse of :meth:`from_doc`)."""
        return {
            "cycle": self.cycle,
            "counters": dict(sorted(self.counters.items())),
            "hists": {
                name: {
                    "gamma": state["gamma"],
                    "count": state["count"],
                    "zero": state["zero"],
                    "buckets": {
                        str(i): n for i, n in sorted(state["buckets"].items())
                    },
                }
                for name, state in sorted(self.hists.items())
            },
        }

    @staticmethod
    def from_doc(doc: dict[str, Any]) -> "RegistrySnapshot":
        """Rebuild a snapshot from its :meth:`to_doc` form."""
        return RegistrySnapshot(
            cycle=int(doc["cycle"]),
            counters={n: int(v) for n, v in doc.get("counters", {}).items()},
            hists={
                name: {
                    "gamma": float(state["gamma"]),
                    "count": int(state["count"]),
                    "zero": int(state["zero"]),
                    "buckets": {
                        int(i): int(n)
                        for i, n in state.get("buckets", {}).items()
                    },
                }
                for name, state in doc.get("hists", {}).items()
            },
        )


def _copy_hist_state(state: dict[str, Any]) -> dict[str, Any]:
    return {
        "gamma": state["gamma"],
        "count": state["count"],
        "zero": state["zero"],
        "buckets": dict(state["buckets"]),
    }


def merge_snapshot_rings(
    a: list[RegistrySnapshot], b: list[RegistrySnapshot]
) -> list[RegistrySnapshot]:
    """Index-aligned merge of two snapshot rings.

    Ring index ``i`` is the *i*-th recording epoch of a device (the fleet
    runner snapshots once per utterance, so index == utterance epoch).
    The shorter ring is extended by repeating its final snapshot — a
    cumulative series holds its last value after the device stops — which
    makes the merge associative and commutative: every ring is treated as
    an infinite step series and summed pointwise, so fold order (and
    therefore sharding) cannot change the merged timeline.
    """
    if not a:
        return list(b)
    if not b:
        return list(a)
    out: list[RegistrySnapshot] = []
    for i in range(max(len(a), len(b))):
        sa = a[i] if i < len(a) else a[-1]
        sb = b[i] if i < len(b) else b[-1]
        out.append(sa.merge(sb))
    return out


class MetricsRegistry:
    """Named metrics, lazily created on first use.

    Instruments fetch their metric by name each time (`counter("tz.smc")`)
    so call sites stay one line and the registry remains the single
    namespace.  Dots namespace metrics the same way trace categories do
    (``tz.*``, ``optee.*``, ``stage.secure.*`` ...).
    """

    def __init__(self, snapshot_capacity: int = 512) -> None:
        if snapshot_capacity < 1:
            raise ValueError("snapshot_capacity must be positive")
        self.enabled = True
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, BucketHistogram] = {}
        # Adaptive telemetry sampling (1-in-k histogram observations,
        # weight-compensated); counters/gauges are never sampled.
        self.sample_every = 1
        self._sample_seen: dict[str, int] = {}
        # Windowed time series for burn-rate SLOs.
        self.snapshot_capacity = snapshot_capacity
        self._snapshots: list[RegistrySnapshot] = []

    # -- access / creation -----------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> BucketHistogram:
        """Get or create the (mergeable, log-bucketed) histogram ``name``."""
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = BucketHistogram(name)
        return h

    # -- one-line recording (no-ops when disabled) -------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n`` (no-op while disabled)."""
        if self.enabled:
            self.counter(name).inc(n)

    def set(self, name: str, value: float) -> None:
        """Set gauge ``name`` (no-op while disabled)."""
        if self.enabled:
            self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record a histogram sample (no-op while disabled).

        Under 1-in-``k`` sampling (:meth:`set_sampling`), every ``k``-th
        observation of each metric is recorded with weight ``k`` and the
        rest are dropped — systematic per-metric sampling, so the kept
        subset is deterministic and the weighted counts remain unbiased
        estimates of the full stream.
        """
        if not self.enabled:
            return
        k = self.sample_every
        if k <= 1:
            self.histogram(name).observe(value)
            return
        seen = self._sample_seen.get(name, 0)
        self._sample_seen[name] = seen + 1
        if seen % k == 0:
            self.histogram(name).observe(value, weight=k)

    def set_sampling(self, every: int) -> None:
        """Sample 1-in-``every`` histogram observations (1 = off).

        Recording (not measurement) policy: the pipeline's behaviour is
        untouched, only how much telemetry the registry retains.  The
        sampling weight rides the bucket counts, so merged fleet rates
        stay unbiased and quantiles stay within one bucket of the
        unsampled stream.
        """
        every = int(every)
        if every < 1:
            raise ValueError(f"sample_every must be >= 1, got {every}")
        self.sample_every = every

    # -- windowed snapshots (burn-rate time series) ------------------------------

    def record_snapshot(
        self, cycle: int, prefixes: tuple[str, ...] = ("fleet.", "tee.")
    ) -> None:
        """Append the cumulative state at ``cycle`` to the snapshot ring.

        Only metrics under ``prefixes`` are captured (the SLO namespaces
        by default) so snapshots stay small enough to take per utterance.
        Histograms are captured as bucket state without retained samples.
        The ring is bounded by ``snapshot_capacity`` (oldest dropped);
        no-op while the registry is disabled.
        """
        if not self.enabled:
            return
        counters = {
            name: c.value
            for name, c in sorted(self._counters.items())
            if name.startswith(prefixes)
        }
        hists = {
            name: {
                "gamma": h.gamma,
                "count": h.count,
                "zero": h._zero,
                "buckets": dict(h._buckets),
            }
            for name, h in sorted(self._histograms.items())
            if name.startswith(prefixes)
        }
        self._snapshots.append(
            RegistrySnapshot(cycle=int(cycle), counters=counters, hists=hists)
        )
        if len(self._snapshots) > self.snapshot_capacity:
            del self._snapshots[: len(self._snapshots) - self.snapshot_capacity]

    @property
    def snapshots(self) -> list[RegistrySnapshot]:
        """The snapshot ring, oldest first (copy)."""
        return list(self._snapshots)

    # -- reading back -----------------------------------------------------------

    def counters(self, prefix: str = "") -> dict[str, int]:
        """Counter values whose names start with ``prefix``."""
        return {
            name: c.value
            for name, c in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def histograms(self, prefix: str = "") -> dict[str, BucketHistogram]:
        """Histograms whose names start with ``prefix``."""
        return {
            name: h
            for name, h in sorted(self._histograms.items())
            if name.startswith(prefix)
        }

    def gauges(self, prefix: str = "") -> dict[str, float]:
        """Gauge values whose names start with ``prefix``."""
        return {
            name: g.value
            for name, g in sorted(self._gauges.items())
            if name.startswith(prefix)
        }

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (fleet aggregation).

        Counters add, histograms merge distribution-exactly, and gauges
        *sum* — the fleet reading of a point-in-time value (total queue
        depth across devices); keep per-device registries when you need
        the individual readings.  Summing is only meaningful for
        *extensive* gauges (totals); record intensive per-unit values
        (e.g. energy per utterance) as histograms instead, so merging
        preserves the distribution rather than inflating the reading.
        """
        for name, c in other._counters.items():
            self.counter(name).inc(c.value)
        for name, g in other._gauges.items():
            self.gauge(name).set(self.gauge(name).value + g.value)
        for name, h in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                mine = BucketHistogram(
                    name, gamma=h.gamma, max_samples=h.max_samples
                )
            self._histograms[name] = mine.merge(h)
        self._snapshots = merge_snapshot_rings(
            self._snapshots, other._snapshots
        )

    def snapshot(self) -> dict[str, Any]:
        """Everything, as a JSON-ready dict."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }

    def to_doc(self) -> dict[str, Any]:
        """Full-fidelity JSON state (inverse of :meth:`from_doc`).

        Unlike :meth:`snapshot` (which summarizes histograms), this
        round-trips losslessly: histograms keep their buckets and retained
        samples, so ``from_doc(to_doc())`` merges identically to the
        original registry.  This is what lets shard workers hand whole
        registries back as documents.
        """
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.to_doc() for n, h in sorted(self._histograms.items())
            },
            "snapshots": [s.to_doc() for s in self._snapshots],
        }

    @staticmethod
    def from_doc(doc: dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from its :meth:`to_doc` form."""
        reg = MetricsRegistry()
        for name, value in doc.get("counters", {}).items():
            reg.counter(name).inc(int(value))
        for name, value in doc.get("gauges", {}).items():
            reg.gauge(name).set(float(value))
        for name, hdoc in doc.get("histograms", {}).items():
            reg._histograms[name] = BucketHistogram.from_doc(hdoc)
        reg._snapshots = [
            RegistrySnapshot.from_doc(s) for s in doc.get("snapshots", [])
        ]
        return reg

    def reset(self) -> None:
        """Drop every metric (a fresh namespace)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._sample_seen.clear()
        self._snapshots.clear()
