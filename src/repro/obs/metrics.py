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
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable
from dataclasses import dataclass
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

    def observe(self, value: float) -> None:
        """Record one sample (must be non-negative)."""
        value = float(value)
        if value < 0:
            raise ValueError(
                f"histogram {self.name!r} cannot observe negative {value}"
            )
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if value == 0.0:
            self._zero += 1
        else:
            idx = self._bucket_index(value)
            self._buckets[idx] = self._buckets.get(idx, 0) + 1
        if self._samples is not None:
            if self.count <= self.max_samples:
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

    # -- serialization -----------------------------------------------------------

    def to_doc(self) -> dict[str, Any]:
        """JSON-ready state: buckets plus any retained raw samples."""
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


class MetricsRegistry:
    """Named metrics, lazily created on first use.

    Instruments fetch their metric by name each time (`counter("tz.smc")`)
    so call sites stay one line and the registry remains the single
    namespace.  Dots namespace metrics the same way trace categories do
    (``tz.*``, ``optee.*``, ``stage.secure.*`` ...).
    """

    def __init__(self) -> None:
        self.enabled = True
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, BucketHistogram] = {}
        # Counters kept by another record (see derive_counters).
        self._derive: Callable[[], dict[str, int]] | None = None

    # -- access / creation -----------------------------------------------------

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        self._sync_derived()
        return self._counter(name)

    def _counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def derive_counters(
        self, source: Callable[[], dict[str, int]] | None
    ) -> None:
        """Mirror counters another record keeps, read from ``source()``.

        ``source`` returns the current value of each derived counter; the
        registry copies them in whenever it is read (:meth:`counter`,
        :meth:`counters`, :meth:`to_doc`) or merged into another, and
        costs the recording side nothing.  ``None`` freezes the derived
        counters at their current values and drops the source, which
        leaves the registry a plain document.
        """
        self._sync_derived()
        self._derive = source

    def _sync_derived(self) -> None:
        if self._derive is not None:
            for name, value in self._derive().items():
                self._counter(name).value = value

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
            self._counter(name).inc(n)

    def set(self, name: str, value: float) -> None:
        """Set gauge ``name`` (no-op while disabled)."""
        if self.enabled:
            self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        """Record a histogram sample (no-op while disabled)."""
        if self.enabled:
            self.histogram(name).observe(value)

    # -- reading back -----------------------------------------------------------

    def counters(self, prefix: str = "") -> dict[str, int]:
        """Counter values whose names start with ``prefix``."""
        self._sync_derived()
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
        for name, value in other.counters().items():
            self._counter(name).inc(value)
        for name, g in other._gauges.items():
            self.gauge(name).set(self.gauge(name).value + g.value)
        for name, h in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                mine = BucketHistogram(
                    name, gamma=h.gamma, max_samples=h.max_samples
                )
            self._histograms[name] = mine.merge(h)

    def to_doc(self) -> dict[str, Any]:
        """Full-fidelity JSON state of every metric.

        Histograms keep their buckets and retained samples, so two
        registries with equal documents merge identically.
        """
        return {
            "counters": self.counters(),
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.to_doc() for n, h in sorted(self._histograms.items())
            },
        }
