"""Result records for pipeline runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.ml.dataset import Utterance
from repro.sim.clock import CycleDomain


@dataclass(frozen=True)
class UtteranceResult:
    """Outcome + costs of one utterance through a pipeline.

    ``relay_status`` is the delivery outcome for pipelines with a
    fault-tolerant relay: ``"sent"``, ``"queued"`` (spilled to the sealed
    store-and-forward queue after retries), ``"throttled"`` (spilled
    under cloud admission backpressure), ``"shed"`` (refused fail-closed
    by the bounded queue, with accounting) or ``"dropped"`` (withheld by
    the filter).  Pipelines without relay accounting leave it empty.

    ``degraded`` marks a fail-closed decision: the TA was down past every
    restart budget, so the utterance was suppressed as sensitive without
    ever being processed — nothing raw left the device.
    """

    utterance: Utterance
    transcript: str
    sensitive_predicted: bool
    forwarded: bool
    payload: str | None
    latency_cycles: int
    energy_mj: float
    domain_cycles: dict[CycleDomain, int] = field(default_factory=dict)
    relay_status: str = ""
    relay_attempts: int = 0
    degraded: bool = False

    @property
    def correct(self) -> bool:
        """Classifier decision vs ground truth."""
        return self.sensitive_predicted == self.utterance.sensitive


@dataclass
class PipelineRunResult:
    """Aggregate outcome of one workload run.

    ``stage_cycles`` holds the TA's per-stage cycles as ``CMD_STATS``
    reports them: session-cumulative, the totals since the TA session
    opened, so a second run on the same pipeline reports both runs' cycles
    (and any ``process_item`` calls in between).  Tabulate one run's
    stages on a pipeline that ran nothing else.
    ``relay_stats`` holds the TA's delivery counters (sent / queued /
    dropped / drained, retries, re-handshakes, backoff cycles, queue
    depth).  ``over_segmented`` / ``under_segmented`` report how many
    segments the continuous-capture VAD found beyond / short of the
    workload's ground-truth utterances; ``unpaired_records`` keeps the raw
    decision records of surplus segments so nothing is silently discarded.
    """

    pipeline: str
    results: list[UtteranceResult] = field(default_factory=list)
    stage_cycles: dict[str, int] = field(default_factory=dict)
    relay_stats: dict[str, int] = field(default_factory=dict)
    over_segmented: int = 0
    under_segmented: int = 0
    unpaired_records: list[dict] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.results)

    # -- latency / throughput -----------------------------------------------------

    @property
    def latencies(self) -> np.ndarray:
        """Per-utterance latency in cycles."""
        return np.array([r.latency_cycles for r in self.results], dtype=np.int64)

    def mean_latency_cycles(self) -> float:
        """Mean per-utterance latency."""
        return float(self.latencies.mean()) if self.results else 0.0

    def p95_latency_cycles(self) -> float:
        """95th-percentile per-utterance latency."""
        return float(np.percentile(self.latencies, 95)) if self.results else 0.0

    def processing_latency_cycles(self) -> np.ndarray:
        """Latency minus peripheral (real-time capture) cycles.

        Audio capture takes audio-duration time in both designs; the
        interesting overhead is everything *else*.
        """
        out = []
        for r in self.results:
            peripheral = r.domain_cycles.get(CycleDomain.PERIPHERAL, 0)
            out.append(r.latency_cycles - peripheral)
        return np.array(out, dtype=np.int64)

    def total_energy_mj(self) -> float:
        """Energy across the whole run."""
        return sum(r.energy_mj for r in self.results)

    def total_latency_cycles(self) -> int:
        """Cycles across the whole run.

        In continuous mode the per-result attribution slices one whole-run
        clock delta, so this total reconstructs that measured delta
        exactly; in batch mode it is simply the sum of per-utterance
        latencies.
        """
        return int(self.latencies.sum()) if self.results else 0

    # -- decisions ------------------------------------------------------------------

    def forwarded_count(self) -> int:
        """Utterances whose payload went to the cloud."""
        return sum(1 for r in self.results if r.forwarded)

    def sent_count(self) -> int:
        """Utterances whose payload was delivered to the cloud."""
        return sum(1 for r in self.results if r.relay_status == "sent")

    def queued_count(self) -> int:
        """Utterances spilled into the store-and-forward queue."""
        return sum(1 for r in self.results if r.relay_status == "queued")

    def throttled_count(self) -> int:
        """Utterances queued under cloud admission backpressure."""
        return sum(1 for r in self.results if r.relay_status == "throttled")

    def shed_count(self) -> int:
        """Utterances refused fail-closed by the bounded queue.

        Shedding is a *deliberate, accounted* loss (the queue was at
        depth and refuses the newest rather than evicting committed
        entries); it still counts as lost in :meth:`lost_count` because
        the decision did not reach the cloud and is not at rest.
        """
        return sum(1 for r in self.results if r.relay_status == "shed")

    def lost_count(self) -> int:
        """Forwarded decisions that ended neither sent nor at rest.

        The fault-tolerance invariant: this must be zero at any fault rate
        (for pipelines that track relay status at all) — unless the
        bounded store-and-forward queue *deliberately* shed, in which
        case ``lost_count() == shed_count()`` exactly (nothing is ever
        lost silently).  ``"queued"`` and ``"throttled"`` payloads are at
        rest in the sealed queue, not lost.
        """
        return sum(
            1 for r in self.results
            if r.forwarded
            and r.relay_status not in ("", "sent", "queued", "throttled")
        )

    def degraded_count(self) -> int:
        """Utterances suppressed fail-closed while the TA was down."""
        return sum(1 for r in self.results if r.degraded)

    def total_relay_attempts(self) -> int:
        """Delivery attempts across the run (retries included)."""
        return sum(r.relay_attempts for r in self.results)

    def blocked_count(self) -> int:
        """Utterances withheld (or redacted/hashed)."""
        return sum(
            1 for r in self.results if not r.forwarded or r.payload != r.transcript
        )

    def classifier_accuracy(self) -> float:
        """On-path classification accuracy against ground truth."""
        if not self.results:
            return 0.0
        return sum(r.correct for r in self.results) / len(self.results)

    def summary(self) -> dict[str, Any]:
        """One-line dict for report tables."""
        return {
            "pipeline": self.pipeline,
            "utterances": len(self.results),
            "mean_latency_cycles": self.mean_latency_cycles(),
            "p95_latency_cycles": self.p95_latency_cycles(),
            "mean_processing_cycles": float(self.processing_latency_cycles().mean())
            if self.results
            else 0.0,
            "total_latency_cycles": self.total_latency_cycles(),
            "total_energy_mj": self.total_energy_mj(),
            "forwarded": self.forwarded_count(),
            "sent": self.sent_count(),
            "queued": self.queued_count(),
            "throttled": self.throttled_count(),
            "shed": self.shed_count(),
            "degraded": self.degraded_count(),
            "relay_attempts": self.total_relay_attempts(),
            "accuracy": self.classifier_accuracy(),
        }
