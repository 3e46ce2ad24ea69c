"""Per-layer host-time tracing, installed from outside the program.

The layers are ``src/repro`` modules.  :data:`LAYER_TABLE` names the
public callables the benchmark times in each one; :class:`LayerTracer`
wraps them at runtime for the traced run only and restores them after,
so the program under test carries no benchmark hooks.

Self time comes from a call stack: every wrapped call pushes a frame, and
on return its duration is added to its caller's child time, so a layer's
self time is its duration minus the time spent in the wrapped layers it
called.  Calls at ``process_item`` granularity or coarser (``SPAN``)
are also kept as span records with name, start, end, parent, device id
and utterance index; high-frequency leaf calls (``FOLD``, e.g. the ~1M
``SimClock.advance`` calls of one steady run) are only folded into call
counts and self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

SPAN = "span"
FOLD = "fold"

#: Span records of this layer carry (and define) the utterance index.
UTTERANCE_LAYER = "core.process_item"

#: ``(layer, dotted callable, kind)``.  A refactor that moves or renames a
#: callable must update this table: :func:`resolve_table` fails the run
#: on any entry that no longer resolves, so a layer cannot drop silently.
LAYER_TABLE: tuple[tuple[str, str, str], ...] = (
    ("obs.device_reduce", "repro.obs.fleet.simulate_device_runtime", SPAN),
    ("core.platform_create", "repro.core.platform.IotPlatform.create", SPAN),
    ("core.pipeline_init",
     "repro.core.pipeline.SecurePipeline.__init__", SPAN),
    ("core.workload_build",
     "repro.core.workload.UtteranceWorkload.from_corpus", SPAN),
    ("core.process_item",
     "repro.core.pipeline.SecurePipeline.process_item", SPAN),
    ("relay.handshake", "repro.relay.tls.TlsClient.handshake", SPAN),
    ("ml.train", "repro.ml.train.Trainer.fit", SPAN),
    ("drivers.read_chunk",
     "repro.drivers.i2s_driver.I2sDriver.read_chunk", FOLD),
    ("sim.clock_advance", "repro.sim.clock.SimClock.advance", FOLD),
    ("tz.smc", "repro.tz.monitor.SecureMonitor.smc", FOLD),
    ("ml.asr", "repro.ml.asr.MatchedFilterAsr.transcribe", FOLD),
    ("ml.classify", "repro.core.filter.SensitiveFilter.apply", FOLD),
    ("crypto.modexp", "repro.crypto.dh.DhKeyPair.generate", FOLD),
    ("crypto.modexp", "repro.crypto.dh.DhKeyPair.shared_secret", FOLD),
    ("crypto.aead", "repro.crypto.aead.StreamAead.seal", FOLD),
    ("crypto.aead", "repro.crypto.aead.StreamAead.open", FOLD),
    ("optee.invoke_pta", "repro.optee.os.OpTeeOs.invoke_pta", FOLD),
    ("optee.storage_put", "repro.optee.storage.SecureStorage.put", FOLD),
    ("optee.storage_get", "repro.optee.storage.SecureStorage.get", FOLD),
    ("relay.queue_enqueue",
     "repro.relay.queue.StoreForwardQueue.enqueue", FOLD),
    ("relay.queue_drain", "repro.relay.queue.StoreForwardQueue.drain", FOLD),
    ("relay.send", "repro.relay.avs.AvsClient.recognize", FOLD),
    ("cloud.receive", "repro.cloud.service.VoiceCloudService.receive", FOLD),
    ("obs.span", "repro.obs.span.SpanTracer.span", FOLD),
    ("obs.span_open", "repro.obs.span._ActiveSpan.__enter__", FOLD),
    ("obs.span_close", "repro.obs.span._ActiveSpan.__exit__", FOLD),
    ("obs.observe", "repro.obs.metrics.MetricsRegistry.observe", FOLD),
    ("obs.inc", "repro.obs.metrics.MetricsRegistry.inc", FOLD),
)

#: The benchmark's own speed probe (:mod:`benchmarks.e2e.calib`), timed
#: apart so that no layer's self time includes it.
PROBE_LAYER = "bench.probe"

#: The telemetry layer's per-utterance cost (``obs.device_reduce`` is the
#: fleet reduction, reported per device on its own).
OBS_LAYERS = ("obs.span", "obs.span_open", "obs.span_close", "obs.observe",
              "obs.inc")


class LayerTableError(RuntimeError):
    """Entries of the layer table that no longer resolve."""

    def __init__(self, missing: list[str]):
        super().__init__(
            "layer table entries do not resolve: " + ", ".join(missing)
        )
        self.missing = missing


def _raw(owner: Any, attr: str) -> Any:
    """The attribute as stored: from a class's ``__dict__``, so that
    classmethods and staticmethods are wrapped and restored as the
    descriptors they are."""
    return vars(owner)[attr] if isinstance(owner, type) else getattr(
        owner, attr
    )


def _resolve(dotted: str) -> tuple[Any, str]:
    """``(owner, attribute name)`` for a dotted callable.

    The longest importable prefix is the module; the rest is walked with
    attribute access, and the callable must be defined on its owner.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner: Any = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        _raw(owner, parts[-1])
        return owner, parts[-1]
    raise ImportError(f"no importable module in {dotted!r}")


def resolve_table(
    table: tuple[tuple[str, str, str], ...] = LAYER_TABLE,
) -> list[tuple[str, str, Any, str]]:
    """Resolve every entry or raise :class:`LayerTableError` naming the
    ones that fail; returns ``(layer, kind, owner, attr)`` rows."""
    rows, missing = [], []
    for layer, dotted, kind in table:
        try:
            owner, attr = _resolve(dotted)
        except (ImportError, AttributeError, KeyError):
            missing.append(f"{layer}={dotted}")
            continue
        rows.append((layer, kind, owner, attr))
    if missing:
        raise LayerTableError(missing)
    return rows


class LayerTracer:
    """Call counts, self and inclusive host time per layer, plus spans.

    ``stats[layer]`` is ``[calls, self_ns, inclusive_ns]``.  The runner
    sets :attr:`device` before each device; span records then carry it,
    along with the index of the enclosing utterance (or ``None``).
    """

    def __init__(self, table=LAYER_TABLE):
        self._rows = resolve_table(table)
        self.stats: dict[str, list[int]] = {
            layer: [0, 0, 0] for layer, *_ in self._rows
        }
        self.spans: list[dict[str, Any]] = []
        self.device = ""
        self._utt: int | None = None
        self._utt_count = 0
        # Bottom slot: collects the time of top-level wrapped calls.
        self._stack: list[int] = [0]
        self._span_stack: list[int] = []
        self._origin = time.perf_counter_ns()

    def begin_device(self, device_id: str) -> None:
        """Attribute following spans to ``device_id``; utterances from 0."""
        self.device = device_id
        self._utt_count = 0

    def fold(self, fn: Callable, layer: str) -> Callable:
        """``fn`` wrapped to count calls and self/inclusive time under
        ``layer``."""
        stat = self.stats.setdefault(layer, [0, 0, 0])
        stack, clock = self._stack, time.perf_counter_ns
        push, pop = stack.append, stack.pop

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # stack[-1] accumulates the time of this call's wrapped callees.
            push(0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt - child
                stat[2] += dt

        return wrapper

    def _span(self, fn: Callable, layer: str) -> Callable:
        timed = self.fold(fn, layer)
        is_utt = layer == UTTERANCE_LAYER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer_utt = self._utt
            if is_utt:
                self._utt = self._utt_count
                self._utt_count += 1
            span_id = len(self.spans)
            record = {
                "id": span_id,
                "parent": self._span_stack[-1] if self._span_stack else None,
                "name": layer,
                "device": self.device,
                "utt": self._utt,
                "start_ns": time.perf_counter_ns() - self._origin,
            }
            self.spans.append(record)
            self._span_stack.append(span_id)
            try:
                return timed(*args, **kwargs)
            finally:
                record["end_ns"] = time.perf_counter_ns() - self._origin
                self._span_stack.pop()
                self._utt = outer_utt

        return wrapper

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every table entry for the duration of the block."""
        restore = []
        try:
            for layer, kind, owner, attr in self._rows:
                make = self._span if kind == SPAN else self.fold
                raw = _raw(owner, attr)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped: Any = type(raw)(make(raw.__func__, layer))
                else:
                    wrapped = make(raw, layer)
                restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    def span_durations_ms(self, layer: str) -> list[float]:
        """Host durations of every retained span of ``layer``."""
        return [
            (s["end_ns"] - s["start_ns"]) / 1e6
            for s in self.spans
            if s["name"] == layer and "end_ns" in s
        ]

    def write_jsonl(self, path: Path) -> None:
        """Write the span records, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for record in self.spans:
                out.write(json.dumps(record) + "\n")
