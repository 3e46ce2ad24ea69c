"""The ``cycles.<domain>`` counters are derived from the clock's totals.

No clock charge updates them: the registry reads the clock's per-domain
totals whenever it is read, merged or exported.  ``obs.disable()``
freezes them, and a device report's registry holds them as plain values
with no clock behind them.
"""

import io
import pickle

from repro.core.pipeline import SecurePipeline
from repro.core.platform import IotPlatform
from repro.core.workload import UtteranceWorkload
from repro.ml.dataset import UtteranceGenerator
from repro.obs.fleet import DeviceSpec, simulate_device_runtime
from repro.obs.metrics import MetricsRegistry
from repro.sim.clock import CycleDomain, SimClock
from repro.sim.rng import SimRng


def _clock_totals(clock):
    return {
        f"cycles.{d.value}": clock.cycles_in(d)
        for d in CycleDomain
        if clock.cycles_in(d)
    }


def _pipeline(provisioned, seed=91):
    platform = IotPlatform.create(seed=seed)
    pipeline = SecurePipeline(platform, provisioned.bundle)
    corpus = UtteranceGenerator(SimRng(seed, "cycle-counters")).generate(
        2, sensitive_fraction=0.5
    )
    items = list(UtteranceWorkload.from_corpus(corpus, provisioned.bundle.vocoder))
    return platform, pipeline, items


class _RefuseClock(pickle.Pickler):
    def persistent_id(self, obj):
        assert not isinstance(obj, SimClock), "a SimClock reached the pickle"
        return None


def test_live_counters_follow_the_clock(provisioned):
    platform, pipeline, items = _pipeline(provisioned)
    clock, metrics = platform.machine.clock, platform.machine.obs.metrics
    try:
        for item in items:
            pipeline.process_item(item)
            assert metrics.counters("cycles.") == _clock_totals(clock)
            assert metrics.counter("cycles.secure_cpu").value == (
                clock.cycles_in(CycleDomain.SECURE_CPU)
            )
            assert metrics.to_doc()["counters"]["cycles.monitor"] == (
                clock.cycles_in(CycleDomain.MONITOR)
            )
    finally:
        pipeline.close()
    merged = MetricsRegistry()
    merged.merge(metrics)
    merged.merge(metrics)
    assert merged.counters("cycles.") == {
        name: 2 * value for name, value in _clock_totals(clock).items()
    }


def test_disable_freezes_the_counters_mid_run(provisioned):
    platform, pipeline, items = _pipeline(provisioned)
    clock, obs = platform.machine.clock, platform.machine.obs
    try:
        pipeline.process_item(items[0])
        frozen = _clock_totals(clock)
        obs.disable()
        pipeline.process_item(items[1])
    finally:
        pipeline.close()
    assert clock.cycles_in(CycleDomain.SECURE_CPU) > (
        frozen["cycles.secure_cpu"]
    )
    assert obs.metrics.counters("cycles.") == frozen


def test_report_registry_is_a_clock_free_document(provisioned):
    spec = DeviceSpec(device_id="cc", seed=4243, utterances=3,
                      sensitive_fraction=0.5, fault_profile="lossy")
    runtime = simulate_device_runtime(spec, provisioned.bundle)
    expected = _clock_totals(runtime.machine.clock)
    assert set(expected) >= {"cycles.normal_cpu", "cycles.secure_cpu",
                             "cycles.monitor", "cycles.peripheral"}
    buf = io.BytesIO()
    _RefuseClock(buf).dump(runtime.report)
    restored = pickle.loads(buf.getvalue())
    assert restored.registry.counters("cycles.") == expected
    merged = MetricsRegistry()
    merged.merge(runtime.report.registry)
    merged.merge(restored.registry)
    assert merged.counters("cycles.") == {
        name: 2 * value for name, value in expected.items()
    }
