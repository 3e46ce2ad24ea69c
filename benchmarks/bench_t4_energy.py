"""T4: energy — per-utterance consumption, secure vs baseline.

Paper Section III anticipates the TEE path costs "increased power
consumption" on a low-power device.  Reports per-utterance energy for
both configurations with per-domain breakdowns, and the model-size sweep
(smaller model → less energy, Section V's mitigation).
"""

from benchmarks.conftest import make_workload, write_result
from repro.core.baseline import BaselinePipeline
from repro.core.pipeline import SecurePipeline
from repro.core.platform import IotPlatform
from repro.sim.clock import CycleDomain


def run_energy(bundle, secure: bool, n=8):
    platform = IotPlatform.create(seed=8)
    if secure:
        pipeline = SecurePipeline(platform, bundle)
    else:
        pipeline = BaselinePipeline(platform, bundle.asr, use_tls=True)
    workload = make_workload(bundle, n=n, seed=103)
    before = platform.machine.clock.snapshot()
    run = pipeline.process(workload)
    cycles = platform.machine.clock.snapshot().delta(before)
    return run, platform.energy.of(cycles), len(workload)


def test_t4_energy(benchmark, bundle_cnn):
    rows = [f"{'config':16s} {'mJ/utt':>8s} "
            f"{'normal':>8s} {'secure':>8s} {'monitor':>8s} {'periph':>8s}"]
    info = {}
    for secure in (False, True):
        run, delta, n = run_energy(bundle_cnn, secure)
        label = "secure (ours)" if secure else "baseline"
        per_utt = delta.total_mj / n
        info[label] = per_utt
        rows.append(
            f"{label:16s} {per_utt:>8.2f} "
            f"{delta.domain_mj(CycleDomain.NORMAL_CPU) / n:>8.3f} "
            f"{delta.domain_mj(CycleDomain.SECURE_CPU) / n:>8.3f} "
            f"{delta.domain_mj(CycleDomain.MONITOR) / n:>8.3f} "
            f"{delta.domain_mj(CycleDomain.PERIPHERAL) / n:>8.3f}"
        )
    overhead = info["secure (ours)"] / info["baseline"]
    rows.append("")
    rows.append(f"energy overhead of the secure design: {overhead:.3f}x")
    write_result("t4_energy", "\n".join(rows))
    benchmark.extra_info["energy_overhead"] = overhead
    benchmark(lambda: None)

    # Shapes: secure costs more, but the same order of magnitude
    # (capture dominates; processing is the delta).
    assert 1.0 < overhead < 1.5


def test_t4_model_size_sweep(benchmark, provisioned_all):
    """Bigger models burn more secure-world energy per utterance."""
    rows = [f"{'arch':12s} {'model bytes':>12s} {'secure mJ/utt':>14s}"]
    series = []
    for arch, provisioned in provisioned_all.items():
        bundle = provisioned.bundle
        run, delta, n = run_energy(bundle, secure=True)
        secure_mj = delta.domain_mj(CycleDomain.SECURE_CPU) / n
        series.append((bundle.filter.classifier.size_bytes(), secure_mj))
        rows.append(f"{arch:12s} {bundle.filter.classifier.size_bytes():>12d} "
                    f"{secure_mj:>14.4f}")
    write_result("t4_model_sweep", "\n".join(rows))
    benchmark.extra_info["series"] = series
    benchmark(lambda: None)
