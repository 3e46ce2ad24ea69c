"""Edge cases of the continuous-capture mode."""

import numpy as np
import pytest

from repro.core.pipeline import SecurePipeline
from repro.core.platform import IotPlatform
from repro.core.ta_filter import CMD_PROCESS_STREAM
from repro.optee.params import Params, Value
from repro.peripherals.audio import BufferSource


@pytest.fixture
def stream_pipeline(provisioned):
    platform = IotPlatform.create(seed=301)
    pipeline = SecurePipeline(platform, provisioned.bundle)
    return platform, pipeline


class TestStreamEdges:
    def test_silent_stream_yields_no_decisions(self, stream_pipeline):
        platform, pipeline = stream_pipeline
        platform.mic.swap_source(
            BufferSource(np.zeros(8_000, dtype=np.int16))
        )
        records = pipeline.session.invoke(
            CMD_PROCESS_STREAM, Params.of(Value(a=8_000))
        )
        assert records == []
        assert platform.cloud.received_transcripts == []

    def test_noise_only_stream_sends_nothing_sensitive(self, stream_pipeline):
        """Loud non-speech: VAD fires, ASR finds no words, empty
        transcripts classify benign — nothing sensitive can leak because
        nothing sensitive was said."""
        platform, pipeline = stream_pipeline
        rng = np.random.default_rng(0)
        noise = (rng.normal(0, 9_000, 12_000)).clip(-32768, 32767).astype(
            np.int16
        )
        platform.mic.swap_source(BufferSource(noise))
        records = pipeline.session.invoke(
            CMD_PROCESS_STREAM, Params.of(Value(a=12_000))
        )
        for record in records:
            assert not record["sensitive"] or not record["forwarded"]

    def test_single_word_stream(self, stream_pipeline, provisioned):
        platform, pipeline = stream_pipeline
        pcm = provisioned.bundle.vocoder.render("jazz")
        padded = np.concatenate(
            [np.zeros(2_000, dtype=np.int16), pcm,
             np.zeros(2_000, dtype=np.int16)]
        )
        platform.mic.swap_source(BufferSource(padded))
        records = pipeline.session.invoke(
            CMD_PROCESS_STREAM, Params.of(Value(a=len(padded)))
        )
        assert len(records) == 1
        assert records[0]["transcript"] == "jazz"

    def test_empty_workload_continuous(self, stream_pipeline):
        from repro.core.workload import UtteranceWorkload

        _, pipeline = stream_pipeline
        with pytest.raises(Exception):
            # Zero-sample stream is a degenerate request; the concatenation
            # in process_continuous raises before any TEE call.
            pipeline.process_continuous(UtteranceWorkload(items=[]))

    def test_merged_utterances_reported_not_dropped(self, stream_pipeline,
                                                    provisioned):
        """A gap shorter than the VAD hangover merges adjacent utterances
        into one segment.  The run must report the under-segmentation,
        not silently truncate the ground-truth pairing (the old
        ``zip``-only behaviour)."""
        from tests.test_core_pipeline import MIXED, make_workload

        platform, pipeline = stream_pipeline
        workload = make_workload(provisioned, [MIXED[0], MIXED[2]])
        run = pipeline.process_continuous(workload, gap_samples=64)
        assert run.under_segmented >= 1
        assert run.over_segmented == 0
        assert len(run.results) == len(workload.items) - run.under_segmented
        mismatches = [
            e for e in platform.machine.obs.tracer.spans_in("core.pipeline")
            if e.name == "segmentation_mismatch"
        ]
        assert len(mismatches) == 1

    def test_split_utterance_keeps_surplus_records(self, stream_pipeline,
                                                   provisioned):
        """A long internal pause splits one utterance into two segments;
        the surplus decision record is preserved, not discarded."""
        from repro.core.workload import UtteranceWorkload, WorkloadItem
        from repro.ml.dataset import SensitiveCategory, Utterance

        platform, pipeline = stream_pipeline
        render = provisioned.bundle.vocoder.render
        pcm = np.concatenate(
            [render("jazz"), np.zeros(2_000, dtype=np.int16), render("jazz")]
        )
        item = WorkloadItem(
            utterance=Utterance("jazz", SensitiveCategory.WEATHER), pcm=pcm
        )
        run = pipeline.process_continuous(
            UtteranceWorkload(items=[item]), gap_samples=2_000
        )
        assert run.over_segmented == 1
        assert run.under_segmented == 0
        assert len(run.results) == 1
        assert len(run.unpaired_records) == 1
        assert run.unpaired_records[0]["transcript"] == "jazz"

    def test_processing_latency_non_negative(self, stream_pipeline,
                                             provisioned):
        """Regression: every result used to get the whole-run domain delta
        as its ``domain_cycles`` while latency was divided per-record, so
        subtracting the (whole-run) peripheral share went negative."""
        from tests.test_core_pipeline import MIXED, make_workload

        _, pipeline = stream_pipeline
        workload = make_workload(provisioned, MIXED)
        run = pipeline.process_continuous(workload)
        assert len(run.results) > 1
        assert (run.processing_latency_cycles() >= 0).all()
        assert (run.latencies > 0).all()

    def test_processing_latency_non_negative_when_under_segmented(
            self, stream_pipeline, provisioned):
        from tests.test_core_pipeline import MIXED, make_workload

        _, pipeline = stream_pipeline
        workload = make_workload(provisioned, [MIXED[0], MIXED[2]])
        run = pipeline.process_continuous(workload, gap_samples=64)
        assert run.under_segmented >= 1
        assert (run.processing_latency_cycles() >= 0).all()

    def test_processing_latency_non_negative_when_over_segmented(
            self, stream_pipeline, provisioned):
        from repro.core.workload import UtteranceWorkload, WorkloadItem
        from repro.ml.dataset import SensitiveCategory, Utterance

        _, pipeline = stream_pipeline
        render = provisioned.bundle.vocoder.render
        pcm = np.concatenate(
            [render("jazz"), np.zeros(2_000, dtype=np.int16), render("jazz")]
        )
        item = WorkloadItem(
            utterance=Utterance("jazz", SensitiveCategory.WEATHER), pcm=pcm
        )
        run = pipeline.process_continuous(
            UtteranceWorkload(items=[item]), gap_samples=2_000
        )
        assert run.over_segmented == 1
        assert (run.processing_latency_cycles() >= 0).all()

    def test_totals_reconstruct_whole_run_deltas(self, stream_pipeline,
                                                 provisioned):
        """Regression: dividing by the raw VAD segment count under-counted
        totals whenever segmentation disagreed.  The per-result slices
        must sum back to the measured whole-run clock and energy deltas,
        per domain and in total."""
        from tests.test_core_pipeline import MIXED, make_workload

        platform, pipeline = stream_pipeline
        workload = make_workload(provisioned, MIXED)
        clock_before = platform.machine.clock.snapshot()
        energy_before = platform.energy.snapshot()
        run = pipeline.process_continuous(workload)
        delta = platform.machine.clock.snapshot().delta(clock_before)
        energy = platform.energy.delta_since(energy_before)

        assert run.total_latency_cycles() == sum(delta.values())
        assert run.summary()["total_latency_cycles"] == sum(delta.values())
        per_domain = {}
        for r in run.results:
            for domain, cycles in r.domain_cycles.items():
                per_domain[domain] = per_domain.get(domain, 0) + cycles
        assert per_domain == {d: v for d, v in delta.items() if v}
        assert run.total_energy_mj() == pytest.approx(energy.total_mj)

    def test_back_to_back_streams_accumulate_stats(self, stream_pipeline,
                                                   provisioned):
        platform, pipeline = stream_pipeline
        from repro.core.workload import UtteranceWorkload
        from repro.ml.dataset import Corpus, SensitiveCategory, Utterance

        corpus = Corpus([
            Utterance("set a timer for five minutes",
                      SensitiveCategory.TIMER)
        ])
        workload = UtteranceWorkload.from_corpus(
            corpus, provisioned.bundle.vocoder
        )
        run1 = pipeline.process_continuous(workload)
        run2 = pipeline.process_continuous(workload)
        assert len(run1) == len(run2) == 1
        assert run2.stage_cycles["vad"] > run1.stage_cycles["vad"]
