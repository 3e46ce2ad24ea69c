"""Tests: per-category leak analysis, event export, model-store properties."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.auditor import LeakAuditor
from repro.ml.dataset import SensitiveCategory, Utterance
from repro.obs.span import SpanTracer
from repro.sim.clock import SimClock


class TestCategoryBreakdown:
    def test_per_category_attribution(self):
        truth = [
            Utterance("the password is four two", SensitiveCategory.CREDENTIALS),
            Utterance("my asthma is getting worse", SensitiveCategory.HEALTH),
            Utterance("play some jazz", SensitiveCategory.MUSIC),
        ]
        auditor = LeakAuditor(truth)
        breakdown = auditor.report_by_category(
            ["the password is four two", "play some jazz"]
        )
        assert breakdown["credentials"] == {"total": 1, "reached_cloud": 1}
        assert breakdown["health"] == {"total": 1, "reached_cloud": 0}
        assert breakdown["music"] == {"total": 1, "reached_cloud": 1}

    def test_totals_match_flat_report(self):
        truth = [
            Utterance("the password is four two", SensitiveCategory.CREDENTIALS),
            Utterance("play some jazz", SensitiveCategory.MUSIC),
        ]
        auditor = LeakAuditor(truth)
        transcripts = ["the password is four two"]
        flat = auditor.report(transcripts)
        breakdown = auditor.report_by_category(transcripts)
        leaked = sum(
            b["reached_cloud"]
            for cat, b in breakdown.items()
            if SensitiveCategory(cat).sensitive
        )
        assert leaked == flat.sensitive_leaked_cloud


class TestTraceExport:
    def test_round_trip(self):
        tracer = SpanTracer(SimClock())
        tracer.emit("tz.gic", "configure", line=32)
        tracer.emit("optee.os", "boot")
        text = tracer.to_jsonl()
        events = [json.loads(line) for line in text.splitlines()]
        assert events == [sp.to_doc() for sp in tracer.spans]
        assert events[0]["category"] == "tz.gic"
        assert events[0]["attrs"] == {"line": 32}

    def test_filtered_export(self):
        tracer = SpanTracer(SimClock())
        tracer.emit("tz.fault", "violation")
        tracer.emit("attack.snoop", "run")
        text = tracer.to_jsonl("tz")
        assert "tz.fault" in text and "attack" not in text

    def test_empty_log(self):
        assert SpanTracer(SimClock()).to_jsonl() == ""

    def test_non_json_data_coerced(self):
        tracer = SpanTracer(SimClock())
        tracer.emit("c", "e", obj=object())
        (line,) = tracer.to_jsonl().splitlines()
        event = json.loads(line)
        assert isinstance(event["attrs"]["obj"], str)


class TestModelStoreProperties:
    @given(
        versions=st.lists(
            st.integers(min_value=1, max_value=50), min_size=1, max_size=10
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_property_installed_version_is_running_max(self, versions):
        """Whatever install order is attempted, the store's version is the
        max of the *accepted* installs, and acceptance is exactly
        'strictly greater than everything before'."""
        from repro.core.model_store import ModelStore, sign_package
        from repro.errors import TeeSecurityError
        from repro.optee.os import OpTeeOs
        from repro.optee.supplicant import TeeSupplicant
        from repro.tz.machine import TrustZoneMachine
        from repro.tz.worlds import World

        machine = TrustZoneMachine()
        tee = OpTeeOs(machine)
        tee.attach_supplicant(TeeSupplicant(machine))
        machine.cpu._set_world(World.SECURE)
        try:
            store = ModelStore(tee.storage, b"k" * 32)
            high = 0
            for version in versions:
                blob = sign_package("cnn", version, b"w" * 16, b"k" * 32)
                if version > high:
                    store.install(blob.to_bytes())
                    high = version
                else:
                    with pytest.raises(TeeSecurityError):
                        store.install(blob.to_bytes())
                assert store.installed_version() == high
        finally:
            machine.cpu._set_world(World.NORMAL)
