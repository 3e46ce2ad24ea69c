"""Unit tests: OpenMetrics and JSONL registry exporters."""

import json

from repro.obs.export import sanitize_name, to_jsonl, to_openmetrics
from repro.obs.metrics import MetricsRegistry


def populated() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.inc("tz.smc", 3)
    reg.inc("relay.sent", 7)
    reg.set("relay.queue_depth", 2)
    for v in (0, 100, 1_000, 10_000):
        reg.observe("stage.secure.asr.cycles", v)
    return reg


class TestSanitize:
    def test_dots_become_underscores(self):
        assert sanitize_name("tz.smc") == "tz_smc"

    def test_leading_digit_prefixed(self):
        assert sanitize_name("9lives")[0] == "_"

    def test_illegal_chars_replaced(self):
        assert sanitize_name("a-b c") == "a_b_c"


class TestOpenMetrics:
    def test_counters_gauges_histograms_rendered(self):
        text = to_openmetrics(populated())
        assert "# TYPE repro_tz_smc counter" in text
        assert "repro_tz_smc_total 3" in text
        assert "# TYPE repro_relay_queue_depth gauge" in text
        assert "repro_relay_queue_depth 2" in text
        assert "# TYPE repro_stage_secure_asr_cycles histogram" in text
        assert "repro_stage_secure_asr_cycles_count 4" in text
        assert text.endswith("# EOF\n")

    def test_histogram_buckets_are_cumulative(self):
        text = to_openmetrics(populated())
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_stage_secure_asr_cycles_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 4  # le="+Inf" covers everything

    def test_empty_registry_is_just_eof(self):
        assert to_openmetrics(MetricsRegistry()) == "# EOF\n"


def parse_jsonl(text: str) -> dict[tuple[str, str], dict]:
    """The JSONL export keyed by ``(kind, name)``."""
    docs = [json.loads(line) for line in text.splitlines()]
    return {(d["kind"], d.get("name", "")): d for d in docs}


class TestJsonlRoundTrip:
    def test_snapshot_survives(self):
        reg = populated()
        docs = parse_jsonl(to_jsonl(reg))
        assert {k: d.get("value") for k, d in docs.items()
                if k[0] != "histogram"} == {
            ("counter", "relay.sent"): 7,
            ("counter", "tz.smc"): 3,
            ("gauge", "relay.queue_depth"): 2,
        }
        assert ("histogram", "stage.secure.asr.cycles") in docs

    def test_histogram_state_survives_not_just_summary(self):
        reg = populated()
        docs = parse_jsonl(to_jsonl(reg))
        orig = reg.histogram("stage.secure.asr.cycles")
        state = docs[("histogram", "stage.secure.asr.cycles")]["state"]
        # Full bucket state plus retained samples, not point summaries.
        assert state == orig.to_doc()
        assert state["samples"] == [0.0, 100.0, 1_000.0, 10_000.0]

    def test_lines_are_valid_json(self):
        for line in to_jsonl(populated()).splitlines():
            json.loads(line)


class TestMergedRegistryExposition:
    """Histogram exposition stays well-formed under fleet merges."""

    def _merged(self) -> MetricsRegistry:
        a, b = populated(), populated()
        b.observe("stage.secure.asr.cycles", 100_000)
        a.merge(b)
        return a

    def test_merged_counts_and_cumulative_buckets(self):
        text = to_openmetrics(self._merged())
        assert "repro_stage_secure_asr_cycles_count 9" in text
        counts = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_stage_secure_asr_cycles_bucket")
        ]
        assert counts == sorted(counts)
        assert counts[-1] == 9

    def test_weighted_histograms_expose_weighted_counts(self):
        a = MetricsRegistry()
        a.set_sampling(4)
        for v in range(8):
            a.observe("fleet.lat", float(v + 1))
        b = MetricsRegistry()
        b.observe("fleet.lat", 3.0)
        a.merge(b)
        text = to_openmetrics(a)
        # 2 kept samples at weight 4, plus one unsampled observation.
        assert "repro_fleet_lat_count 9" in text

    def test_merged_registry_round_trips_through_jsonl(self):
        reg = self._merged()
        docs = parse_jsonl(to_jsonl(reg))
        state = docs[("histogram", "stage.secure.asr.cycles")]["state"]
        merged = reg.histogram("stage.secure.asr.cycles")
        assert state == merged.to_doc()
        assert state["count"] == 9


class TestSnapshotRingJsonl:
    def test_ring_survives_round_trip(self):
        reg = populated()
        reg.inc("fleet.utterances", 2)
        reg.record_snapshot(500)
        reg.inc("fleet.utterances", 1)
        reg.record_snapshot(900)
        ring = parse_jsonl(to_jsonl(reg))[("snapshots", "")]["ring"]
        assert ring == [s.to_doc() for s in reg.snapshots]
        assert [s["counters"]["fleet.utterances"] for s in ring] == [2, 3]

    def test_empty_ring_adds_no_line(self):
        text = to_jsonl(populated())
        assert '"snapshots"' not in text
