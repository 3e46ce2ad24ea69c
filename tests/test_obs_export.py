"""Unit tests: the OpenMetrics registry exporter."""

from repro.obs.export import sanitize_name, to_openmetrics
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
