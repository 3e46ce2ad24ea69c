"""Unit tests: the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_subcommands_parse(self):
        parser = build_parser()
        for command in ("demo", "privacy", "profile", "trace", "fleet",
                        "health", "tcb", "models", "info", "analyze"):
            args = parser.parse_args([command])
            assert callable(args.func)

    def test_profile_options(self):
        args = build_parser().parse_args(
            ["profile", "--utterances", "4", "--continuous",
             "--output", "out.json"]
        )
        assert args.utterances == 4
        assert args.continuous
        assert args.output == "out.json"

    def test_profile_output_defaults_to_repo_root(self):
        # None means "resolve against the repo checkout", not the CWD.
        assert build_parser().parse_args(["profile"]).output is None

    def test_fleet_options(self):
        args = build_parser().parse_args(
            ["fleet", "--devices", "3", "--metrics-out", "m.txt"]
        )
        assert args.devices == 3
        assert args.metrics_out == "m.txt"

    def test_health_fault_profile_choices(self):
        args = build_parser().parse_args(
            ["health", "--fault-profile", "lossy"]
        )
        assert args.fault_profile == "lossy"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["health", "--fault-profile", "chaos"])

    def test_trace_format_choices(self):
        args = build_parser().parse_args(["trace", "--format", "chrome"])
        assert args.format == "chrome"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--format", "xml"])

    def test_seed_option(self):
        args = build_parser().parse_args(["demo", "--seed", "99"])
        assert args.seed == 99

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "dram_secure" in out
        assert "world switch" in out

    def test_tcb(self, capsys):
        assert main(["tcb"]) == 0
        out = capsys.readouterr().out
        assert "reduction" in out
        assert "full driver" in out
        assert "dead TCB" in out

    def test_analyze_clean_with_baseline(self, capsys):
        assert main(["analyze", "--fail-on-new"]) == 0
        out = capsys.readouterr().out
        assert "0 new" in out

    def test_analyze_json_report(self, capsys, tmp_path):
        import json

        report = tmp_path / "analysis.json"
        assert main(["analyze", "--format", "json",
                     "--output", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["new"] == []
        assert json.loads(capsys.readouterr().out) == doc

    def test_analyze_no_baseline_reports_accepted_findings(self, capsys):
        # Without the baseline the accepted W002 findings count as new.
        assert main(["analyze", "--no-baseline", "--fail-on-new"]) == 1
        assert "W002" in capsys.readouterr().out

    def test_demo(self, capsys):
        assert main(["demo", "--utterances", "4", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "forwarded" in out
        assert "world switches" in out

    def test_privacy(self, capsys):
        assert main(["privacy", "--utterances", "6", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "secure (ours)" in out
        assert "100%" in out and "0%" in out

    def test_profile(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "profile.json"
        assert main(["profile", "--utterances", "2", "--seed", "5",
                     "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "secure pipeline" in out
        assert "baseline pipeline" in out
        for stage in ("capture", "asr", "classify", "relay"):
            assert stage in out
        doc = json.loads(out_path.read_text())
        assert {r["pipeline"] for r in doc["stages"]} == {
            "secure", "baseline",
        }
        for row in doc["stages"]:
            assert row["p50_cycles"] <= row["p95_cycles"]

    def test_trace_jsonl(self, capsys):
        import json

        assert main(["trace", "--utterances", "2", "--seed", "5",
                     "--category", "stage.secure"]) == 0
        lines = [l for l in capsys.readouterr().out.splitlines()
                 if l.startswith("{")]
        assert lines
        docs = [json.loads(l) for l in lines]
        assert all(d["category"] == "stage.secure" for d in docs)
        assert {d["name"] for d in docs} >= {"capture", "asr"}

    def test_trace_chrome(self, capsys):
        import json

        assert main(["trace", "--utterances", "2", "--seed", "5",
                     "--format", "chrome"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["traceEvents"]
        assert all(e["ph"] == "X" for e in doc["traceEvents"])

    def test_fleet(self, capsys, tmp_path):
        import json

        out = tmp_path / "fleet.json"
        metrics = tmp_path / "fleet.openmetrics"
        assert main(["fleet", "--devices", "2", "--utterances", "2",
                     "--seed", "5", "--output", str(out),
                     "--metrics-out", str(metrics)]) == 0
        text = capsys.readouterr().out
        assert "relay success" in text
        doc = json.loads(out.read_text())
        assert len(doc["devices"]) == 2
        assert doc["fleet"]["latency_hist"]["count"] == (
            doc["fleet"]["utterances"]
        )
        om = metrics.read_text()
        assert om.endswith("# EOF\n")
        assert "repro_fleet_e2e_latency_cycles_count" in om

    def test_health_violation_exits_nonzero_and_dumps(self, capsys, tmp_path):
        import json

        dump = tmp_path / "flight.jsonl"
        # A 1 ns latency budget cannot hold: the rule fires, the flight
        # recorder dumps, and the exit code goes nonzero for alerting.
        assert main(["health", "--utterances", "2", "--seed", "5",
                     "--latency-budget-ms", "0.000001",
                     "--dump", str(dump)]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        assert "flight recorder" in out
        docs = [json.loads(l) for l in dump.read_text().splitlines()]
        assert {d["name"] for d in docs} >= {"capture", "asr"}

    def test_trace_events(self, capsys):
        import json

        # Events are zero-length spans in the same stream as stage spans.
        assert main(["trace", "--utterances", "2", "--seed", "5",
                     "--category", "optee.os", "--limit", "0"]) == 0
        docs = [json.loads(line)
                for line in capsys.readouterr().out.splitlines()]
        assert {"boot", "install_ta", "open_session"} <= {
            d["name"] for d in docs
        }
        assert all(d["category"] == "optee.os" for d in docs)
        assert all(d["start"] == d["end"] for d in docs)


class TestTeardown:
    def test_demo_closes_pipeline(self, capsys, monkeypatch):
        import repro

        real = repro.build_demo_pipeline
        built = {}

        def capture(**kwargs):
            secure, workload, platform = real(**kwargs)
            built["pipeline"], built["platform"] = secure, platform
            return secure, workload, platform

        monkeypatch.setattr(repro, "build_demo_pipeline", capture)
        assert main(["demo", "--utterances", "2", "--seed", "5"]) == 0
        pipeline, platform = built["pipeline"], built["platform"]
        assert pipeline.session.closed
        assert platform.tee.ta_instance(pipeline.ta_uuid) is None

    def test_trace_closes_pipeline(self, capsys, monkeypatch):
        import repro

        real = repro.build_demo_pipeline
        built = {}

        def capture(**kwargs):
            secure, workload, platform = real(**kwargs)
            built["pipeline"], built["platform"] = secure, platform
            return secure, workload, platform

        monkeypatch.setattr(repro, "build_demo_pipeline", capture)
        assert main(["trace", "--utterances", "2", "--seed", "5"]) == 0
        pipeline, platform = built["pipeline"], built["platform"]
        assert pipeline.session.closed
        assert platform.tee.ta_instance(pipeline.ta_uuid) is None

    def test_privacy_closes_both_pipelines(self, capsys, monkeypatch):
        from repro.core.baseline import BaselinePipeline
        from repro.core.pipeline import SecurePipeline

        closed = []
        for cls in (SecurePipeline, BaselinePipeline):
            orig = cls.close

            def wrapper(self, _orig=orig, _name=cls.__name__):
                closed.append(_name)
                return _orig(self)

            monkeypatch.setattr(cls, "close", wrapper)
        assert main(["privacy", "--utterances", "4", "--seed", "5"]) == 0
        assert closed.count("SecurePipeline") == 1
        assert closed.count("BaselinePipeline") == 1


def _subparser(name: str):
    """The ``argparse`` parser of one ``repro`` subcommand."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


class TestHealthExitCodes:
    """The documented contract: 0 ok, 1 violation/stall, 2 NO DATA."""

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["health", "--help"])
        text = capsys.readouterr().out
        assert "exit codes" in text
        assert "NO DATA" in text
        # Look the flags up among the parser's own option strings: a
        # flag named only inside another flag's help text is no flag.
        health = _subparser("health")
        options = {s for a in health._actions for s in a.option_strings}
        assert "--trace-only" in options
        assert "--trace-ids" not in options

    def test_removed_trace_ids_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["health", "--trace-ids"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --trace-ids" in capsys.readouterr().err

    def test_fleet_trace_flags_parse(self):
        args = build_parser().parse_args(
            ["fleet", "--traces", "t.jsonl", "--trace-chrome", "c.json"]
        )
        assert args.traces == "t.jsonl"
        assert args.trace_chrome == "c.json"
