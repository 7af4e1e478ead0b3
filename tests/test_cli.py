"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, parse_scheme
from repro.core.policies import AdaptiveLFUPolicy, LRUPolicy


class TestParseScheme:
    def test_named_schemes(self):
        assert parse_scheme("vanilla").label == "vanilla"
        assert parse_scheme("refresh").ttl_refresh
        assert parse_scheme("serve-stale").serve_stale
        combo = parse_scheme("combination")
        assert combo.ttl_refresh and combo.long_ttl is not None

    def test_policy_schemes(self):
        config = parse_scheme("a-lfu:5")
        policy = config.make_renewal_policy()
        assert isinstance(policy, AdaptiveLFUPolicy)
        assert policy.credit == 5
        assert isinstance(parse_scheme("LRU:3").make_renewal_policy(), LRUPolicy)

    def test_long_ttl(self):
        assert parse_scheme("long-ttl:7").long_ttl == 7 * 86400.0

    @pytest.mark.parametrize("bad", ["mru:3", "a-lfu:x", "bogus", "long-ttl:"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_scheme(bad)


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out and "figures" in out

    def test_replay_no_attack(self, capsys):
        code = main(["replay", "--scale", "tiny", "--scheme", "refresh",
                     "--attack-hours", "0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall SR failures" in out

    def test_replay_with_attack(self, capsys):
        code = main(["replay", "--scale", "tiny", "--scheme", "vanilla"])
        assert code == 0
        out = capsys.readouterr().out
        assert "SR failures" in out and "CS failures" in out

    def test_replay_bad_scheme_exits_2(self, capsys):
        assert main(["replay", "--scheme", "bogus", "--scale", "tiny"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_with_defenses(self, capsys):
        code = main(["replay", "--scale", "tiny", "--scheme", "vanilla",
                     "--fetch-budget", "8", "--nxns-cap", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fetch-budget(8)" in out and "nxns-cap(4)" in out

    def test_replay_negative_defense_exits_2(self, capsys):
        assert main(["replay", "--scale", "tiny",
                     "--fetch-budget", "-1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_table_1(self, capsys):
        assert main(["table", "1", "--scale", "tiny"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_unknown_figure_number(self, capsys):
        assert main(["figure", "99", "--scale", "tiny"]) == 2

    def test_figure_3(self, capsys):
        assert main(["figure", "3", "--scale", "tiny", "--traces", "1"]) == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_trace_roundtrip(self, tmp_path, capsys):
        out_file = tmp_path / "cli.trace"
        assert main(["trace", "generate", "--out", str(out_file),
                     "--days", "1", "--scale", "tiny"]) == 0
        assert out_file.exists()
        assert main(["trace", "stats", str(out_file)]) == 0
        assert "requests in" in capsys.readouterr().out

    def test_trace_stats_missing_file(self, capsys):
        assert main(["trace", "stats", "/nonexistent/file.trace"]) == 2

    def test_parser_version(self):
        parser = build_parser()
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_maxdamage(self, capsys):
        assert main(["maxdamage", "--scale", "tiny", "--budget", "3"]) == 0
        assert "budget = 3" in capsys.readouterr().out

    def test_latency(self, capsys):
        assert main(["latency", "--scale", "tiny"]) == 0
        assert "Response time" in capsys.readouterr().out


    def test_info_lists_registry_experiments(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        for name in ("churn", "latency", "dnssec", "maxdamage",
                     "attack-grid", "multiseed"):
            assert name in out

    def test_registry_subcommands_parse(self):
        parser = build_parser()
        args = parser.parse_args(["attack-grid", "--scheme", "refresh",
                                  "--durations-hours", "3,6"])
        assert args.scheme == "refresh"
        args = parser.parse_args(["churn", "--churn-fraction", "0.4"])
        assert args.churn_fraction == 0.4


class TestObservabilityCommands:
    def test_replay_writes_events_and_metrics(self, tmp_path, capsys):
        events = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.prom"
        code = main(["replay", "--scale", "tiny", "--attack-hours", "1",
                     "--events", str(events), "--metrics", str(metrics)])
        assert code == 0
        out = capsys.readouterr().out
        assert "events emitted" in out
        lines = events.read_text(encoding="utf-8").splitlines()
        assert lines and all(line.startswith('{"') for line in lines)
        assert "repro_events_total" in metrics.read_text(encoding="utf-8")

    def test_replay_events_deterministic(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            assert main(["replay", "--scale", "tiny", "--attack-hours", "1",
                         "--events", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_events_subcommand(self, tmp_path, capsys):
        out_file = tmp_path / "tail.jsonl"
        code = main(["events", "--scale", "tiny", "--attack-hours", "1",
                     "--last", "5", "--out", str(out_file)])
        assert code == 0
        out = capsys.readouterr().out
        assert "stub.query" in out
        assert "last 5 events" in out
        assert out_file.exists()
