"""End-to-end tests for the ``repro audit`` subcommand."""

import json

import pytest

from repro.cli import main
from repro.devtools.audit.baseline import Baseline
from repro.devtools.checks import FINDINGS_SCHEMA

CLEAN_TREE = {
    "zone.py": """\
        class Zone:
            # repro: memo(resp: field=_cache, depends=[a], invalidator=none)
            a: int
            _cache: dict
        """,
}

BROKEN_TREE = {
    "util.py": """\
        import time


        def stamp():
            return time.time()
        """,
    "simulation/engine.py": """\
        from repro.util import stamp


        def step():
            return stamp()
        """,
}


@pytest.fixture
def in_tmp(tmp_path, monkeypatch):
    """Run the CLI from tmp_path so the default baseline lands there."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestAuditCommand:
    def test_clean_tree_exits_zero(self, write_tree, in_tmp, capsys):
        root = write_tree(CLEAN_TREE)
        assert main(["audit", str(root)]) == 0
        out = capsys.readouterr().out
        assert "repro audit: clean" in out
        assert "1 memos" in out

    def test_violation_exits_nonzero(self, write_tree, in_tmp, capsys):
        root = write_tree(BROKEN_TREE)
        assert main(["audit", str(root)]) == 1
        captured = capsys.readouterr()
        assert "REP013" in captured.out
        assert "1 violation(s)" in captured.err

    def test_json_envelope_matches_the_shared_schema(
        self, write_tree, in_tmp, capsys
    ):
        root = write_tree(BROKEN_TREE)
        assert main(["audit", str(root), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == FINDINGS_SCHEMA
        assert payload["tool"] == "repro-audit"
        (finding,) = payload["findings"]
        assert finding["rule"] == "REP013"
        assert set(finding) == {"rule", "path", "line", "message", "fix_hint"}
        assert payload["summary"]["modules"] == 2

    def test_update_baseline_then_rerun_accepts(
        self, write_tree, in_tmp, capsys
    ):
        root = write_tree(BROKEN_TREE)
        assert main(["audit", str(root), "--update-baseline"]) == 0
        baseline_file = in_tmp / "audit-baseline.json"
        assert baseline_file.exists()
        assert len(Baseline.load(baseline_file).entries) == 1
        capsys.readouterr()

        assert main(["audit", str(root)]) == 0
        assert "1 baseline-accepted" in capsys.readouterr().out

    def test_expired_entry_warns_without_strict(
        self, write_tree, in_tmp, capsys
    ):
        broken_root = write_tree(BROKEN_TREE)
        assert main(["audit", str(broken_root), "--update-baseline"]) == 0
        # "Fix" the finding by removing the clock read.
        (broken_root / "util.py").write_text(
            "def stamp():\n    return 0.0\n", encoding="utf-8"
        )
        capsys.readouterr()
        assert main(["audit", str(broken_root)]) == 0
        assert "no longer occurs" in capsys.readouterr().err

    def test_strict_fails_on_expired_entries(self, write_tree, in_tmp, capsys):
        broken_root = write_tree(BROKEN_TREE)
        assert main(["audit", str(broken_root), "--update-baseline"]) == 0
        (broken_root / "util.py").write_text(
            "def stamp():\n    return 0.0\n", encoding="utf-8"
        )
        capsys.readouterr()
        assert main(["audit", str(broken_root), "--strict"]) == 1

    def test_sarif_written_to_file(self, write_tree, in_tmp, capsys):
        root = write_tree(BROKEN_TREE)
        target = in_tmp / "findings.sarif"
        assert main(["audit", str(root), "--sarif", str(target)]) == 1
        log = json.loads(target.read_text(encoding="utf-8"))
        assert log["version"] == "2.1.0"
        (result,) = log["runs"][0]["results"]
        assert result["ruleId"] == "REP013"

    def test_sarif_to_stdout(self, write_tree, in_tmp, capsys):
        root = write_tree(CLEAN_TREE)
        assert main(["audit", str(root), "--sarif"]) == 0
        log = json.loads(capsys.readouterr().out)
        driver = log["runs"][0]["tool"]["driver"]
        assert [r["id"] for r in driver["rules"]] == [
            "REP010", "REP012", "REP013",
        ]

    def test_list_rules(self, in_tmp, capsys):
        assert main(["audit", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP010", "REP012", "REP013"):
            assert rule_id in out

    def test_not_a_directory_is_usage_error(self, in_tmp, capsys):
        assert main(["audit", str(in_tmp / "nope")]) == 2
        assert "not a package root" in capsys.readouterr().err
