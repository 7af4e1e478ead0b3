"""Tests for SARIF 2.1.0 rendering of audit findings."""

import json

from repro.devtools.audit.sarif import SARIF_VERSION, render_sarif, to_sarif
from repro.devtools.checks import Violation

RULES = [
    ("REP010", "memo mutators must invalidate", "stale caches are bugs"),
    ("REP012", "worker-boundary types must stay picklable", "pickle"),
]

FINDING = Violation(
    rule="REP010",
    path="src/repro/dns/zone.py",
    line=42,
    message="Zone.add mutates _rrsets without invalidating",
    fix_hint="call self._invalidate_response_cache()",
)


class TestToSarif:
    def test_top_level_shape(self):
        log = to_sarif([FINDING], RULES)
        assert log["version"] == SARIF_VERSION
        assert len(log["runs"]) == 1

    def test_driver_lists_every_rule_even_when_clean(self):
        log = to_sarif([], RULES)
        driver = log["runs"][0]["tool"]["driver"]
        assert driver["name"] == "repro-audit"
        assert [r["id"] for r in driver["rules"]] == ["REP010", "REP012"]
        assert log["runs"][0]["results"] == []

    def test_result_location_targets_github_code_scanning(self):
        log = to_sarif([FINDING], RULES)
        (result,) = log["runs"][0]["results"]
        assert result["ruleId"] == "REP010"
        assert result["level"] == "error"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == FINDING.path
        assert location["artifactLocation"]["uriBaseId"] == "%SRCROOT%"
        assert location["region"]["startLine"] == 42

    def test_fix_hint_is_appended_to_the_message(self):
        log = to_sarif([FINDING], RULES)
        text = log["runs"][0]["results"][0]["message"]["text"]
        assert FINDING.message in text
        assert "Fix: call self._invalidate_response_cache()." in text

    def test_line_zero_findings_clamp_to_one(self):
        """SARIF regions are 1-based; whole-file findings use line 1."""
        whole_file = Violation(rule="REP012", path="p.py", line=0, message="m")
        log = to_sarif([whole_file], RULES)
        region = (
            log["runs"][0]["results"][0]["locations"][0]
            ["physicalLocation"]["region"]
        )
        assert region["startLine"] == 1


class TestRenderSarif:
    def test_renders_parseable_json_with_trailing_newline(self):
        rendered = render_sarif([FINDING], RULES)
        assert rendered.endswith("\n")
        assert json.loads(rendered)["version"] == SARIF_VERSION

    def test_tool_name_is_overridable(self):
        rendered = render_sarif([], RULES, tool_name="repro-check")
        parsed = json.loads(rendered)
        assert parsed["runs"][0]["tool"]["driver"]["name"] == "repro-check"
