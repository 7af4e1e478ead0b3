"""Tests for the accepted-findings baseline (add/expire semantics)."""

import json

import pytest

from repro.devtools.audit.baseline import (
    BASELINE_SCHEMA,
    Baseline,
    fingerprint,
)
from repro.devtools.checks import Violation


def make_violation(rule="REP010", path="src/repro/dns/zone.py", line=10,
                   message="mutates without invalidating") -> Violation:
    return Violation(rule=rule, path=path, line=line, message=message)


class TestFingerprint:
    def test_line_number_does_not_change_identity(self):
        assert fingerprint(make_violation(line=10)) == fingerprint(
            make_violation(line=99)
        )

    def test_rule_path_and_message_all_discriminate(self):
        base = fingerprint(make_violation())
        assert fingerprint(make_violation(rule="REP012")) != base
        assert fingerprint(make_violation(path="other.py")) != base
        assert fingerprint(make_violation(message="different")) != base

    def test_fingerprint_is_stable_across_runs(self):
        """Committed baselines depend on this exact derivation."""
        violation = Violation(rule="R", path="p", line=1, message="m")
        assert fingerprint(violation) == fingerprint(violation)
        assert len(fingerprint(violation)) == 24  # blake2b digest_size=12


class TestLoadSave:
    def test_missing_file_is_an_empty_baseline(self, tmp_path):
        baseline = Baseline.load(tmp_path / "absent.json")
        assert baseline.entries == {}

    def test_roundtrip_preserves_entries(self, tmp_path):
        violation = make_violation()
        baseline = Baseline.empty().updated_from((violation,))
        target = tmp_path / "baseline.json"
        baseline.save(target)
        restored = Baseline.load(target)
        assert violation in restored
        (entry,) = restored.entries.values()
        assert entry.rule == violation.rule
        assert entry.path == violation.path

    def test_unknown_schema_is_rejected_loudly(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps({"schema": "bogus/9", "entries": []}),
                          encoding="utf-8")
        with pytest.raises(ValueError, match="unsupported baseline schema"):
            Baseline.load(target)

    def test_saved_file_carries_the_schema_tag(self, tmp_path):
        target = tmp_path / "baseline.json"
        Baseline.empty().save(target)
        data = json.loads(target.read_text(encoding="utf-8"))
        assert data["schema"] == BASELINE_SCHEMA
        assert data["entries"] == []

    def test_saved_entries_are_sorted_for_stable_diffs(self, tmp_path):
        violations = (
            make_violation(path="z.py", message="zz"),
            make_violation(path="a.py", message="aa"),
        )
        target = tmp_path / "baseline.json"
        Baseline.empty().updated_from(violations).save(target)
        data = json.loads(target.read_text(encoding="utf-8"))
        assert [e["path"] for e in data["entries"]] == ["a.py", "z.py"]


class TestSplit:
    def test_new_accepted_and_expired(self):
        accepted_v = make_violation(message="accepted finding")
        gone_v = make_violation(message="finding that was fixed")
        baseline = Baseline.empty().updated_from((accepted_v, gone_v))

        fresh_v = make_violation(message="a brand new finding")
        new, accepted, expired = baseline.split((accepted_v, fresh_v))

        assert new == (fresh_v,)
        assert accepted == (accepted_v,)
        (expired_entry,) = expired
        assert expired_entry.fingerprint == fingerprint(gone_v)

    def test_clean_run_against_empty_baseline(self):
        new, accepted, expired = Baseline.empty().split(())
        assert (new, accepted, expired) == ((), (), ())

    def test_line_shift_keeps_a_finding_accepted(self):
        """Unrelated edits must not churn the baseline."""
        baseline = Baseline.empty().updated_from((make_violation(line=10),))
        new, accepted, expired = baseline.split((make_violation(line=42),))
        assert new == ()
        assert len(accepted) == 1
        assert expired == ()


class TestUpdatedFrom:
    def test_new_entries_get_the_todo_placeholder(self):
        baseline = Baseline.empty().updated_from((make_violation(),))
        (entry,) = baseline.entries.values()
        assert "TODO" in entry.justification

    def test_existing_justifications_are_preserved(self):
        violation = make_violation()
        first = Baseline.empty().updated_from((violation,))
        key = fingerprint(violation)
        first.entries[key] = first.entries[key].__class__(
            fingerprint=key,
            rule=violation.rule,
            path=violation.path,
            message=violation.message,
            justification="reviewed 2026-08: intentional, see DESIGN §14",
        )
        second = first.updated_from((violation,))
        assert second.entries[key].justification.startswith("reviewed 2026-08")

    def test_absent_findings_are_dropped(self):
        violation = make_violation()
        baseline = Baseline.empty().updated_from((violation,))
        rewritten = baseline.updated_from(())
        assert rewritten.entries == {}
