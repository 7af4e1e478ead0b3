"""Tests for the determinism lint framework (``repro check``).

Each rule gets three fixtures: a positive hit, clean code, and a
``# repro: ignore[...]`` suppression.  The fixtures are written into a
tmp directory whose layout mimics the real tree, because several rules
scope themselves by path (``analysis/``, ``experiments/``, ...).
"""

import json
import textwrap
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.devtools.cli import check_paths
from repro.devtools.checks import (
    FINDINGS_SCHEMA,
    CheckReport,
    parse_suppressions,
    run_checks,
)

REPO_ROOT = Path(repro.__file__).resolve().parents[2]


def write_snippet(tmp_path: Path, relpath: str, source: str) -> Path:
    """Write ``source`` (dedented) at ``relpath`` under ``tmp_path``."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return target


def check_snippet(tmp_path: Path, relpath: str, source: str) -> CheckReport:
    """Write ``source`` at ``relpath`` under ``tmp_path`` and lint it."""
    return run_checks([write_snippet(tmp_path, relpath, source)])


FLOAT_EQUALITY = "def at_zero(rate: float) -> bool:\n    return rate == 0.0\n"


def rule_ids(report: CheckReport) -> list[str]:
    return [violation.rule for violation in report.violations]


class TestSuppressionParsing:
    def test_bare_ignore_suppresses_all(self):
        suppressed = parse_suppressions("x = 1  # repro: ignore\n")
        assert suppressed[1] == frozenset(("*",))

    def test_rule_list(self):
        suppressed = parse_suppressions("x = 1  # repro: ignore[REP001, REP003]\n")
        assert suppressed[1] == frozenset(("REP001", "REP003"))

    def test_plain_comment_is_not_a_suppression(self):
        assert parse_suppressions("x = 1  # a comment\n") == {}

    def test_rule_ids_are_case_normalised(self):
        suppressed = parse_suppressions("x = 1  # repro: ignore[rep001]\n")
        assert suppressed[1] == frozenset(("REP001",))

    def test_whitespace_inside_bracket_list(self):
        suppressed = parse_suppressions(
            "x = 1  # repro: ignore[ REP001 ,REP003,  rep005 ]\n"
        )
        assert suppressed[1] == frozenset(("REP001", "REP003", "REP005"))

    def test_empty_entries_in_rule_list_are_dropped(self):
        suppressed = parse_suppressions("x = 1  # repro: ignore[REP001,,]\n")
        assert suppressed[1] == frozenset(("REP001",))

    def test_multiple_markers_on_one_line_union(self):
        suppressed = parse_suppressions(
            "x = 1  # repro: ignore[REP001] # repro: ignore[REP002]\n"
        )
        assert suppressed[1] == frozenset(("REP001", "REP002"))

    def test_bare_marker_next_to_rule_list_still_suppresses_all(self):
        suppressed = parse_suppressions(
            "x = 1  # repro: ignore # repro: ignore[REP001]\n"
        )
        assert "*" in suppressed[1]

    def test_marker_after_unrelated_comment_text(self):
        suppressed = parse_suppressions(
            "x = 1  # see DESIGN.md  # repro: ignore[REP001]\n"
        )
        assert suppressed[1] == frozenset(("REP001",))

    def test_extra_spaces_around_marker_keywords(self):
        suppressed = parse_suppressions("x = 1  #  repro:   ignore\n")
        assert suppressed[1] == frozenset(("*",))

    def test_marker_inside_a_string_does_not_silence_its_line(self, tmp_path):
        report = check_snippet(tmp_path, "simulation/clock.py", """\
            import time

            def stamp() -> float:
                return time.time() or float("# repro: ignore[REP001]")
            """)
        assert rule_ids(report) == ["REP001"]
        assert report.suppressed_count == 0

    def test_trailing_comment_after_a_string_still_silences(self, tmp_path):
        report = check_snippet(tmp_path, "simulation/clock.py", """\
            import time

            def stamp() -> float:
                return time.time() or float("#")  # repro: ignore[REP001]
            """)
        assert report.clean
        assert report.suppressed_count == 1

    def test_markers_documented_in_a_docstring_are_not_suppressions(self):
        """checks.py's docstring shows the marker syntax; none counts."""
        source = (REPO_ROOT / "src/repro/devtools/checks.py").read_text(
            encoding="utf-8"
        )
        assert parse_suppressions(source) == {}


class TestWallClockRule:
    def test_flags_time_time(self, tmp_path):
        report = check_snippet(tmp_path, "simulation/clock.py", """\
            import time

            def stamp() -> float:
                return time.time()
            """)
        assert rule_ids(report) == ["REP001"]
        assert report.violations[0].line == 4

    def test_flags_datetime_now_via_alias(self, tmp_path):
        report = check_snippet(tmp_path, "simulation/clock.py", """\
            from datetime import datetime as dt

            def stamp():
                return dt.now()
            """)
        assert "REP001" in rule_ids(report)

    def test_clean_simulated_clock(self, tmp_path):
        report = check_snippet(tmp_path, "simulation/clock.py", """\
            def stamp(now: float) -> float:
                return now
            """)
        assert report.clean

    def test_benchmarks_are_exempt(self, tmp_path):
        report = check_snippet(tmp_path, "benchmarks/bench_clock.py", """\
            import time

            def measure() -> float:
                return time.perf_counter()
            """)
        assert report.clean

    def test_serve_front_end_is_exempt(self, tmp_path):
        """repro/serve/ is wall-clock territory by design (PR 8)."""
        report = check_snippet(tmp_path, "repro/serve/clock.py", """\
            import time

            def now() -> float:
                return time.monotonic()
            """)
        assert report.clean

    def test_serve_exemption_does_not_leak_into_core(self, tmp_path):
        """A serve-sounding file under core/ stays in scope."""
        report = check_snippet(tmp_path, "repro/core/serve_bridge.py", """\
            import time

            def now() -> float:
                return time.monotonic()
            """)
        assert rule_ids(report) == ["REP001"]

    def test_serve_exemption_does_not_leak_into_simulation(self, tmp_path):
        report = check_snippet(tmp_path, "repro/simulation/serve.py", """\
            import time

            def now() -> float:
                return time.time()
            """)
        assert rule_ids(report) == ["REP001"]

    def test_serve_is_not_exempt_from_unseeded_randomness(self, tmp_path):
        """Only REP001 is waived in serve/; REP002 still applies there."""
        report = check_snippet(tmp_path, "repro/serve/jitter.py", """\
            import random

            def jitter() -> float:
                return random.random()
            """)
        assert rule_ids(report) == ["REP002"]

    def test_suppression(self, tmp_path):
        report = check_snippet(tmp_path, "simulation/clock.py", """\
            import time

            def stamp() -> float:
                return time.time()  # repro: ignore[REP001]
            """)
        assert report.clean
        assert report.suppressed_count == 1

    def test_no_file_under_src_repro_suppresses_it(self):
        """The replay reads no host clock: stage timing lives in the
        perf ledger, and serve/ is exempt by path, not by comment."""
        package = Path(repro.__file__).resolve().parent
        offenders = [
            f"{path.relative_to(package)}:{line}"
            for path in sorted(package.rglob("*.py"))
            for line, rules in parse_suppressions(
                path.read_text(encoding="utf-8")
            ).items()
            if "REP001" in rules
        ]
        assert offenders == []


class TestUnseededRandomRule:
    def test_flags_module_level_random(self, tmp_path):
        report = check_snippet(tmp_path, "workload/pick.py", """\
            import random

            def pick(items):
                return random.choice(items)
            """)
        assert "REP002" in rule_ids(report)

    def test_flags_unseeded_random_constructor(self, tmp_path):
        report = check_snippet(tmp_path, "workload/pick.py", """\
            import random

            rng = random.Random()
            """)
        assert "REP002" in rule_ids(report)

    def test_seeded_instance_is_clean(self, tmp_path):
        report = check_snippet(tmp_path, "workload/pick.py", """\
            import random

            def pick(seed: int, items):
                rng = random.Random(seed)
                return rng.choice(items)
            """)
        assert report.clean

    def test_suppression(self, tmp_path):
        report = check_snippet(tmp_path, "workload/pick.py", """\
            import random

            TOKEN = random.getrandbits(64)  # repro: ignore[REP002]
            """)
        assert report.clean
        assert report.suppressed_count == 1


class TestSetIterationRule:
    def test_flags_loop_over_set_variable(self, tmp_path):
        report = check_snippet(tmp_path, "hierarchy/walk.py", """\
            def totals() -> list[int]:
                values = {3, 1, 2}
                out = []
                for value in values:
                    out.append(value)
                return out
            """)
        assert rule_ids(report) == ["REP003"]
        assert report.violations[0].line == 4

    def test_flags_comprehension_over_set_algebra(self, tmp_path):
        report = check_snippet(tmp_path, "hierarchy/walk.py", """\
            def union(a: set[int], b: set[int]) -> list[int]:
                return [item for item in a | b]
            """)
        assert "REP003" in rule_ids(report)

    def test_sorted_wrapper_is_clean(self, tmp_path):
        report = check_snippet(tmp_path, "hierarchy/walk.py", """\
            def totals() -> list[int]:
                values = {3, 1, 2}
                return [value for value in sorted(values)]
            """)
        assert report.clean

    def test_membership_and_len_are_clean(self, tmp_path):
        report = check_snippet(tmp_path, "hierarchy/walk.py", """\
            def stats(values: set[int]) -> tuple[int, bool]:
                return len(values), 3 in values
            """)
        assert report.clean

    def test_suppression(self, tmp_path):
        report = check_snippet(tmp_path, "hierarchy/walk.py", """\
            def drain(values: set[int]) -> None:
                for value in values:  # repro: ignore[REP003]
                    print(value)
            """)
        assert report.clean
        assert report.suppressed_count == 1


class TestPicklableSpecRule:
    def test_flags_callable_field(self, tmp_path):
        report = check_snippet(tmp_path, "repro/experiments/jobs.py", """\
            from dataclasses import dataclass
            from typing import Callable

            @dataclass(frozen=True)
            class JobSpec:
                worker: Callable[[int], int]
            """)
        assert "REP004" in rule_ids(report)

    def test_flags_lambda_in_spec(self, tmp_path):
        report = check_snippet(tmp_path, "repro/experiments/jobs.py", """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class JobSpec:
                scale = lambda x: x * 2
            """)
        assert "REP004" in rule_ids(report)

    def test_flags_non_dataclass_spec(self, tmp_path):
        report = check_snippet(tmp_path, "repro/experiments/jobs.py", """\
            class JobSpec:
                pass
            """)
        assert "REP004" in rule_ids(report)

    def test_flags_lambda_factory_in_metrics_record(self, tmp_path):
        """Replay records come back from workers: `*Metrics` is covered."""
        report = check_snippet(tmp_path, "repro/simulation/metrics.py", """\
            from dataclasses import dataclass, field

            @dataclass
            class FooMetrics:
                samples: list = field(default_factory=lambda: [])
            """)
        assert "REP004" in rule_ids(report)

    def test_plain_dataclass_spec_is_clean(self, tmp_path):
        report = check_snippet(tmp_path, "repro/experiments/jobs.py", """\
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class JobSpec:
                zone_count: int
                seed: int = 0
            """)
        assert report.clean

    def test_rule_covers_the_package_only(self, tmp_path):
        """Specs nest: a bad FaultSpec in simulation/ breaks ReplaySpec too."""
        source = "class FaultSpec:\n    pass\n"
        assert rule_ids(check_snippet(
            tmp_path, "repro/simulation/faults.py", source)) == ["REP004"]
        assert check_snippet(tmp_path, "benchmarks/jobs.py", source).clean

    def test_suppression(self, tmp_path):
        report = check_snippet(tmp_path, "repro/experiments/jobs.py", """\
            from dataclasses import dataclass
            from typing import Callable

            @dataclass(frozen=True)
            class JobSpec:
                worker: Callable[[int], int]  # repro: ignore[REP004]
            """)
        assert report.clean
        assert report.suppressed_count == 1


class TestFloatComparisonRule:
    def test_flags_float_equality_in_analysis(self, tmp_path):
        report = check_snippet(tmp_path, "analysis/rates.py", """\
            def at_zero(rate: float) -> bool:
                return rate == 0.0
            """)
        assert rule_ids(report) == ["REP005"]

    def test_flags_inequality_against_float_call(self, tmp_path):
        report = check_snippet(tmp_path, "analysis/rates.py", """\
            def differs(rate: float, text: str) -> bool:
                return rate != float(text)
            """)
        assert "REP005" in rule_ids(report)

    def test_ordering_comparisons_are_clean(self, tmp_path):
        report = check_snippet(tmp_path, "analysis/rates.py", """\
            def at_zero(rate: float) -> bool:
                return rate <= 0.0
            """)
        assert report.clean

    def test_rule_is_scoped_to_analysis_and_metrics(self, tmp_path):
        report = check_snippet(tmp_path, "workload/rates.py", """\
            def at_zero(rate: float) -> bool:
                return rate == 0.0
            """)
        assert "REP005" not in rule_ids(report)

    def test_suppression(self, tmp_path):
        report = check_snippet(tmp_path, "analysis/rates.py", """\
            def at_zero(rate: float) -> bool:
                return rate == 0.0  # repro: ignore[REP005]
            """)
        assert report.clean
        assert report.suppressed_count == 1


class TestNameMutationRule:
    def test_flags_object_setattr_outside_init(self, tmp_path):
        report = check_snippet(tmp_path, "dns/retag.py", """\
            class Thing:
                def rename(self, label: str) -> None:
                    object.__setattr__(self, "label", label)
            """)
        assert rule_ids(report) == ["REP006"]

    def test_flags_attribute_store_on_name_variable(self, tmp_path):
        report = check_snippet(tmp_path, "dns/retag.py", """\
            from repro.dns.name import Name

            def retag(name: Name) -> None:
                name.labels = ()
            """)
        assert "REP006" in rule_ids(report)

    def test_object_setattr_in_init_is_clean(self, tmp_path):
        report = check_snippet(tmp_path, "dns/retag.py", """\
            class Frozen:
                def __init__(self, label: str) -> None:
                    object.__setattr__(self, "label", label)
            """)
        assert report.clean

    def test_post_init_is_clean(self, tmp_path):
        report = check_snippet(tmp_path, "dns/retag.py", """\
            class Frozen:
                def __post_init__(self) -> None:
                    object.__setattr__(self, "label", "x")
            """)
        assert report.clean

    def test_suppression(self, tmp_path):
        report = check_snippet(tmp_path, "dns/retag.py", """\
            class Thing:
                def rename(self, label: str) -> None:
                    object.__setattr__(self, "label", label)  # repro: ignore[REP006]
            """)
        assert report.clean
        assert report.suppressed_count == 1


class TestBareAssertRule:
    def test_flags_assert_in_library_code(self, tmp_path):
        report = check_snippet(tmp_path, "core/invariants.py", """\
            def pop(queue: list) -> object:
                assert queue, "queue must not be empty"
                return queue.pop()
            """)
        assert rule_ids(report) == ["REP007"]

    def test_typed_error_is_clean(self, tmp_path):
        report = check_snippet(tmp_path, "core/invariants.py", """\
            def pop(queue: list) -> object:
                if not queue:
                    raise RuntimeError("queue must not be empty")
                return queue.pop()
            """)
        assert report.clean

    def test_tests_are_exempt(self, tmp_path):
        report = check_snippet(tmp_path, "tests/test_invariants.py", """\
            def test_pop():
                assert [1].pop() == 1
            """)
        assert report.clean

    def test_suppression(self, tmp_path):
        report = check_snippet(tmp_path, "core/invariants.py", """\
            def pop(queue: list) -> object:
                assert queue  # repro: ignore[REP007]
                return queue.pop()
            """)
        assert report.clean
        assert report.suppressed_count == 1


class TestPrivateCacheAccessRule:
    def test_flags_entries_access_outside_core(self, tmp_path):
        report = check_snippet(tmp_path, "analysis/peek.py", """\
            def occupancy(cache) -> int:
                return len(cache._entries)
            """)
        assert rule_ids(report) == ["REP008"]
        assert report.violations[0].line == 2

    def test_flags_negative_access(self, tmp_path):
        report = check_snippet(tmp_path, "experiments/probe.py", """\
            def verdicts(cache) -> dict:
                return dict(cache._negative)
            """)
        assert rule_ids(report) == ["REP008"]

    def test_core_package_is_exempt(self, tmp_path):
        report = check_snippet(tmp_path, "repro/core/helper.py", """\
            def occupancy(cache) -> int:
                return len(cache._entries)
            """)
        assert rule_ids(report) == []

    def test_validation_package_is_exempt(self, tmp_path):
        report = check_snippet(tmp_path, "repro/validation/helper.py", """\
            def occupancy(cache) -> int:
                return len(cache._entries)
            """)
        assert rule_ids(report) == []

    def test_public_attribute_is_clean(self, tmp_path):
        report = check_snippet(tmp_path, "analysis/peek.py", """\
            def occupancy(cache, now: float) -> int:
                return cache.live_entry_count(now)
            """)
        assert rule_ids(report) == []

    @pytest.mark.parametrize(("relpath", "access"), [
        ("repro/experiments/graft.py", "zone._rrsets[key] = None"),
        ("repro/core/peek.py", "zone._response_cache.clear()"),
        ("repro/dns/zone.py", "len(cache._entries)"),
    ])
    def test_flags_access_outside_the_owner(self, tmp_path, relpath, access):
        source = f"def poke(zone, cache, key):\n    {access}\n"
        assert rule_ids(check_snippet(tmp_path, relpath, source)) == ["REP008"]

    def test_zone_module_owns_zone_fields(self, tmp_path):
        source = "def clear(zone):\n    zone._rrsets.clear()\n"
        assert check_snippet(tmp_path, "repro/dns/zone.py", source).clean

    def test_suppression(self, tmp_path):
        report = check_snippet(tmp_path, "analysis/peek.py", """\
            def occupancy(cache) -> int:
                return len(cache._entries)  # repro: ignore[REP008]
            """)
        assert rule_ids(report) == []


class TestFramework:
    def test_syntax_error_propagates(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n", encoding="utf-8")
        with pytest.raises(SyntaxError):
            run_checks([bad])

    def test_report_is_sorted_and_counts_files(self, tmp_path):
        check_dir = tmp_path / "analysis"
        check_dir.mkdir()
        (check_dir / "b.py").write_text(
            "def g(x: float) -> bool:\n    return x == 0.0\n", encoding="utf-8"
        )
        (check_dir / "a.py").write_text(
            "def f(x: float) -> bool:\n    return x != 1.0\n", encoding="utf-8"
        )
        report = run_checks([tmp_path])
        assert report.files_checked == 2
        assert [v.path.rsplit("/", 1)[-1] for v in report.violations] == [
            "a.py",
            "b.py",
        ]

    def test_violation_dict_shape(self, tmp_path):
        report = check_snippet(tmp_path, "analysis/rates.py", """\
            def at_zero(rate: float) -> bool:
                return rate == 0.0
            """)
        entry = report.violations[0].as_dict()
        assert set(entry) == {"rule", "path", "line", "message"}
        assert entry["rule"] == "REP005"
        assert entry["line"] == 2


class TestCheckCommand:
    def test_current_tree_is_clean(self, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        assert main(["check"]) == 0

    def test_seeded_violation_exits_nonzero(self, tmp_path, capsys):
        bad = write_snippet(
            tmp_path, "simulation/clock.py",
            "import time\n\n\ndef stamp() -> float:\n    return time.time()\n",
        )
        assert main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out
        assert "clock.py:5" in out

    def test_json_output(self, tmp_path, capsys):
        bad = write_snippet(tmp_path, "analysis/rates.py", FLOAT_EQUALITY)
        assert main(["check", str(bad), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == FINDINGS_SCHEMA
        assert payload["tool"] == "repro-check"
        findings = payload["findings"]
        assert len(findings) == 1
        assert findings[0]["rule"] == "REP005"
        assert findings[0]["line"] == 2
        assert findings[0]["path"].endswith("rates.py")
        assert payload["summary"]["files"] == 1

    def test_json_output_has_empty_findings_when_clean(self, tmp_path, capsys):
        clean = tmp_path / "ok.py"
        clean.write_text("VALUE = 1\n", encoding="utf-8")
        assert main(["check", str(clean), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == FINDINGS_SCHEMA
        assert payload["findings"] == []

    def test_ignore_glob_skips_file(self, tmp_path, capsys):
        bad = write_snippet(tmp_path, "analysis/rates.py", FLOAT_EQUALITY)
        assert main(["check", str(bad), "--ignore", "*/rates.py"]) == 0
        assert "0 files clean" in capsys.readouterr().out

    def test_tests_are_held_to_scoped_rules_only(self, tmp_path, capsys):
        """Wall-clock reads flag in tests; structural rules do not."""
        test_file = write_snippet(
            tmp_path, "tests/analysis/test_rates.py",
            "import time\n\n\n"
            "def test_rates() -> None:\n"
            "    assert time.time() > 0  # REP001 applies\n"
            "    assert 0.5 == 0.5  # REP005 would fire in src, not here\n",
        )
        assert main(["check", str(test_file)]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out
        assert "REP005" not in out

    def test_rule_set_is_chosen_per_file(self, tmp_path, capsys):
        """A directory argument above tests/ still scopes each test file."""
        for relpath in ("tests/test_x.py", "pkg/mod.py"):
            write_snippet(tmp_path, relpath, """\
                def check(rate: float, values: set[int]) -> None:
                    assert rate == 0.5
                    for value in values:
                        print(value)
                """)
        report = check_paths([tmp_path])
        assert report.files_checked == 2
        assert report.violations
        assert {v.path.rsplit("/", 2)[-2] for v in report.violations} == {"pkg"}
        # The summary counts the rules that ran, not the registry.
        assert main(["check", str(tmp_path / "tests")]) == 0
        assert "(2 rules)" in capsys.readouterr().out
        assert main(["check", str(tmp_path / "tests"), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["summary"]["rules"] == 2

    def test_missing_path_is_usage_error(self, tmp_path, capsys):
        assert main(["check", str(tmp_path / "nope")]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP001", "REP002", "REP003", "REP004", "REP005",
                        "REP006", "REP007"):
            assert rule_id in out
