"""The ``repro check`` subcommand: run the determinism gate from the CLI.

Default targets are ``src/repro``, ``benchmarks`` and ``tests`` relative
to the current directory when they exist, falling back to the installed
package location — so the command works both from a checkout and against
an installed wheel.  Every file under a ``tests`` directory is held to a
*scoped* rule set (:data:`TEST_RULE_IDS`), whatever path was passed on
the command line: wall-clock and unseeded-randomness reads are still
banned there (a test that reads real time is flaky by construction), but
structural rules about caches, specs and name hygiene only apply to
shipped code.  ``--strict`` additionally shells out to ``mypy`` and
``ruff`` when they are installed (CI installs them via the ``dev``
extra; the gate itself has zero dependencies).
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

from repro.devtools.checks import FINDINGS_SCHEMA, CheckReport, Rule, run_checks
from repro.devtools.rules import ALL_RULES

#: The rules test files are held to.  Determinism of *inputs* (time,
#: randomness) matters everywhere; the structural rules (REP003+) encode
#: contracts of shipped code that tests legitimately poke at.
TEST_RULE_IDS = ("REP001", "REP002")
_TEST_RULES = tuple(rule for rule in ALL_RULES if rule.rule_id in TEST_RULE_IDS)

#: Files the gate never checks, as fnmatch globs over posix paths.
#: Scoped and rare by design: prefer a per-line ``# repro: ignore[...]``
#: (visible in review next to the code it excuses) and reserve this
#: list for generated or vendored files where editing lines is not an
#: option.  ``--ignore`` adds one-off entries from the command line.
DEFAULT_IGNORE_GLOBS: tuple[str, ...] = ()


def default_check_paths() -> list[Path]:
    """``src/repro`` + ``benchmarks`` + ``tests`` under cwd, else the
    package itself."""
    paths: list[Path] = []
    source_tree = Path("src") / "repro"
    if source_tree.is_dir():
        paths.append(source_tree)
    else:
        import repro

        package_file = repro.__file__
        if package_file is not None:
            paths.append(Path(package_file).parent)
    for extra in (Path("benchmarks"), Path("tests")):
        if extra.is_dir():
            paths.append(extra)
    return paths


def is_test_path(path: Path) -> bool:
    """True when ``path`` lives under a ``tests`` directory."""
    return "tests" in path.parts


def scoped_rules_for(path: Path) -> tuple[Rule, ...]:
    """The rule set ``path`` is held to (scoped down for test files)."""
    return _TEST_RULES if is_test_path(path) else ALL_RULES


def add_check_parser(
    subparsers: "argparse._SubParsersAction[argparse.ArgumentParser]",
) -> argparse.ArgumentParser:
    """Register the ``check`` subcommand on the main CLI parser."""
    check = subparsers.add_parser(
        "check",
        help="run the determinism/static-analysis gate",
        description=(
            "Run the repo's custom AST lint rules (REP001...) over the "
            "source tree; optionally also mypy/ruff with --strict."
        ),
    )
    check.add_argument(
        "paths",
        nargs="*",
        default=None,
        help=(
            "files or directories to check "
            "(default: src/repro, benchmarks, tests)"
        ),
    )
    check.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help=f"emit findings in the {FINDINGS_SCHEMA} JSON schema",
    )
    check.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="GLOB",
        dest="ignore_globs",
        help=(
            "skip files whose path matches GLOB (fnmatch, repeatable); "
            "extends the built-in ignore list"
        ),
    )
    check.add_argument(
        "--strict",
        action="store_true",
        help="also run mypy and ruff when installed (skipped otherwise)",
    )
    check.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id, title and rationale, then exit",
    )
    check.set_defaults(func=run_check_command)
    return check


def run_check_command(args: argparse.Namespace) -> int:
    """Entry point for ``repro check``; returns the process exit code."""
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.title}")
            print(f"        {rule.rationale}")
        return 0

    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        paths = default_check_paths()
    if not paths:
        print("error: no paths to check (run from the repo root or pass "
              "paths explicitly)", file=sys.stderr)
        return 2
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    exclude = (*DEFAULT_IGNORE_GLOBS, *args.ignore_globs)
    report = check_paths(paths, exclude=exclude)

    if args.as_json:
        print(json.dumps(_json_payload(report), indent=2))
    else:
        _print_report(report)

    exit_code = 0 if report.clean else 1
    if args.strict:
        exit_code = max(exit_code, _run_strict_tools(paths, quiet=args.as_json))
    return exit_code


def check_paths(
    paths: list[Path], exclude: tuple[str, ...] = ()
) -> CheckReport:
    """Run the gate over ``paths``, choosing each file's rule set by the
    file's own path (:func:`scoped_rules_for`)."""
    return run_checks(paths, rules_for=scoped_rules_for, exclude=exclude)


def _json_payload(report: CheckReport) -> dict[str, object]:
    """The ``repro-findings`` envelope."""
    return {
        "schema": FINDINGS_SCHEMA,
        "tool": "repro-check",
        "findings": [violation.as_dict() for violation in report.violations],
        "summary": {
            "files": report.files_checked,
            "rules": len(report.rules_applied),
            "suppressed": report.suppressed_count,
        },
    }


def _print_report(report: CheckReport) -> None:
    for violation in report.violations:
        print(violation.format())
    suppressed = (
        f", {report.suppressed_count} suppressed"
        if report.suppressed_count else ""
    )
    if report.clean:
        print(f"repro check: {report.files_checked} files clean "
              f"({len(report.rules_applied)} rules{suppressed})")
    else:
        print(
            f"repro check: {len(report.violations)} violation(s) in "
            f"{report.files_checked} files{suppressed}",
            file=sys.stderr,
        )


def _run_strict_tools(paths: list[Path], quiet: bool) -> int:
    """Run mypy/ruff when present; returns the worst exit code observed."""
    worst = 0
    commands = [
        ("mypy", ["mypy", "src/repro" if Path("src/repro").is_dir()
                  else str(paths[0])]),
        ("ruff", ["ruff", "check", *map(str, paths)]),
    ]
    for tool, command in commands:
        if shutil.which(tool) is None:
            if not quiet:
                print(f"strict: {tool} not installed — skipped "
                      f"(pip install '.[dev]')")
            continue
        if not quiet:
            print(f"strict: running {' '.join(command)}")
        completed = subprocess.run(command, check=False)
        worst = max(worst, completed.returncode)
    return worst
