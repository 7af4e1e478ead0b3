"""The ``repro audit`` subcommand: whole-program analysis from the CLI.

Where ``repro check`` lints file by file, ``repro audit`` parses the
whole tree once and enforces the cross-module rules REP010, REP012 and
REP013.  Output mirrors ``repro check``: human text by default, the shared
``repro-findings`` JSON schema with ``--json``, SARIF 2.1.0 with
``--sarif`` for code-scanning upload.  A committed baseline
(``audit-baseline.json``) holds reviewed, justified findings;
``--changed-only`` scopes reporting to files touched in the working
tree, which is what the pre-commit hook runs.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from repro.devtools.audit.baseline import Baseline
from repro.devtools.audit.rules import ALL_AUDIT_RULES, AuditReport, run_audit
from repro.devtools.audit.sarif import render_sarif
from repro.devtools.checks import FINDINGS_SCHEMA, Violation

#: Baseline location used when the flag is not given.
DEFAULT_BASELINE = Path("audit-baseline.json")


def default_audit_paths() -> list[Path]:
    """``src/repro`` under cwd, else the installed package location."""
    source_tree = Path("src") / "repro"
    if source_tree.is_dir():
        return [source_tree]
    import repro

    package_file = repro.__file__
    if package_file is None:  # pragma: no cover - frozen interpreters
        return []
    return [Path(package_file).parent]


def add_audit_parser(
    subparsers: "argparse._SubParsersAction[argparse.ArgumentParser]",
) -> argparse.ArgumentParser:
    """Register the ``audit`` subcommand on the main CLI parser."""
    audit = subparsers.add_parser(
        "audit",
        help="run the whole-program mutation/purity audit (REP010...)",
        description=(
            "Parse the whole tree once, build the cross-module call "
            "graph and mutation sets, and enforce memo-invalidation, "
            "pickle-safety and determinism-taint rules."
        ),
    )
    audit.add_argument(
        "paths",
        nargs="*",
        default=None,
        help="package roots to audit (default: src/repro)",
    )
    audit.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help=f"emit findings in the {FINDINGS_SCHEMA} JSON schema",
    )
    audit.add_argument(
        "--sarif",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="write SARIF 2.1.0 to PATH (stdout when no PATH given)",
    )
    audit.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=f"accepted-findings file (default: {DEFAULT_BASELINE})",
    )
    audit.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from this run (keeps justifications)",
    )
    audit.add_argument(
        "--changed-only",
        action="store_true",
        help="report only findings in files changed per git status",
    )
    audit.add_argument(
        "--strict",
        action="store_true",
        help="also fail on expired baseline entries",
    )
    audit.add_argument(
        "--list-rules",
        action="store_true",
        help="print every audit rule id, title and rationale, then exit",
    )
    audit.set_defaults(func=run_audit_command)
    return audit


def run_audit_command(args: argparse.Namespace) -> int:
    """Entry point for ``repro audit``; returns the process exit code."""
    if args.list_rules:
        for rule in ALL_AUDIT_RULES:
            print(f"{rule.rule_id}  {rule.title}")
            print(f"        {rule.rationale}")
        return 0

    if args.paths:
        paths = [Path(p) for p in args.paths]
    else:
        paths = default_audit_paths()
    if not paths:
        print("error: no paths to audit (run from the repo root or pass "
              "paths explicitly)", file=sys.stderr)
        return 2
    missing = [str(p) for p in paths if not p.is_dir()]
    if missing:
        print(f"error: not a package root: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    report = run_audit(paths)
    baseline_path = (
        Path(args.baseline) if args.baseline else DEFAULT_BASELINE
    )
    baseline = Baseline.load(baseline_path)
    if args.update_baseline:
        baseline.updated_from(report.violations).save(baseline_path)
        print(f"repro audit: baseline rewritten with "
              f"{len(report.violations)} finding(s) -> {baseline_path}")
        return 0
    new, accepted, expired = baseline.split(report.violations)

    if args.changed_only:
        changed = _changed_paths()
        new = tuple(v for v in new if v.path in changed)

    if args.sarif is not None:
        rendered = render_sarif(
            new,
            [(r.rule_id, r.title, r.rationale) for r in ALL_AUDIT_RULES],
        )
        if args.sarif == "-":
            print(rendered, end="")
        else:
            Path(args.sarif).write_text(rendered, encoding="utf-8")

    if args.as_json:
        print(json.dumps(_json_payload(report, new, accepted, expired),
                         indent=2))
    elif args.sarif is None or args.sarif != "-":
        _print_report(report, new, accepted, expired,
                      changed_only=args.changed_only)

    if new:
        return 1
    if args.strict and expired:
        return 1
    return 0


def _json_payload(
    report: AuditReport,
    new: tuple[Violation, ...],
    accepted: tuple[Violation, ...],
    expired: tuple,
) -> dict[str, object]:
    return {
        "schema": FINDINGS_SCHEMA,
        "tool": "repro-audit",
        "findings": [violation.as_dict() for violation in new],
        "summary": {
            "modules": report.modules,
            "functions": report.functions,
            "classes": report.classes,
            "memos": report.memos,
            "suppressed": report.suppressed_count,
            "baseline_accepted": len(accepted),
            "baseline_expired": [entry.fingerprint for entry in expired],
        },
    }


def _print_report(
    report: AuditReport,
    new: tuple[Violation, ...],
    accepted: tuple[Violation, ...],
    expired: tuple,
    changed_only: bool,
) -> None:
    for violation in new:
        print(violation.format())
    for entry in expired:
        print(
            f"baseline: entry {entry.fingerprint} ({entry.rule} "
            f"{entry.path}) no longer occurs — remove it with "
            f"--update-baseline",
            file=sys.stderr,
        )
    scope = " (changed files only)" if changed_only else ""
    stats = (
        f"{report.modules} modules, {report.functions} functions, "
        f"{report.memos} memos"
    )
    extras = []
    if report.suppressed_count:
        extras.append(f"{report.suppressed_count} suppressed")
    if accepted:
        extras.append(f"{len(accepted)} baseline-accepted")
    detail = f" ({stats}{'; ' + ', '.join(extras) if extras else ''})"
    if new:
        print(
            f"repro audit: {len(new)} violation(s){scope}{detail}",
            file=sys.stderr,
        )
    else:
        print(f"repro audit: clean{scope}{detail}")


def _changed_paths() -> frozenset[str]:
    """Posix paths changed per ``git status`` (staged, unstaged, new)."""
    try:
        completed = subprocess.run(
            ["git", "status", "--porcelain"],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return frozenset()
    changed = set()
    for line in completed.stdout.splitlines():
        entry = line[3:].strip()
        # Renames are reported as "old -> new"; the new path matters.
        if " -> " in entry:
            entry = entry.split(" -> ", 1)[1]
        if entry:
            changed.add(entry.strip('"'))
    return frozenset(changed)
