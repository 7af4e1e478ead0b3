"""Whole-program audit performance bench (writes BENCH_audit.json).

``repro audit`` runs in CI on every push and as a pre-commit hook, so
its wall clock is a developer-facing budget, not a curiosity: the gate
is only as good as people's willingness to keep it on.  This bench
audits the real shipped tree (parse every module, build the call graph
and mutation closure, run REP010, REP012 and REP013) and fails when a full pass
exceeds :data:`FULL_TREE_BUDGET_SECONDS`.

The budget is generous (the audit runs in well under two seconds on a
laptop) so only an algorithmic regression — an accidentally quadratic
closure, a rebuilt index per rule — trips it, not runner noise.
"""

from __future__ import annotations

import time
from pathlib import Path

import repro
from repro.devtools.audit.rules import run_audit

SRC_ROOT = Path(repro.__file__).resolve().parent

#: Hard ceiling for one full-tree audit pass, asserted here and in CI.
FULL_TREE_BUDGET_SECONDS = 5.0


def bench_whole_program_audit(run_once, record_bench_json):
    def full_audit():
        started = time.perf_counter()
        report = run_audit([SRC_ROOT])
        return report, time.perf_counter() - started

    report, elapsed = run_once(full_audit)

    assert report.violations == (), (
        "the shipped tree must audit clean; fix or baseline findings "
        "before committing"
    )
    assert elapsed < FULL_TREE_BUDGET_SECONDS, (
        f"full-tree audit took {elapsed:.2f}s, over the "
        f"{FULL_TREE_BUDGET_SECONDS:.0f}s budget — profile the index/"
        f"call-graph build before shipping"
    )

    record_bench_json("BENCH_audit", {
        "budget_seconds": FULL_TREE_BUDGET_SECONDS,
        "full_tree_seconds": round(elapsed, 3),
        "modules": report.modules,
        "functions": report.functions,
        "classes": report.classes,
        "memos": report.memos,
        "violations": len(report.violations),
        "modules_per_second": (
            round(report.modules / elapsed, 1) if elapsed else None
        ),
    })
