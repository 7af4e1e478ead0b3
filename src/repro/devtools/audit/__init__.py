"""Whole-program static analysis over the ``repro`` package.

Where :mod:`repro.devtools.rules` lints one module at a time, this
package parses every module once, builds a project-wide symbol table
(:mod:`~repro.devtools.audit.project`), a conservative name-resolution
call graph (:mod:`~repro.devtools.audit.callgraph`) and per-function
field-mutation sets (:mod:`~repro.devtools.audit.mutation`), then
enforces the semantic rules REP010, REP012 and REP013
(:mod:`~repro.devtools.audit.rules`) that no per-file lint can see:
memo-invalidation completeness, transitive pickle-safety and
interprocedural determinism taint.

Run it as ``repro audit``; DESIGN.md §14 documents the analysis model
and its known over-approximations.
"""

from repro.devtools.audit.baseline import Baseline, fingerprint
from repro.devtools.audit.callgraph import CallGraph
from repro.devtools.audit.memos import MemoDecl
from repro.devtools.audit.mutation import MutationAnalysis
from repro.devtools.audit.project import ClassInfo, FunctionInfo, ProjectIndex
from repro.devtools.audit.rules import (
    ALL_AUDIT_RULES,
    AuditContext,
    AuditReport,
    run_audit,
)
from repro.devtools.audit.sarif import to_sarif

__all__ = [
    "ALL_AUDIT_RULES",
    "AuditContext",
    "AuditReport",
    "Baseline",
    "CallGraph",
    "ClassInfo",
    "FunctionInfo",
    "MemoDecl",
    "MutationAnalysis",
    "ProjectIndex",
    "fingerprint",
    "run_audit",
    "to_sarif",
]
