"""The per-file lint gate that guards the repo's determinism contract.

The replay pipeline promises bitwise-identical results for a given spec
regardless of worker count (see :mod:`repro.experiments.parallel`).  The
:mod:`repro.devtools.checks` framework and the rule modules under
:mod:`repro.devtools.rules` (REP001–REP008) enforce the coding
invariants that make the promise hold — no wall-clock reads in
simulation code, seeded RNGs only, no order-unstable set iteration in
metric paths, picklable specs, no writes to another module's private
storage, and so on.  Each rule reads one file at a time; the two
cross-module guarantees live in tier-1 tests instead (every zone
operator action answers like a fresh zone, and ``core/`` and
``simulation/`` never import ``repro.serve``).

Run it as ``python -m repro check`` (see :mod:`repro.devtools.cli`).
"""

from repro.devtools.checks import (
    CheckReport,
    ModuleSource,
    Rule,
    Violation,
    iter_python_files,
    run_checks,
)
from repro.devtools.rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "CheckReport",
    "ModuleSource",
    "Rule",
    "Violation",
    "iter_python_files",
    "run_checks",
]
