"""REP001 — no wall-clock reads in simulation code.

Virtual time flows from :class:`repro.simulation.engine.SimulationEngine`
only.  A single ``time.time()`` in a replay path makes results depend on
the host's clock and destroys the bitwise serial-vs-parallel guarantee.

Two subtrees legitimately live on the wall clock and are out of scope:
benchmark harnesses (``benchmarks/bench_*.py``) and the serve front end
(``repro/serve/``), whose whole job is real time — its ``WallClock``
satisfies the same ``Clock`` protocol the simulation's virtual clock
does, so the core underneath it stays in scope.  The exemption is the
path prefix only: core/ and simulation/ code stays banned even when
serve/ calls into it, and those two packages never import serve/
(``tests/devtools/test_layering.py`` holds that direction).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.checks import ImportMap, ModuleSource, Rule, Violation

_BANNED = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


class WallClockRule(Rule):
    rule_id = "REP001"
    title = "no wall-clock reads in simulation code"
    rationale = (
        "sim time must flow from SimulationEngine; wall-clock reads make "
        "replay results depend on the host and break bitwise determinism"
    )

    def applies_to(self, display_path: str) -> bool:
        name = display_path.rsplit("/", 1)[-1]
        if "benchmarks/" in display_path or name.startswith("bench_"):
            return False
        # The serve front end is wall-clock territory by design (REP002
        # unseeded-randomness still applies there).
        return "repro/serve/" not in display_path

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        imports = ImportMap(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            qualified = imports.qualified_name(node.func)
            if qualified in _BANNED:
                yield self.violation(
                    module,
                    node,
                    f"wall-clock read {qualified}() in simulation code; "
                    f"derive time from SimulationEngine.now instead",
                )
