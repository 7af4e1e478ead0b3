"""Seeded bug-reinjection tests for REP010, REP012 and REP013.

Each rule gets (at least) a clean fixture and one deliberately broken
variant per failure mode it exists to catch — the broken variants are
the regressions the audit must keep catching, re-planted in miniature.
The final class proves the real tree passes with zero findings.
"""

from pathlib import Path

import repro
from repro.devtools.audit.project import ProjectIndex
from repro.devtools.audit.rules import (
    ALL_AUDIT_RULES,
    DeterminismTaintRule,
    MemoInvalidationRule,
    PickleSafetyRule,
    run_audit,
)

REPO_ROOT = Path(repro.__file__).resolve().parents[2]


def findings(write_tree, files, rule):
    report = run_audit([write_tree(files)], rules=[rule])
    return report.violations


# ---------------------------------------------------------------------------
# REP010 — memo-invalidation completeness
# ---------------------------------------------------------------------------


ZONE_HEADER = """\
    from repro.annotations import invalidates


    class Zone:
        # repro: memo(resp: field=_cache, depends=[_rrsets], invalidator=_clear)

        def __init__(self):
            self._rrsets = {}
            self._cache = {}

        @invalidates("resp")
        def _clear(self):
            self._cache.clear()
"""

ANNOTATIONS_STUB = """\
    def invalidates(*memos):
        def wrap(fn):
            return fn
        return wrap
"""


class TestMemoInvalidation:
    rule = MemoInvalidationRule()

    def test_funnelled_mutator_is_clean(self, write_tree):
        files = {
            "annotations.py": ANNOTATIONS_STUB,
            "zone.py": ZONE_HEADER + """\

        def add(self, name, rrset):
            self._rrsets[name] = rrset
            self._clear()
""",
        }
        assert findings(write_tree, files, self.rule) == ()

    def test_direct_storage_clear_is_also_compliant(self, write_tree):
        files = {
            "annotations.py": ANNOTATIONS_STUB,
            "zone.py": ZONE_HEADER + """\

        def add(self, name, rrset):
            self._rrsets[name] = rrset
            self._cache.clear()
""",
        }
        assert findings(write_tree, files, self.rule) == ()

    def test_seeded_bug_mutator_without_invalidation(self, write_tree):
        """The PR-6 regression in miniature: a dep write, no clear."""
        files = {
            "annotations.py": ANNOTATIONS_STUB,
            "zone.py": ZONE_HEADER + """\

        def add(self, name, rrset):
            self._rrsets[name] = rrset
""",
        }
        (violation,) = findings(write_tree, files, self.rule)
        assert violation.rule == "REP010"
        assert "Zone._rrsets" in violation.message
        assert "memo 'resp'" in violation.message
        assert violation.path.endswith("zone.py")

    def test_seeded_bug_external_mutator_in_another_module(self, write_tree):
        """Cross-module writes are exactly what the per-file lint misses."""
        files = {
            "annotations.py": ANNOTATIONS_STUB,
            "zone.py": ZONE_HEADER,
            "ops.py": """\
                from repro.zone import Zone


                def poison(zone: Zone):
                    zone._rrsets["evil"] = None
                """,
        }
        (violation,) = findings(write_tree, files, self.rule)
        assert "repro.ops.poison" in violation.message
        assert violation.path.endswith("ops.py")

    def test_constructor_writes_are_exempt(self, write_tree):
        files = {
            "annotations.py": ANNOTATIONS_STUB,
            "zone.py": ZONE_HEADER,
        }
        # __init__ writes _rrsets without invalidating; that's fine.
        assert findings(write_tree, files, self.rule) == ()

    def test_seeded_bug_unknown_field_in_declaration(self, write_tree):
        files = {
            "zone.py": """\
                class Zone:
                    # repro: memo(resp: field=_cache, depends=[_typo], invalidator=none)

                    def __init__(self):
                        self._rrsets = {}
                        self._cache = {}
                """,
        }
        (violation,) = findings(write_tree, files, self.rule)
        assert "unknown field '_typo'" in violation.message

    def test_seeded_bug_missing_invalidator_method(self, write_tree):
        files = {
            "zone.py": """\
                class Zone:
                    # repro: memo(resp: field=_cache, depends=[_rrsets], invalidator=_gone)

                    def __init__(self):
                        self._rrsets = {}
                        self._cache = {}
                """,
        }
        (violation,) = findings(write_tree, files, self.rule)
        assert "no such method" in violation.message

    def test_seeded_bug_invalidator_without_decorator(self, write_tree):
        files = {
            "zone.py": """\
                class Zone:
                    # repro: memo(resp: field=_cache, depends=[_rrsets], invalidator=_clear)

                    def __init__(self):
                        self._rrsets = {}
                        self._cache = {}

                    def _clear(self):
                        self._cache.clear()
                """,
        }
        (violation,) = findings(write_tree, files, self.rule)
        assert "@invalidates" in violation.message

    def test_seeded_bug_invalidator_that_forgets_the_field(self, write_tree):
        files = {
            "annotations.py": ANNOTATIONS_STUB,
            "zone.py": """\
                from repro.annotations import invalidates


                class Zone:
                    # repro: memo(resp: field=_cache, depends=[_rrsets], invalidator=_clear)

                    def __init__(self):
                        self._rrsets = {}
                        self._cache = {}

                    @invalidates("resp")
                    def _clear(self):
                        pass
                """,
        }
        (violation,) = findings(write_tree, files, self.rule)
        assert "never writes its storage field _cache" in violation.message

    def test_transitive_invalidation_through_a_helper(self, write_tree):
        """Reaching the invalidator indirectly still counts."""
        files = {
            "annotations.py": ANNOTATIONS_STUB,
            "zone.py": ZONE_HEADER + """\

        def add(self, name, rrset):
            self._rrsets[name] = rrset
            self._after_change()

        def _after_change(self):
            self._clear()
""",
        }
        assert findings(write_tree, files, self.rule) == ()


# ---------------------------------------------------------------------------
# REP012 — transitive pickle-safety
# ---------------------------------------------------------------------------


class TestPickleSafety:
    rule = PickleSafetyRule()

    def test_plain_value_spec_is_clean(self, write_tree):
        files = {
            "specs.py": """\
                class ReplaySpec:
                    # repro: pickled-boundary

                    trace_name: str
                    seed: int
                """,
        }
        assert findings(write_tree, files, self.rule) == ()

    def test_seeded_bug_callable_field(self, write_tree):
        files = {
            "specs.py": """\
                from typing import Callable


                class ReplaySpec:
                    # repro: pickled-boundary

                    trace_name: str
                    on_done: "Callable[[], None] | None"
                """,
        }
        (violation,) = findings(write_tree, files, self.rule)
        assert violation.rule == "REP012"
        assert "ReplaySpec.on_done" in violation.message
        assert "Callable" in violation.message

    def test_seeded_bug_unpicklable_in_nested_class(self, write_tree):
        """The walk follows field types into member classes."""
        files = {
            "specs.py": """\
                from threading import Lock


                class Inner:
                    guard: Lock


                class FleetSpec:
                    # repro: pickled-boundary

                    member: Inner
                """,
        }
        (violation,) = findings(write_tree, files, self.rule)
        assert "FleetSpec.member.guard" in violation.message
        assert "Lock" in violation.message

    def test_custom_reduce_class_is_trusted(self, write_tree):
        files = {
            "specs.py": """\
                from threading import Lock


                class Guarded:
                    guard: Lock

                    def __reduce__(self):
                        return (Guarded, ())


                class ReplaySpec:
                    # repro: pickled-boundary

                    member: Guarded
                """,
        }
        assert findings(write_tree, files, self.rule) == ()

    def test_cycles_terminate(self, write_tree):
        files = {
            "specs.py": """\
                class Node:
                    # repro: pickled-boundary

                    parent: "Node | None"
                    label: str
                """,
        }
        assert findings(write_tree, files, self.rule) == ()


# ---------------------------------------------------------------------------
# REP013 — interprocedural determinism taint
# ---------------------------------------------------------------------------


class TestDeterminismTaint:
    rule = DeterminismTaintRule()

    def test_seeded_bug_clock_read_behind_a_helper(self, write_tree):
        """The cross-module leak REP001 cannot see: sim -> util -> clock."""
        files = {
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
        (violation,) = findings(write_tree, files, self.rule)
        assert violation.rule == "REP013"
        assert "time.time()" in violation.message
        assert "chain: step -> stamp" in violation.message
        assert violation.path.endswith("simulation/engine.py")

    def test_seeded_bug_unseeded_randomness(self, write_tree):
        files = {
            "util.py": """\
                import random


                def jitter():
                    return random.random()
                """,
            "core/cache.py": """\
                from repro.util import jitter


                def evict():
                    return jitter()
                """,
        }
        (violation,) = findings(write_tree, files, self.rule)
        assert "random.random()" in violation.message

    def test_taint_outside_sink_modules_is_not_reported(self, write_tree):
        """A clock read in analysis/ tooling is REP001's per-file call."""
        files = {
            "analysis/timing.py": """\
                import time


                def stamp():
                    return time.time()
                """,
        }
        assert findings(write_tree, files, self.rule) == ()

    def test_serve_internal_wall_clock_is_clean(self, write_tree):
        """serve/ is not a determinism sink: its wall clock is its job."""
        files = {
            "serve/clock.py": """\
                import time


                def now():
                    return time.time()


                def schedule(delay):
                    return now() + delay
                """,
        }
        assert findings(write_tree, files, self.rule) == ()

    def test_core_calling_into_serve_still_flags(self, write_tree):
        """The serve exemption must not launder taint back into core/."""
        files = {
            "serve/clock.py": """\
                import time


                def wall_now():
                    return time.time()
                """,
            "core/cache.py": """\
                from repro.serve.clock import wall_now


                def expire():
                    return wall_now()
                """,
        }
        (violation,) = findings(write_tree, files, self.rule)
        assert violation.rule == "REP013"
        assert violation.path.endswith("core/cache.py")
        assert "chain: expire -> wall_now" in violation.message

    def test_suppressed_source_is_sanctioned(self, write_tree):
        """A reviewed # repro: ignore[REP001] sanctions the whole chain."""
        files = {
            "util.py": """\
                import time


                def stamp():
                    return time.time()  # repro: ignore[REP001]
                """,
            "simulation/engine.py": """\
                from repro.util import stamp


                def step():
                    return stamp()
                """,
        }
        assert findings(write_tree, files, self.rule) == ()

    def test_seeded_rng_construction_is_clean(self, write_tree):
        files = {
            "simulation/engine.py": """\
                import random


                def make_rng(seed):
                    return random.Random(seed)
                """,
        }
        assert findings(write_tree, files, self.rule) == ()

    def test_seeded_bug_os_entropy_rng_construction(self, write_tree):
        files = {
            "simulation/engine.py": """\
                import random


                def make_rng():
                    return random.Random()
                """,
        }
        (violation,) = findings(write_tree, files, self.rule)
        assert "random.Random()" in violation.message


# ---------------------------------------------------------------------------
# Driver-level behaviour and the real tree
# ---------------------------------------------------------------------------


class TestRunAudit:
    def test_inline_suppression_applies_to_audit_findings(self, write_tree):
        files = {
            "util.py": """\
                import time


                def stamp():
                    return time.time()
                """,
            "simulation/engine.py": """\
                from repro.util import stamp


                def step():  # repro: ignore[REP013]
                    return stamp()
                """,
        }
        report = run_audit([write_tree(files)])
        assert report.violations == ()
        assert report.suppressed_count == 1

    def test_report_counts_the_tree(self, write_tree):
        files = {
            "zone.py": """\
                class Zone:
                    # repro: memo(resp: field=_cache, depends=[a], invalidator=none)
                    a: int
                    _cache: dict

                    def peek(self):
                        return self._cache
                """,
        }
        report = run_audit([write_tree(files)])
        assert report.modules == 1
        assert report.classes == 1
        assert report.functions == 1
        assert report.memos == 1
        assert report.clean

    def test_rule_registry_is_complete_and_stable(self):
        assert [rule.rule_id for rule in ALL_AUDIT_RULES] == [
            "REP010", "REP012", "REP013",
        ]
        for rule in ALL_AUDIT_RULES:
            assert rule.title
            assert rule.rationale


class TestRealTree:
    def test_the_shipped_tree_audits_clean(self):
        root = REPO_ROOT / "src" / "repro"
        report = run_audit([root])
        assert report.violations == ()
        # The annotations the audit keys on are actually present, and
        # they are exactly the memos that earn their keep: a new one is
        # a deliberate addition to this inventory.
        declared = sorted(
            f"{cls.name}.{memo.name}"
            for cls in ProjectIndex.build([root]).classes.values()
            for memo in cls.memos
        )
        assert declared == [
            "Message.plan", "Message.wire_size", "Name.ancestors",
            "Name.ns_chain", "Name.wire_length", "Scenario.traces",
            "Zone.response",
        ]
        assert report.memos == len(declared)
        assert report.modules >= 50
