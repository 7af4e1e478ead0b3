"""The whole-program rule family: REP010, REP012 and REP013.

Each rule sees an :class:`AuditContext` — symbol table, call graph and
mutation closure over the entire tree — and yields the same
:class:`~repro.devtools.checks.Violation` records as the per-file lint,
so suppression (``# repro: ignore[REP010]``), JSON output and baselines
work identically for both layers.

REP010  memo-invalidation completeness: every direct mutator of a
        declared memo's dependency fields must transitively clear the
        memo's storage field or reach its ``@invalidates`` invalidator.
REP012  pickle-safety: every field type transitively reachable from a
        ``# repro: pickled-boundary`` class must be picklable across
        the worker boundary.
REP013  determinism taint: no function in ``repro.simulation`` /
        ``repro.core`` may transitively reach an unsanctioned
        wall-clock or global-randomness call.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.devtools.audit.callgraph import CallGraph
from repro.devtools.audit.memos import MemoDecl
from repro.devtools.audit.mutation import MutationAnalysis, Write
from repro.devtools.audit.project import ClassInfo, ProjectIndex
from repro.devtools.checks import ImportMap, Violation
from repro.devtools.rules.randomness import (
    _ALWAYS_BANNED,
    _SEEDED_CONSTRUCTORS,
    _is_module_level_random,
)
from repro.devtools.rules.wallclock import _BANNED as _WALLCLOCK_BANNED

#: Annotation identifiers that can never cross the pickled worker
#: boundary.  Conservative by construction: only names whose presence in
#: a *spec/summary field annotation* is always wrong.
UNPICKLABLE_NAMES = frozenset({
    "Callable", "Generator", "Lock", "RLock", "Thread", "Event",
    "Condition", "Semaphore", "BoundedSemaphore", "Barrier", "socket",
    "IO", "TextIO", "BinaryIO", "TextIOBase", "BufferedReader",
    "BufferedWriter", "memoryview", "Future", "ProcessPoolExecutor",
    "ThreadPoolExecutor", "weakref", "ref",
})

#: Module prefixes whose functions are REP013 determinism sinks.
DETERMINISM_SINK_PREFIXES = ("repro.simulation", "repro.core")


@dataclass
class AuditContext:
    """Everything a whole-program rule may consult."""

    index: ProjectIndex
    graph: CallGraph
    mutation: MutationAnalysis

    @classmethod
    def build(cls, roots: Sequence[Path]) -> "AuditContext":
        index = ProjectIndex.build(roots)
        graph = CallGraph(index)
        return cls(index=index, graph=graph,
                   mutation=MutationAnalysis(graph))

    def display_path(self, qualname: str) -> str:
        source = self.index.source_for(qualname)
        return source.display_path if source is not None else qualname


class AuditRule:
    """Base class for one whole-program rule."""

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, ctx: AuditContext) -> Iterator[Violation]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# REP010 — memo-invalidation completeness
# ---------------------------------------------------------------------------


class MemoInvalidationRule(AuditRule):
    rule_id = "REP010"
    title = "memo mutators must invalidate"
    rationale = (
        "a cached derived view served after its inputs changed is a "
        "silent correctness bug; every mutator of a memo's dependency "
        "fields must clear the cache or reach the declared invalidator"
    )

    def check(self, ctx: AuditContext) -> Iterator[Violation]:
        writes_by_key = _writes_by_key(ctx)
        for cls_qual in sorted(ctx.index.classes):
            cls = ctx.index.classes[cls_qual]
            for memo in cls.memos:
                yield from self._check_memo(ctx, cls, memo, writes_by_key)

    def _check_memo(
        self,
        ctx: AuditContext,
        cls: ClassInfo,
        memo: MemoDecl,
        writes_by_key: dict[tuple[str, str], list[tuple[str, Write]]],
    ) -> Iterator[Violation]:
        path = ctx.display_path(cls.qualname)
        for name in (memo.field, *memo.depends):
            if not _has_field(cls, name, ctx.index):
                yield Violation(
                    rule=self.rule_id, path=path, line=memo.lineno,
                    message=(
                        f"memo '{memo.name}' on {cls.name} names unknown "
                        f"field {name!r}"
                    ),
                    fix_hint=(
                        "fix the field name in the # repro: memo(...) "
                        "declaration"
                    ),
                )
                return
        invalidator_qual: str | None = None
        if memo.has_invalidator:
            invalidator_qual = cls.method(memo.invalidator, ctx.index)
            if invalidator_qual is None:
                yield Violation(
                    rule=self.rule_id, path=path, line=memo.lineno,
                    message=(
                        f"memo '{memo.name}' on {cls.name} declares "
                        f"invalidator {memo.invalidator!r} but the class "
                        f"has no such method"
                    ),
                    fix_hint="point invalidator= at an existing method",
                )
                return
            invalidator = ctx.index.functions[invalidator_qual]
            if memo.name not in invalidator.invalidates:
                yield Violation(
                    rule=self.rule_id, path=path,
                    line=invalidator.node.lineno,
                    message=(
                        f"{invalidator_qual} is the declared invalidator "
                        f"of memo '{memo.name}' but does not carry "
                        f"@invalidates({memo.name!r})"
                    ),
                    fix_hint=(
                        f"decorate it with @invalidates({memo.name!r}) "
                        f"so renames cannot detach the pair"
                    ),
                )
            if not ctx.mutation.mutates(
                invalidator_qual, cls.qualname, memo.field
            ):
                yield Violation(
                    rule=self.rule_id, path=path,
                    line=invalidator.node.lineno,
                    message=(
                        f"{invalidator_qual} is the declared invalidator "
                        f"of memo '{memo.name}' but never writes its "
                        f"storage field {memo.field}"
                    ),
                    fix_hint=f"clear or reassign self.{memo.field}",
                )
        storage_key = (cls.qualname, memo.field)
        for dep in memo.depends:
            for fn_qual, write in writes_by_key.get(
                (cls.qualname, dep), ()
            ):
                function = ctx.index.functions[fn_qual]
                if function.is_constructor and function.cls == cls.qualname:
                    continue
                if storage_key in ctx.mutation.transitive.get(
                    fn_qual, frozenset()
                ):
                    continue
                if invalidator_qual is not None and (
                    invalidator_qual in ctx.graph.reachable_from(fn_qual)
                ):
                    continue
                remedy = (
                    f"call self.{memo.invalidator}()"
                    if memo.has_invalidator
                    else f"clear self.{memo.field}"
                )
                yield Violation(
                    rule=self.rule_id,
                    path=ctx.display_path(fn_qual),
                    line=write.lineno,
                    message=(
                        f"{fn_qual} mutates {cls.name}.{dep}, a "
                        f"dependency of memo '{memo.name}', without "
                        f"invalidating {memo.field}"
                    ),
                    fix_hint=f"{remedy} after mutating {dep}",
                )


# ---------------------------------------------------------------------------
# REP012 — transitive pickle-safety
# ---------------------------------------------------------------------------


class PickleSafetyRule(AuditRule):
    rule_id = "REP012"
    title = "worker-boundary types must stay picklable"
    rationale = (
        "specs and summaries cross the process boundary by pickle; a "
        "field that transitively holds a callable, lock or file object "
        "fails only at runtime, on the parallel path nobody runs in CI"
    )

    def check(self, ctx: AuditContext) -> Iterator[Violation]:
        roots = sorted(
            qual for qual, cls in ctx.index.classes.items()
            if cls.pickled_boundary
        )
        visited: set[str] = set()
        for root in roots:
            yield from self._walk(ctx, root, root.rsplit(".", 1)[-1],
                                  visited)

    def _walk(
        self,
        ctx: AuditContext,
        cls_qual: str,
        path_label: str,
        visited: set[str],
    ) -> Iterator[Violation]:
        if cls_qual in visited:
            return
        visited.add(cls_qual)
        cls = ctx.index.classes.get(cls_qual)
        if cls is None:
            return
        if cls.has_custom_reduce:
            # The class defines its own pickle protocol; its internals
            # are its own business.
            return
        for field_name in sorted(cls.fields):
            info = cls.fields[field_name]
            bad = sorted(
                name for name in info.annotation_names
                if name in UNPICKLABLE_NAMES
            )
            for name in bad:
                yield Violation(
                    rule=self.rule_id,
                    path=ctx.display_path(cls_qual),
                    line=info.lineno,
                    message=(
                        f"{path_label}.{field_name} reaches the worker "
                        f"boundary but its annotation contains "
                        f"unpicklable {name}"
                    ),
                    fix_hint=(
                        "carry a declarative value instead, or give the "
                        "owning class __reduce__/__getstate__"
                    ),
                )
            for name in info.annotation_names:
                resolved = ctx.index.resolve(cls.module, name)
                if resolved is not None and resolved in ctx.index.classes:
                    yield from self._walk(
                        ctx, resolved, f"{path_label}.{field_name}",
                        visited,
                    )


# ---------------------------------------------------------------------------
# REP013 — interprocedural determinism taint
# ---------------------------------------------------------------------------


class DeterminismTaintRule(AuditRule):
    rule_id = "REP013"
    title = "no reachable wall-clock or global randomness in sim/core"
    rationale = (
        "REP001/REP002 check one file at a time; a helper in another "
        "module that reads the clock still poisons every simulation "
        "function that can reach it"
    )

    def check(self, ctx: AuditContext) -> Iterator[Violation]:
        sources = self._sources(ctx)
        if not sources:
            return
        tainted: dict[str, tuple[str, int, str]] = {}
        frontier = deque(sources)
        for qual, evidence in sources.items():
            tainted[qual] = evidence
        while frontier:
            current = frontier.popleft()
            for caller in ctx.graph.callers.get(current, ()):
                if caller not in tainted:
                    tainted[caller] = tainted[current]
                    frontier.append(caller)
        for sink in sorted(tainted):
            function = ctx.index.functions.get(sink)
            if function is None or not function.module.startswith(
                DETERMINISM_SINK_PREFIXES
            ):
                continue
            call_name, lineno, source_fn = tainted[sink]
            source_path = ctx.display_path(source_fn)
            chain = ctx.graph.path(sink, source_fn)
            rendered = " -> ".join(
                part.rsplit(".", 1)[-1] for part in chain
            ) or sink.rsplit(".", 1)[-1]
            yield Violation(
                rule=self.rule_id,
                path=ctx.display_path(sink),
                line=function.node.lineno,
                message=(
                    f"{sink} can reach nondeterministic {call_name}() "
                    f"at {source_path}:{lineno} (chain: {rendered})"
                ),
                fix_hint=(
                    "thread virtual time / a seeded generator through "
                    "the helper, or sanction the call with "
                    "# repro: ignore[REP001] / [REP002] where it is "
                    "provably off the replay path"
                ),
            )

    def _sources(
        self, ctx: AuditContext
    ) -> dict[str, tuple[str, int, str]]:
        """Function -> (banned call, line, function) for unsanctioned
        wall-clock / randomness calls.  A call the per-file lint
        suppresses (``# repro: ignore[REP001]``) is sanctioned here too:
        the suppression is the reviewed, visible opt-out."""
        sources: dict[str, tuple[str, int, str]] = {}
        import_maps = {
            module: ImportMap(src.tree)
            for module, src in ctx.index.modules.items()
        }
        for function in ctx.index.iter_functions():
            module_src = ctx.index.modules[function.module]
            imports = import_maps[function.module]
            for node in ast.walk(function.node):
                if not isinstance(node, ast.Call):
                    continue
                qualified = imports.qualified_name(node.func)
                if qualified is None:
                    continue
                rule = _banned_call_rule(qualified, node)
                if rule is None:
                    continue
                if module_src.is_suppressed(node.lineno, rule):
                    continue
                sources.setdefault(
                    function.qualname,
                    (qualified, node.lineno, function.qualname),
                )
                break
        return sources


def _banned_call_rule(qualified: str, node: ast.Call) -> str | None:
    """The per-file rule id a banned call falls under, else None."""
    if qualified in _WALLCLOCK_BANNED:
        return "REP001"
    if qualified in _ALWAYS_BANNED:
        return "REP002"
    if qualified in _SEEDED_CONSTRUCTORS:
        # Seeded construction is the sanctioned pattern; only the
        # no-argument (OS-entropy) form taints.
        return None if (node.args or node.keywords) else "REP002"
    if _is_module_level_random(qualified):
        return "REP002"
    return None


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


ALL_AUDIT_RULES: tuple[AuditRule, ...] = (
    MemoInvalidationRule(),
    PickleSafetyRule(),
    DeterminismTaintRule(),
)


@dataclass(frozen=True)
class AuditReport:
    """The outcome of one :func:`run_audit` invocation."""

    violations: tuple[Violation, ...]
    modules: int
    functions: int
    classes: int
    memos: int
    suppressed_count: int

    @property
    def clean(self) -> bool:
        return not self.violations


def run_audit(
    roots: Sequence[Path],
    rules: Iterable[AuditRule] | None = None,
) -> AuditReport:
    """Build the whole-program context and run every audit rule."""
    ctx = AuditContext.build(roots)
    rule_list = list(ALL_AUDIT_RULES if rules is None else rules)
    violations: list[Violation] = []
    suppressed = 0
    for rule in rule_list:
        for violation in rule.check(ctx):
            source = next(
                (
                    src for src in ctx.index.modules.values()
                    if src.display_path == violation.path
                ),
                None,
            )
            if source is not None and source.is_suppressed(
                violation.line, violation.rule
            ):
                suppressed += 1
                continue
            violations.append(violation)
    violations.sort(key=lambda v: (v.path, v.line, v.rule, v.message))
    return AuditReport(
        violations=tuple(dict.fromkeys(violations)),
        modules=len(ctx.index.modules),
        functions=len(ctx.index.functions),
        classes=len(ctx.index.classes),
        memos=sum(len(c.memos) for c in ctx.index.classes.values()),
        suppressed_count=suppressed,
    )


def _writes_by_key(
    ctx: AuditContext,
) -> dict[tuple[str, str], list[tuple[str, Write]]]:
    by_key: dict[tuple[str, str], list[tuple[str, Write]]] = {}
    for fn_qual in sorted(ctx.mutation.direct):
        for write in ctx.mutation.direct[fn_qual]:
            by_key.setdefault(write.key, []).append((fn_qual, write))
    return by_key


def _has_field(cls: ClassInfo, name: str, index: ProjectIndex) -> bool:
    if name in cls.fields:
        return True
    return any(
        (base_info := index.classes.get(base)) is not None
        and _has_field(base_info, name, index)
        for base in cls.bases
    )
