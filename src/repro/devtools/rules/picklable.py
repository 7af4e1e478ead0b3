"""REP004 — spec/metrics/summary dataclasses must be picklable by construction.

:func:`repro.experiments.parallel.run_replays` ships ``*Spec`` objects to
worker processes and ``*Metrics`` / ``*Summary`` records back.  Pickle failures there
surface as opaque ``BrokenProcessPool`` errors at fan-out time, so the
classes are constrained statically instead: module-level ``@dataclass``
definitions, no lambdas anywhere in the class body (default factories
included), and no ``Callable`` fields.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.devtools.checks import ModuleSource, Rule, Violation

_SUFFIXES = ("Spec", "Metrics", "Summary")


def _is_spec_like(name: str) -> bool:
    return name.endswith(_SUFFIXES)


def _is_dataclass_decorated(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


def _annotation_names(annotation: ast.expr) -> Iterator[str]:
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # Deferred annotations arrive as strings under
            # `from __future__ import annotations` when quoted.
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(parsed.body)


class PicklableSpecRule(Rule):
    rule_id = "REP004"
    title = "spec/metrics/summary dataclasses picklable by construction"
    rationale = (
        "ReplaySpecs go to worker processes and ReplayMetrics records "
        "come back (a fleet is one ReplaySpec per member); lambdas, "
        "local classes and Callable fields fail to pickle only at fan-out "
        "time, so they are banned statically"
    )

    def applies_to(self, display_path: str) -> bool:
        # Every package: specs nest (AdversarySpec lives in simulation/,
        # FaultSpec beside it) and a bad field one hop from ReplaySpec
        # breaks the pool just the same.
        return "repro/" in display_path

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef) and _is_spec_like(node.name):
                yield from self._check_class(module, node)
        # Any *Spec/*Metrics/*Summary class not at module level cannot be pickled
        # at all (pickle resolves classes by qualified module attribute).
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.ClassDef) and _is_spec_like(
                        inner.name
                    ):
                        yield self.violation(
                            module,
                            inner,
                            f"class {inner.name} is defined inside a "
                            f"function; local classes cannot be pickled",
                        )

    def _check_class(
        self, module: ModuleSource, node: ast.ClassDef
    ) -> Iterator[Violation]:
        if not _is_dataclass_decorated(node):
            yield self.violation(
                module,
                node,
                f"class {node.name} looks like a worker-boundary spec but "
                f"is not a @dataclass; specs must be plain dataclasses",
            )
        for item in node.body:
            for expr in ast.walk(item):
                if isinstance(expr, ast.Lambda):
                    yield self.violation(
                        module,
                        expr,
                        f"lambda inside {node.name}; lambdas cannot be "
                        f"pickled (use a module-level function)",
                    )
            if isinstance(item, ast.AnnAssign):
                names = set(_annotation_names(item.annotation))
                if "Callable" in names:
                    field = getattr(item.target, "id", "<field>")
                    yield self.violation(
                        module,
                        item,
                        f"field {node.name}.{field} is annotated Callable; "
                        f"callables are not reliably picklable across "
                        f"worker boundaries",
                    )
