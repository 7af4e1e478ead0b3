"""Per-function field-mutation sets and purity, transitively closed.

The pass answers one question for every project function: *which
``(class, field)`` pairs may this function write, directly or through
anything it calls?*  Direct writes cover:

* ``self.f = ...`` / ``self.f += ...`` / ``del self.f`` (and the same
  through any receiver whose class is inferable);
* ``self.f[k] = ...`` / ``del self.f[k]`` — a store *into* a field's
  container mutates the field;
* mutating method calls on a field (``self._entries.clear()``,
  ``.append``, ``.pop``, ``.update``, ...);
* ``object.__setattr__(self, "f", ...)`` fills on frozen/slots classes;
* the same operations through a **local alias** of a field
  (``entries = self._entries; entries[k] = v``).

Transitive sets are the least fixed point over the call graph
(references included — a rebound or passed method may run).  A function
is *pure* when its transitive write-set is empty; the audit rules use
the direct sets to find leaf write sites and the transitive sets to
prove invalidation.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass

from repro.devtools.audit.callgraph import CallGraph, _Scope
from repro.devtools.audit.project import (
    FunctionInfo,
    ProjectIndex,
    _setattr_field,
)

#: Method names that mutate the receiver container in place.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "setdefault", "add", "discard", "sort", "reverse",
    "appendleft", "extendleft", "popleft", "rotate",
})


@dataclass(frozen=True)
class Write:
    """One direct write: which field of which class, and where."""

    cls: str
    field: str
    lineno: int

    @property
    def key(self) -> tuple[str, str]:
        return (self.cls, self.field)


class MutationAnalysis:
    """Direct and transitive ``(class, field)`` write-sets per function."""

    def __init__(self, graph: CallGraph) -> None:
        self.graph = graph
        self.index = graph.index
        self.direct: dict[str, tuple[Write, ...]] = {}
        self.transitive: dict[str, frozenset[tuple[str, str]]] = {}
        for function in self.index.iter_functions():
            self.direct[function.qualname] = tuple(
                self._direct_writes(function)
            )
        self._close()

    def is_pure(self, qualname: str) -> bool:
        """True when the function provably writes no project field."""
        return not self.transitive.get(qualname, frozenset())

    def mutates(self, qualname: str, cls: str, field: str) -> bool:
        return (cls, field) in self.transitive.get(qualname, frozenset())

    # -- direct writes -----------------------------------------------------

    def _direct_writes(self, function: FunctionInfo) -> list[Write]:
        scope = self.graph.scopes[function.qualname]
        writes: list[Write] = []
        for node in ast.walk(function.node):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    writes.extend(self._store_target(target, scope))
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                writes.extend(self._store_target(node.target, scope))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    writes.extend(self._store_target(target, scope))
            elif isinstance(node, ast.Call):
                writes.extend(self._call_writes(node, scope, function))
        return writes

    def _store_target(
        self, target: ast.expr, scope: _Scope
    ) -> list[Write]:
        """Writes implied by an assignment/del target."""
        if isinstance(target, (ast.Tuple, ast.List)):
            found: list[Write] = []
            for element in target.elts:
                found.extend(self._store_target(element, scope))
            return found
        if isinstance(target, ast.Starred):
            return self._store_target(target.value, scope)
        if isinstance(target, ast.Attribute):
            owner = self._owning_field(target, scope)
            return [Write(*owner, target.lineno)] if owner else []
        if isinstance(target, ast.Subscript):
            # `x[k] = v` mutates whatever container `x` names: a field
            # (`self._cache[k] = v`) or a local alias of one.
            return self._container_writes(target.value, scope,
                                          target.lineno)
        return []

    def _container_writes(
        self, container: ast.expr, scope: _Scope, lineno: int
    ) -> list[Write]:
        """Writes implied by mutating the container expression in place."""
        if isinstance(container, ast.Attribute):
            owner = self._owning_field(container, scope)
            return [Write(*owner, lineno)] if owner else []
        if isinstance(container, ast.Name):
            alias = scope.aliases.get(container.id)
            if alias is not None:
                return [Write(*alias, lineno)]
        if isinstance(container, ast.Subscript):
            # `self._buckets[i][k] = v` still mutates reachable state
            # owned by the outer field.
            return self._container_writes(container.value, scope, lineno)
        return []

    def _call_writes(
        self, node: ast.Call, scope: _Scope, function: FunctionInfo
    ) -> list[Write]:
        filled = _setattr_field(node)
        if filled is not None and node.args:
            receiver = self.graph.infer(node.args[0], scope)
            if receiver.is_class:
                return [Write(receiver.name, filled, node.lineno)]
            # `object.__setattr__(self, ...)` with an untyped receiver:
            # attribute the write to the enclosing class.
            if function.cls is not None:
                return [Write(function.cls, filled, node.lineno)]
            return []
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
            # Only container receivers mutate here; a *class* receiver
            # means a project method call, handled by the call graph.
            receiver_type = self.graph.infer(func.value, scope)
            if not receiver_type.is_class:
                return self._container_writes(func.value, scope,
                                              node.lineno)
        return []

    def _owning_field(
        self, attribute: ast.Attribute, scope: _Scope
    ) -> tuple[str, str] | None:
        base = self.graph.infer(attribute.value, scope)
        if base.is_class:
            return (base.name, attribute.attr)
        return None

    # -- transitive closure ------------------------------------------------

    def _close(self) -> None:
        sets: dict[str, set[tuple[str, str]]] = {
            qualname: {write.key for write in writes}
            for qualname, writes in self.direct.items()
        }
        pending = deque(sets)
        queued = set(sets)
        while pending:
            current = pending.popleft()
            queued.discard(current)
            merged = sets[current]
            before = len(merged)
            for callee in self.graph.edges.get(current, ()):
                merged |= sets.get(callee, set())
            if len(merged) != before:
                for caller in self.graph.callers.get(current, ()):
                    if caller not in queued:
                        queued.add(caller)
                        pending.append(caller)
        self.transitive = {
            qualname: frozenset(pairs) for qualname, pairs in sets.items()
        }


def build_analysis(index: ProjectIndex) -> MutationAnalysis:
    """Convenience: call graph + mutation closure in one step."""
    return MutationAnalysis(CallGraph(index))
