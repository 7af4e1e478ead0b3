"""A conservative, name-resolution-based project call graph.

For every indexed function the pass resolves each call expression to a
project function where names and a small amount of local typing allow:

* ``self.m()`` / ``cls.m()`` / ``super().m()`` through the enclosing
  class and its project bases;
* ``func()`` / ``module.func()`` / ``Class(...)`` through the module
  namespace and import aliases (constructor calls edge to ``__init__``);
* ``obj.m()`` where ``obj``'s class is inferable from parameter
  annotations, ``__init__`` field types, local assignments from
  constructors or typed fields, container element types
  (``self._entries[k]``, ``self._entries.get(k)``, iteration over
  ``.values()`` / ``.items()``), or project function return
  annotations.

``self.m`` *references* that are not calls (method rebinding, callables
passed as arguments) are recorded as edges too — the referenced code
may run, and the audit's consumers (taint, purity) must assume it does.
Unresolvable calls stay unresolved rather than guessed; DESIGN.md §14
discusses what that under-approximates.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from repro.devtools.audit.project import (
    OPAQUE,
    FunctionInfo,
    ProjectIndex,
    TypeDesc,
)


@dataclass
class _Scope:
    """Per-function inference state."""

    function: FunctionInfo
    env: dict[str, TypeDesc] = field(default_factory=dict)
    aliases: dict[str, tuple[str, str]] = field(default_factory=dict)
    """Local name -> (class qualname, field) when the local aliases a
    mutable field (``entries = self._entries``)."""


class CallGraph:
    """Edges between project functions, indexed both ways."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        self.edges: dict[str, set[str]] = {}
        self.callers: dict[str, set[str]] = {}
        self.scopes: dict[str, _Scope] = {}
        for function in index.iter_functions():
            self._analyze(function)

    # -- construction ------------------------------------------------------

    def _analyze(self, function: FunctionInfo) -> None:
        scope = _Scope(function=function)
        scope.env.update(self.index._parameter_types(function))
        self.scopes[function.qualname] = scope
        # Two passes over local assignments: later assignments may feed
        # earlier-inferred names (flow-insensitive fixed point, depth 2).
        for _ in range(2):
            self._collect_locals(function, scope)
        callees = self.edges.setdefault(function.qualname, set())
        for node in ast.walk(function.node):
            if isinstance(node, ast.Call):
                callees.update(self._resolve_call(node, scope))
            elif isinstance(node, ast.Attribute) and isinstance(
                node.ctx, ast.Load
            ):
                referenced = self._method_reference(node, scope)
                if referenced is not None:
                    callees.add(referenced)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                symbol = self.index.resolve(function.module, node.id)
                if symbol is not None and symbol in self.index.functions:
                    callees.add(symbol)
        for callee in callees:
            self.callers.setdefault(callee, set()).add(function.qualname)

    def _collect_locals(self, function: FunctionInfo, scope: _Scope) -> None:
        for node in ast.walk(function.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    desc = self.infer(node.value, scope)
                    if desc is not OPAQUE:
                        scope.env[target.id] = desc
                    alias = self._field_alias(node.value, scope)
                    if alias is not None:
                        scope.aliases[target.id] = alias
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                desc = self.index.resolve_annotation(
                    function.module, node.annotation
                )
                if desc is not OPAQUE:
                    scope.env[node.target.id] = desc
            elif isinstance(node, ast.For):
                self._bind_loop_target(node, scope)

    def _bind_loop_target(self, node: ast.For, scope: _Scope) -> None:
        iterated = node.iter
        pair: tuple[TypeDesc, TypeDesc] | None = None
        element: TypeDesc = OPAQUE
        if isinstance(iterated, ast.Call) and isinstance(
            iterated.func, ast.Attribute
        ):
            receiver = self.infer(iterated.func.value, scope)
            if receiver.kind == "dict":
                if iterated.func.attr == "values":
                    element = receiver.value_type()
                elif iterated.func.attr == "items":
                    pair = (receiver.key_type(), receiver.value_type())
                elif iterated.func.attr == "keys":
                    element = receiver.key_type()
        if pair is None and element is OPAQUE:
            container = self.infer(iterated, scope)
            if container.kind == "seq":
                element = container.value_type()
            elif container.kind == "dict":
                element = container.key_type()
        target = node.target
        if pair is not None and isinstance(target, ast.Tuple) and len(
            target.elts
        ) == 2:
            for part, desc in zip(target.elts, pair):
                if isinstance(part, ast.Name) and desc is not OPAQUE:
                    scope.env[part.id] = desc
        elif isinstance(target, ast.Name) and element is not OPAQUE:
            scope.env[target.id] = element

    # -- inference ---------------------------------------------------------

    def infer(self, node: ast.expr, scope: _Scope) -> TypeDesc:
        """Best-effort structural type of an expression."""
        index = self.index
        if isinstance(node, ast.Name):
            return scope.env.get(node.id, OPAQUE)
        if isinstance(node, ast.Attribute):
            base = self.infer(node.value, scope)
            if base.is_class:
                cls = index.classes.get(base.name)
                if cls is not None:
                    return cls.field_type(node.attr, index)
            return OPAQUE
        if isinstance(node, ast.Subscript):
            return self.infer(node.value, scope).value_type()
        if isinstance(node, ast.Call):
            return self._call_result(node, scope)
        if isinstance(node, ast.IfExp):
            for branch in (node.body, node.orelse):
                desc = self.infer(branch, scope)
                if desc is not OPAQUE:
                    return desc
        return OPAQUE

    def _call_result(self, node: ast.Call, scope: _Scope) -> TypeDesc:
        index = self.index
        func = node.func
        symbol = index._resolve_expr_symbol(scope.function.module, func)
        if symbol is not None:
            if symbol in index.classes:
                return TypeDesc(kind="class", name=symbol)
            target = index.functions.get(symbol)
            if target is not None and target.node.returns is not None:
                return index.resolve_annotation(
                    target.module, target.node.returns
                )
            return OPAQUE
        if isinstance(func, ast.Attribute):
            receiver = self.infer(func.value, scope)
            if receiver.kind == "dict" and func.attr in ("get", "pop",
                                                         "setdefault"):
                return receiver.value_type()
            if receiver.kind == "seq" and func.attr == "pop":
                return receiver.value_type()
            if receiver.is_class:
                cls = index.classes.get(receiver.name)
                if cls is not None:
                    method_qual = cls.method(func.attr, index)
                    method = (
                        index.functions.get(method_qual)
                        if method_qual else None
                    )
                    if method is not None and method.node.returns is not None:
                        return index.resolve_annotation(
                            method.module, method.node.returns
                        )
        return OPAQUE

    def _field_alias(
        self, node: ast.expr, scope: _Scope
    ) -> tuple[str, str] | None:
        """``(class, field)`` when ``node`` is a typed-attribute load."""
        if isinstance(node, ast.Attribute):
            base = self.infer(node.value, scope)
            if base.is_class:
                return (base.name, node.attr)
        return None

    # -- call resolution ---------------------------------------------------

    def _resolve_call(
        self, node: ast.Call, scope: _Scope
    ) -> Iterable[str]:
        index = self.index
        module = scope.function.module
        func = node.func
        # super().m()
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Call)
            and isinstance(func.value.func, ast.Name)
            and func.value.func.id == "super"
        ):
            enclosing = index.class_of(scope.function)
            if enclosing is not None:
                for base in enclosing.bases:
                    base_info = index.classes.get(base)
                    if base_info is not None:
                        found = base_info.method(func.attr, index)
                        if found is not None:
                            return (found,)
            return ()
        symbol = index._resolve_expr_symbol(module, func)
        if symbol is not None:
            if symbol in index.functions:
                return (symbol,)
            if symbol in index.classes:
                constructor = index.classes[symbol].method("__init__", index)
                return (constructor,) if constructor else ()
            return ()
        if isinstance(func, ast.Attribute):
            receiver = self.infer(func.value, scope)
            if receiver.is_class:
                cls = index.classes.get(receiver.name)
                if cls is not None:
                    found = cls.method(func.attr, index)
                    if found is not None:
                        return (found,)
        return ()

    def _method_reference(
        self, node: ast.Attribute, scope: _Scope
    ) -> str | None:
        """A method referenced without a call (``self._observed_get``)."""
        receiver = self.infer(node.value, scope)
        if not receiver.is_class:
            return None
        cls = self.index.classes.get(receiver.name)
        if cls is None:
            return None
        return cls.method(node.attr, self.index)

    # -- queries -----------------------------------------------------------

    def reachable_from(self, start: str) -> frozenset[str]:
        """Every function transitively callable from ``start`` (inclusive)."""
        seen = {start}
        frontier = deque((start,))
        while frontier:
            current = frontier.popleft()
            for callee in self.edges.get(current, ()):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return frozenset(seen)

    def path(self, start: str, goal: str) -> tuple[str, ...]:
        """A shortest call chain from ``start`` to ``goal`` (inclusive).

        Empty when ``goal`` is unreachable; used only for violation
        messages, so plain BFS is fine.
        """
        if start == goal:
            return (start,)
        parents: dict[str, str] = {}
        frontier = deque((start,))
        seen = {start}
        while frontier:
            current = frontier.popleft()
            for callee in self.edges.get(current, ()):
                if callee in seen:
                    continue
                parents[callee] = current
                if callee == goal:
                    chain = [callee]
                    while chain[-1] != start:
                        chain.append(parents[chain[-1]])
                    return tuple(reversed(chain))
                seen.add(callee)
                frontier.append(callee)
        return ()
