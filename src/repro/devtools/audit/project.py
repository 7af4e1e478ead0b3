"""The project-wide symbol table: every module parsed once, indexed.

A :class:`ProjectIndex` walks one or more package roots, parses each
module through the same :func:`~repro.devtools.checks.load_module` the
per-file lint uses, and records every class and function under its
dotted qualified name (``repro.dns.zone.Zone.lookup``).  On top of the
raw symbols it derives what the interprocedural passes need:

* per-module namespaces (local definitions + import aliases resolved to
  project symbols where possible);
* per-class **field types**, inferred from class-body annotations,
  ``self.x: T = ...`` annotated assignments in ``__init__``, and plain
  ``self.x = param`` assignments from annotated parameters;
* a small structural-type language (:class:`TypeDesc`) covering project
  classes and the stdlib containers the hot path actually uses, so the
  call-graph pass can resolve ``self._entries.get(key)`` to a
  ``CacheEntry`` receiver.

Everything is name-resolution based and conservative: a name that
cannot be resolved stays unresolved rather than guessed (DESIGN.md §14
lists the resulting over- and under-approximations).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from repro.devtools.checks import ImportMap, ModuleSource, load_module
from repro.devtools.audit.memos import (
    MemoDecl,
    parse_memo_decls,
    scan_marker_lines,
)

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

#: Containers the type language models structurally.
_CONTAINERS = frozenset({"dict", "list", "tuple", "set", "frozenset",
                         "Dict", "List", "Tuple", "Set", "FrozenSet",
                         "Mapping", "MutableMapping", "Sequence",
                         "Iterable", "Iterator"})

_OPTIONALS = frozenset({"Optional", "Union"})


@dataclass(frozen=True)
class TypeDesc:
    """One structural type: a project class, a container, or opaque.

    ``kind`` is ``"class"`` (``name`` = class qualname), ``"dict"`` /
    ``"seq"`` (``args`` = element descriptors) or ``"opaque"`` (an
    external or unresolvable type the analysis does not look through).
    """

    kind: str
    name: str = ""
    args: tuple["TypeDesc", ...] = ()

    @property
    def is_class(self) -> bool:
        return self.kind == "class"

    def value_type(self) -> "TypeDesc":
        """The element type produced by indexing / ``.get`` on this type."""
        if self.kind == "dict" and len(self.args) == 2:
            return self.args[1]
        if self.kind == "seq" and self.args:
            return self.args[0]
        return OPAQUE

    def key_type(self) -> "TypeDesc":
        if self.kind == "dict" and self.args:
            return self.args[0]
        return OPAQUE


OPAQUE = TypeDesc(kind="opaque")


@dataclass
class FieldInfo:
    """One instance field of a project class."""

    name: str
    type: TypeDesc
    lineno: int
    annotation_names: tuple[str, ...] = ()
    """Every bare identifier appearing in the field's annotation, for
    the pickle-safety walk (``Callable``, ``IO``, ...)."""


@dataclass
class FunctionInfo:
    """One function or method, addressable by qualified name."""

    qualname: str
    module: str
    name: str
    cls: str | None
    node: ast.FunctionDef | ast.AsyncFunctionDef
    decorators: tuple[str, ...] = ()
    invalidates: tuple[str, ...] = ()
    """Memo names declared via ``@invalidates(...)``."""

    @property
    def is_method(self) -> bool:
        return self.cls is not None

    @property
    def is_constructor(self) -> bool:
        return self.is_method and self.name in ("__init__", "__new__",
                                                "__post_init__")


@dataclass
class ClassInfo:
    """One project class: methods, inferred fields, audit annotations."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    bases: tuple[str, ...] = ()
    methods: dict[str, str] = field(default_factory=dict)
    fields: dict[str, FieldInfo] = field(default_factory=dict)
    memos: tuple[MemoDecl, ...] = ()
    pickled_boundary: bool = False
    is_dataclass: bool = False
    has_custom_reduce: bool = False

    def method(self, name: str, index: "ProjectIndex") -> str | None:
        """Resolve ``name`` through this class and its project bases."""
        found = self.methods.get(name)
        if found is not None:
            return found
        for base in self.bases:
            base_info = index.classes.get(base)
            if base_info is not None:
                found = base_info.method(name, index)
                if found is not None:
                    return found
        return None

    def field_type(self, name: str, index: "ProjectIndex") -> TypeDesc:
        info = self.fields.get(name)
        if info is not None:
            return info.type
        for base in self.bases:
            base_info = index.classes.get(base)
            if base_info is not None:
                found = base_info.field_type(name, index)
                if found is not OPAQUE:
                    return found
        return OPAQUE


class ProjectIndex:
    """All modules of one or more package roots, parsed and cross-linked."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleSource] = {}
        self.imports: dict[str, ImportMap] = {}
        self.classes: dict[str, ClassInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        #: module name -> {local name -> qualified symbol}
        self.namespaces: dict[str, dict[str, str]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, roots: Sequence[Path]) -> "ProjectIndex":
        """Parse every ``.py`` file under each package root.

        Each root directory is treated as a package whose name is the
        directory's own name (``src/repro`` indexes as ``repro.*``).

        Raises:
            SyntaxError: when any file fails to parse — a whole-program
                analysis over a half-parsed tree proves nothing.
        """
        index = cls()
        for root in roots:
            package = root.name
            for path in sorted(root.rglob("*.py")):
                relative = path.relative_to(root).with_suffix("")
                parts = [package, *relative.parts]
                if parts[-1] == "__init__":
                    parts = parts[:-1]
                module_name = ".".join(parts)
                display = path.as_posix()
                index._index_module(module_name, load_module(path, display))
        index._link()
        return index

    def _index_module(self, module_name: str, source: ModuleSource) -> None:
        self.modules[module_name] = source
        self.imports[module_name] = ImportMap(source.tree)
        namespace: dict[str, str] = {}
        self.namespaces[module_name] = namespace
        markers = scan_marker_lines(source.text)
        for node in source.tree.body:
            if isinstance(node, ast.ClassDef):
                self._index_class(module_name, node, markers)
                namespace[node.name] = f"{module_name}.{node.name}"
            elif isinstance(node, _FUNCTION_NODES):
                self._index_function(module_name, None, node)
                namespace[node.name] = f"{module_name}.{node.name}"

    def _index_class(
        self,
        module_name: str,
        node: ast.ClassDef,
        markers: dict[int, str],
    ) -> None:
        qualname = f"{module_name}.{node.name}"
        info = ClassInfo(
            qualname=qualname,
            module=module_name,
            name=node.name,
            node=node,
        )
        info.is_dataclass = _has_decorator(node, "dataclass")
        self.classes[qualname] = info
        for item in node.body:
            if isinstance(item, _FUNCTION_NODES):
                function = self._index_function(module_name, qualname, item)
                info.methods[item.name] = function.qualname
                if item.name in ("__reduce__", "__reduce_ex__",
                                 "__getstate__"):
                    info.has_custom_reduce = True
        end = node.end_lineno or node.lineno
        body_markers = {
            line: text for line, text in markers.items()
            if node.lineno <= line <= end
        }
        info.memos = parse_memo_decls(body_markers)
        info.pickled_boundary = any(
            text == "pickled-boundary" for text in body_markers.values()
        )

    def _index_function(
        self,
        module_name: str,
        cls: str | None,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> FunctionInfo:
        if cls is None:
            qualname = f"{module_name}.{node.name}"
        else:
            qualname = f"{cls}.{node.name}"
        decorators = tuple(
            name for name in (_decorator_name(d) for d in node.decorator_list)
            if name
        )
        invalidated: list[str] = []
        for decorator in node.decorator_list:
            if (
                isinstance(decorator, ast.Call)
                and _decorator_name(decorator) == "invalidates"
            ):
                for arg in decorator.args:
                    if isinstance(arg, ast.Constant) and isinstance(
                        arg.value, str
                    ):
                        invalidated.append(arg.value)
        info = FunctionInfo(
            qualname=qualname,
            module=module_name,
            name=node.name,
            cls=cls,
            node=node,
            decorators=decorators,
            invalidates=tuple(invalidated),
        )
        self.functions[qualname] = info
        return info

    def _link(self) -> None:
        """Second pass once all symbols exist: bases and field types."""
        for info in self.classes.values():
            info.bases = tuple(
                resolved
                for base in info.node.bases
                if (resolved := self._resolve_expr_symbol(info.module, base))
                and resolved in self.classes
            )
        for info in self.classes.values():
            self._infer_fields(info)

    # -- name resolution ---------------------------------------------------

    def resolve(self, module: str, name: str) -> str | None:
        """The qualified project symbol ``name`` refers to in ``module``.

        Handles local definitions and import aliases; returns None for
        anything external to the indexed roots.
        """
        local = self.namespaces.get(module, {}).get(name)
        if local is not None:
            return local
        imports = self.imports.get(module)
        if imports is None:
            return None
        origin = imports.qualified_name(ast.Name(id=name))
        return self._project_symbol(origin)

    def _project_symbol(self, dotted: str | None) -> str | None:
        """Normalise a dotted origin to an indexed symbol, if it is one."""
        if dotted is None:
            return None
        if dotted in self.classes or dotted in self.functions:
            return dotted
        # `from repro.dns import zone` style: module alias + attribute.
        if dotted in self.modules:
            return dotted
        return None

    def _resolve_expr_symbol(self, module: str, node: ast.expr) -> str | None:
        """Resolve a Name/Attribute expression to a project symbol."""
        if isinstance(node, ast.Name):
            return self.resolve(module, node.id)
        if isinstance(node, ast.Attribute):
            base = self._resolve_expr_symbol(module, node.value)
            if base is None:
                # The base may itself be a module alias.
                imports = self.imports.get(module)
                if imports is not None:
                    dotted = imports.qualified_name(node)
                    return self._project_symbol(dotted)
                return None
            candidate = f"{base}.{node.attr}"
            return self._project_symbol(candidate)
        return None

    # -- type language -----------------------------------------------------

    def resolve_annotation(self, module: str, node: ast.expr) -> TypeDesc:
        """Interpret an annotation expression as a :class:`TypeDesc`."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return OPAQUE
            return self.resolve_annotation(module, parsed)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            # `X | None` and unions generally: analysis-wise the useful
            # half is the project class; pick the first resolvable side.
            for side in (node.left, node.right):
                desc = self.resolve_annotation(module, side)
                if desc is not OPAQUE:
                    return desc
            return OPAQUE
        if isinstance(node, ast.Subscript):
            head = _annotation_head(node.value)
            if head in _OPTIONALS:
                inner = node.slice
                elements = (
                    inner.elts if isinstance(inner, ast.Tuple) else [inner]
                )
                for element in elements:
                    desc = self.resolve_annotation(module, element)
                    if desc is not OPAQUE:
                        return desc
                return OPAQUE
            if head in _CONTAINERS:
                inner = node.slice
                elements = (
                    inner.elts if isinstance(inner, ast.Tuple) else [inner]
                )
                args = tuple(
                    self.resolve_annotation(module, element)
                    for element in elements
                    if not (
                        isinstance(element, ast.Constant)
                        and element.value is Ellipsis
                    )
                )
                if head in ("dict", "Dict", "Mapping", "MutableMapping"):
                    if len(args) == 2:
                        return TypeDesc(kind="dict", args=args)
                    return OPAQUE
                if args:
                    # All sequence-likes collapse to their element type;
                    # heterogeneous tuples keep the first project class.
                    for arg in args:
                        if arg.is_class:
                            return TypeDesc(kind="seq", args=(arg,))
                    return TypeDesc(kind="seq", args=(args[0],))
                return OPAQUE
            return OPAQUE
        symbol = self._resolve_expr_symbol(module, node)
        if symbol is not None and symbol in self.classes:
            return TypeDesc(kind="class", name=symbol)
        return OPAQUE

    # -- field inference ---------------------------------------------------

    def _infer_fields(self, info: ClassInfo) -> None:
        module = info.module
        # Class-body annotations (dataclasses and annotated attributes).
        for item in info.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(
                item.target, ast.Name
            ):
                names = tuple(sorted(_annotation_identifiers(item.annotation)))
                info.fields[item.target.id] = FieldInfo(
                    name=item.target.id,
                    type=self.resolve_annotation(module, item.annotation),
                    lineno=item.lineno,
                    annotation_names=names,
                )
        # __init__ / __new__ self-assignments.
        for method_name in ("__init__", "__new__", "__post_init__"):
            method = self.functions.get(info.methods.get(method_name, ""))
            if method is None:
                continue
            params = self._parameter_types(method)
            receiver = _first_parameter(method.node)
            for node in ast.walk(method.node):
                target: ast.expr | None = None
                value: ast.expr | None = None
                annotation: ast.expr | None = None
                if isinstance(node, ast.AnnAssign):
                    target, annotation = node.target, node.annotation
                elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                if (
                    not isinstance(target, ast.Attribute)
                    or not isinstance(target.value, ast.Name)
                    or target.value.id != receiver
                    or target.attr in info.fields
                ):
                    continue
                if annotation is not None:
                    desc = self.resolve_annotation(module, annotation)
                    names = tuple(sorted(_annotation_identifiers(annotation)))
                elif isinstance(value, ast.Name):
                    desc = params.get(value.id, OPAQUE)
                    names = ()
                elif isinstance(value, ast.Call):
                    desc = self._constructed_type(module, value)
                    names = ()
                else:
                    desc, names = OPAQUE, ()
                info.fields[target.attr] = FieldInfo(
                    name=target.attr,
                    type=desc,
                    lineno=node.lineno,
                    annotation_names=names,
                )
        # `object.__setattr__(self, "field", ...)` fills on frozen/slots
        # classes: register the field name so memo declarations can name
        # it even though no annotation exists (type stays opaque).
        for method_qual in info.methods.values():
            method = self.functions.get(method_qual)
            if method is None:
                continue
            for node in ast.walk(method.node):
                written = _setattr_field(node)
                if written is not None and written not in info.fields:
                    info.fields[written] = FieldInfo(
                        name=written, type=OPAQUE, lineno=node.lineno
                    )

    def _parameter_types(self, function: FunctionInfo) -> dict[str, TypeDesc]:
        """Annotated parameter name -> descriptor (``self`` included)."""
        types: dict[str, TypeDesc] = {}
        arguments = function.node.args
        all_args = [*arguments.posonlyargs, *arguments.args,
                    *arguments.kwonlyargs]
        for arg in all_args:
            if arg.annotation is not None:
                types[arg.arg] = self.resolve_annotation(
                    function.module, arg.annotation
                )
        if function.is_method and all_args:
            first = all_args[0].arg
            if first not in types and function.cls is not None:
                types[first] = TypeDesc(kind="class", name=function.cls)
        return types

    def _constructed_type(self, module: str, call: ast.Call) -> TypeDesc:
        """The type produced by ``SomeClass(...)`` / ``some_func(...)``."""
        symbol = self._resolve_expr_symbol(module, call.func)
        if symbol is None:
            return OPAQUE
        if symbol in self.classes:
            return TypeDesc(kind="class", name=symbol)
        function = self.functions.get(symbol)
        if function is not None and function.node.returns is not None:
            return self.resolve_annotation(
                function.module, function.node.returns
            )
        return OPAQUE

    # -- queries -----------------------------------------------------------

    def iter_functions(self) -> Iterator[FunctionInfo]:
        return iter(self.functions.values())

    def class_of(self, function: FunctionInfo) -> ClassInfo | None:
        if function.cls is None:
            return None
        return self.classes.get(function.cls)

    def source_for(self, function_or_class: str) -> ModuleSource | None:
        """The module source a qualified symbol was defined in."""
        function = self.functions.get(function_or_class)
        if function is not None:
            return self.modules.get(function.module)
        cls = self.classes.get(function_or_class)
        if cls is not None:
            return self.modules.get(cls.module)
        return None


def _has_decorator(node: ast.ClassDef, name: str) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == name:
            return True
        if isinstance(target, ast.Attribute) and target.attr == name:
            return True
    return False


def _decorator_name(node: ast.expr) -> str:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return ""


def _annotation_head(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _annotation_identifiers(node: ast.expr) -> Iterator[str]:
    """Every bare identifier in an annotation (strings re-parsed)."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            try:
                parsed = ast.parse(child.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_identifiers(parsed.body)


def _first_parameter(
    node: ast.FunctionDef | ast.AsyncFunctionDef,
) -> str:
    arguments = node.args
    ordered = [*arguments.posonlyargs, *arguments.args]
    return ordered[0].arg if ordered else "self"


def _setattr_field(node: ast.AST) -> str | None:
    """The field written by ``object.__setattr__(x, "field", v)``, if any."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if not (
        isinstance(func, ast.Attribute)
        and func.attr == "__setattr__"
        and isinstance(func.value, ast.Name)
        and func.value.id == "object"
    ):
        return None
    if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
        value = node.args[1].value
        if isinstance(value, str):
            return value
    return None
