"""The lint framework: file walking, suppression, and rule plumbing.

A :class:`Rule` inspects one parsed module at a time and yields
:class:`Violation` records with a stable identifier (``REP001`` ...), a
path, a line and a message.  Rules are pure AST analyses — nothing is
imported or executed — so the gate is safe to run on any tree.

Suppression
-----------

A violation is suppressed by a trailing comment on the flagged line::

    object.__setattr__(self, "_plan", plan)  # repro: ignore[REP006]

``# repro: ignore`` without a rule list silences every rule on that
line; ``# repro: ignore[REP003,REP006]`` silences only those rules.
Suppressions are honoured per line, so they stay visible in review next
to the code they excuse.
"""

from __future__ import annotations

import ast
import fnmatch
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?"
)

#: Sentinel stored in a suppression map for "every rule on this line".
SUPPRESS_ALL = "*"

#: Version tag of the machine-readable findings shape emitted by
#: ``repro check --json``.  Bump when a field changes meaning or is
#: removed; adding optional fields is backwards-compatible within a
#: version.
FINDINGS_SCHEMA = "repro-findings/3"


@dataclass(frozen=True)
class Violation:
    """One finding: a rule hit at a specific file and line."""

    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        """Render as the conventional ``path:line: RULE message`` line."""
        return f"{self.path}:{self.line}: {self.rule} {self.message}"

    def as_dict(self) -> dict[str, object]:
        """One finding in the ``repro-findings`` schema (see
        :data:`FINDINGS_SCHEMA`)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }


def parse_suppressions(text: str) -> dict[int, frozenset[str]]:
    """Map line number -> suppressed rule ids (``SUPPRESS_ALL`` for all).

    Markers are read from comment tokens only, so the syntax quoted in a
    string or docstring suppresses nothing; a comment belongs to the
    physical line it is on, even inside a statement that spans several.
    Rule ids are case-normalised, whitespace inside the bracket list is
    ignored, and multiple markers on one line union their rule sets
    (a bare ``ignore`` anywhere on the line silences everything).
    """
    suppressed: dict[int, frozenset[str]] = {}
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type != tokenize.COMMENT:
            continue
        rules_on_line: set[str] = set()
        for match in _SUPPRESS_RE.finditer(token.string):
            rules = match.group("rules")
            if rules is None:
                rules_on_line.add(SUPPRESS_ALL)
            else:
                rules_on_line.update(
                    rule.strip().upper()
                    for rule in rules.split(",") if rule.strip()
                )
        if rules_on_line:
            suppressed[token.start[0]] = frozenset(rules_on_line)
    return suppressed


@dataclass(frozen=True)
class ModuleSource:
    """One parsed module plus everything a rule needs to inspect it."""

    path: Path
    display_path: str
    text: str
    tree: ast.Module
    suppressions: Mapping[int, frozenset[str]]

    def is_suppressed(self, line: int, rule_id: str) -> bool:
        rules = self.suppressions.get(line)
        if rules is None:
            return False
        return SUPPRESS_ALL in rules or rule_id.upper() in rules


class Rule:
    """Base class for one lint rule.

    Subclasses set :attr:`rule_id`, :attr:`title` and :attr:`rationale`,
    optionally narrow :meth:`applies_to`, and implement :meth:`check`.
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def applies_to(self, display_path: str) -> bool:
        """Whether this rule runs on the module at ``display_path``.

        Paths are posix-style strings exactly as the walker produced
        them (e.g. ``src/repro/simulation/metrics.py``).
        """
        return True

    def check(self, module: ModuleSource) -> Iterator[Violation]:
        """Yield every violation found in ``module``."""
        raise NotImplementedError

    def violation(
        self, module: ModuleSource, node: ast.AST, message: str
    ) -> Violation:
        """Build a :class:`Violation` anchored at ``node``'s line."""
        return Violation(
            rule=self.rule_id,
            path=module.display_path,
            line=getattr(node, "lineno", 0),
            message=message,
        )


class ImportMap:
    """Local alias -> dotted origin, for resolving qualified call names.

    ``import numpy as np`` maps ``np`` to ``numpy``;
    ``from random import Random as R`` maps ``R`` to ``random.Random``.
    """

    def __init__(self, tree: ast.Module) -> None:
        self._aliases: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.partition(".")[0]
                    origin = alias.name if alias.asname else local
                    self._aliases[local] = origin
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{node.module}.{alias.name}"

    def qualified_name(self, node: ast.expr) -> str | None:
        """The dotted origin of ``node`` (a Name or Attribute chain).

        Returns None when the base is not an imported module/name —
        method calls on local objects stay anonymous on purpose.
        """
        parts: list[str] = []
        current: ast.expr = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        origin = self._aliases.get(current.id)
        if origin is None:
            return None
        parts.append(origin)
        return ".".join(reversed(parts))


@dataclass(frozen=True)
class CheckReport:
    """The outcome of one :func:`run_checks` invocation."""

    violations: tuple[Violation, ...]
    files_checked: int
    suppressed_count: int
    rules_applied: tuple[str, ...]
    """Ids of the rules that ran on at least one file, sorted."""

    @property
    def clean(self) -> bool:
        return not self.violations


def load_module(path: Path, display_path: str | None = None) -> ModuleSource:
    """Parse one file into a :class:`ModuleSource`.

    Raises:
        SyntaxError: when the file is not valid Python — a gate that
            silently skipped unparseable code would hide exactly the
            breakage it exists to catch.
    """
    text = path.read_text(encoding="utf-8")
    shown = display_path if display_path is not None else path.as_posix()
    tree = ast.parse(text, filename=shown)
    return ModuleSource(
        path=path,
        display_path=shown,
        text=text,
        tree=tree,
        suppressions=parse_suppressions(text),
    )


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths`` (files pass through as-is).

    Yields in sorted order so reports are stable across filesystems —
    the framework holds itself to the determinism bar it enforces.
    """
    for root in paths:
        if root.is_file():
            if root.suffix == ".py":
                yield root
            continue
        yield from sorted(root.rglob("*.py"))


def _every_rule(_path: Path) -> Sequence[Rule]:
    """The whole registry, whatever the file (:func:`run_checks`' default)."""
    from repro.devtools.rules import ALL_RULES

    return ALL_RULES


def run_checks(
    paths: Sequence[Path],
    rules_for: Callable[[Path], Sequence[Rule]] = _every_rule,
    exclude: Sequence[str] = (),
) -> CheckReport:
    """Run the gate over every file in ``paths``.

    ``rules_for`` maps each file to the rule set it is held to; each
    rule's :meth:`Rule.applies_to` narrows that further.  ``exclude`` is a list of fnmatch globs matched against
    each file's posix display path; matching files are skipped entirely
    (they count neither as checked nor as suppressed).
    """
    violations: list[Violation] = []
    applied: set[str] = set()
    suppressed = 0
    files = 0
    for file_path in iter_python_files(paths):
        display = file_path.as_posix()
        if any(fnmatch.fnmatch(display, pattern) for pattern in exclude):
            continue
        module = load_module(file_path)
        files += 1
        for rule in rules_for(file_path):
            if not rule.applies_to(module.display_path):
                continue
            applied.add(rule.rule_id)
            for violation in rule.check(module):
                if module.is_suppressed(violation.line, violation.rule):
                    suppressed += 1
                    continue
                violations.append(violation)
    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    return CheckReport(
        violations=tuple(violations),
        files_checked=files,
        suppressed_count=suppressed,
        rules_applied=tuple(sorted(applied)),
    )
