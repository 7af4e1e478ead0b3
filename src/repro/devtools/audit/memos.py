"""Parsing for the ``# repro:`` audit annotation comments.

The grammar is deliberately tiny and line-based (like the existing
``# repro: ignore[...]`` suppressions), so declarations stay next to the
code they describe and survive plain-text tooling:

``# repro: memo(name: field=_f, depends=[a, b], invalidator=m)``
    Declares a memoized derived view on the enclosing class.  ``field``
    is the instance attribute holding the cached value, ``depends`` the
    instance fields the cached value is computed from, ``invalidator``
    the method that clears it (``none`` for fill-only memos whose
    mutators must clear the storage field directly).  A declaration too
    long for one line may continue over directly following comment
    lines until its parenthesis closes::

        # repro: memo(response: field=_response_cache,
        #   depends=[_rrsets, _delegations],
        #   invalidator=_invalidate_response_cache)

``# repro: pickled-boundary``
    Marks the enclosing class as a worker-boundary spec/summary root
    for the transitive pickle-safety walk.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass

_MARKER_RE = re.compile(r"#\s*repro:\s*(?P<body>[a-z-]+.*)$")
_CONTINUATION_RE = re.compile(r"^\s*#\s?(?P<body>.*)$")

_MEMO_RE = re.compile(
    r"memo\(\s*(?P<name>\w+)\s*:"
    r"\s*field\s*=\s*(?P<field>\w+)\s*,"
    r"\s*depends\s*=\s*\[(?P<deps>[^\]]*)\]\s*,"
    r"\s*invalidator\s*=\s*(?P<invalidator>\w+)\s*\)"
)

#: ``invalidator=none`` — the memo has no named invalidator method;
#: every mutator must clear the storage field itself.
NO_INVALIDATOR = "none"


@dataclass(frozen=True)
class MemoDecl:
    """One declared memo: storage field, dependency fields, invalidator."""

    name: str
    field: str
    depends: tuple[str, ...]
    invalidator: str
    lineno: int

    @property
    def has_invalidator(self) -> bool:
        return self.invalidator != NO_INVALIDATOR


class MemoDeclError(ValueError):
    """A ``# repro: memo(...)`` comment that does not parse."""


def scan_marker_lines(text: str) -> dict[int, str]:
    """First line number -> complete marker body for ``# repro:`` comments.

    A marker whose parenthesis does not close on its own line is
    continued over the directly following comment lines.  ``ignore[...]``
    suppressions are the per-line lint's concern and are filtered out.
    """
    comments: dict[int, str] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(text).readline):
            if token.type == tokenize.COMMENT:
                # Markers live on their own line or after code; either
                # way tokenize hands us exactly the comment text, so a
                # ``# repro:`` inside a string never parses as one.
                comments[token.start[0]] = token.string
    except (tokenize.TokenError, IndentationError):  # pragma: no cover
        return {}
    markers: dict[int, str] = {}
    linenos = sorted(comments)
    position = 0
    while position < len(linenos):
        start = linenos[position]
        match = _MARKER_RE.search(comments[start])
        position += 1
        if match is None:
            continue
        body = match.group("body").strip()
        if body.startswith("ignore"):
            continue
        lineno = start
        while body.count("(") > body.count(")"):
            continuation = _CONTINUATION_RE.match(comments.get(lineno + 1, ""))
            if continuation is None:
                break
            body += " " + continuation.group("body").strip()
            lineno += 1
            if position < len(linenos) and linenos[position] == lineno:
                position += 1
        markers[start] = body
    return markers


def parse_memo_decls(markers: dict[int, str]) -> tuple[MemoDecl, ...]:
    """Every ``memo(...)`` declaration among ``markers``, parsed.

    Raises:
        MemoDeclError: for a ``memo(`` marker that does not match the
            grammar — a silently dropped declaration would silently
            drop its rule coverage too.
    """
    decls: list[MemoDecl] = []
    for lineno in sorted(markers):
        body = markers[lineno]
        if not body.startswith("memo("):
            continue
        match = _MEMO_RE.fullmatch(body)
        if match is None:
            raise MemoDeclError(
                f"line {lineno}: malformed memo declaration {body!r}; "
                f"expected memo(name: field=_f, depends=[a, b], "
                f"invalidator=m)"
            )
        depends = tuple(
            dep.strip() for dep in match.group("deps").split(",")
            if dep.strip()
        )
        decls.append(
            MemoDecl(
                name=match.group("name"),
                field=match.group("field"),
                depends=depends,
                invalidator=match.group("invalidator"),
                lineno=lineno,
            )
        )
    return tuple(decls)
