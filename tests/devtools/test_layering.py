"""``core/`` and ``simulation/`` never import ``repro.serve``.

``repro/serve/`` reads the wall clock by design and is exempt from
REP001; that is safe only while the deterministic core cannot reach it.
"""

import ast
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent


def serve_imports(source: str) -> list[str]:
    """Every import of ``repro.serve`` in ``source``, module-level or lazy."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        hits += [f"line {node.lineno}: {dotted}" for dotted in names
                 if f"{dotted}.".startswith("repro.serve.")]
    return hits


@pytest.mark.parametrize("package", ["core", "simulation"])
def test_package_never_imports_serve(package):
    files = sorted((PACKAGE_ROOT / package).rglob("*.py"))
    assert files
    assert [(path.name, hit) for path in files
            for hit in serve_imports(path.read_text(encoding="utf-8"))] == []


def test_every_import_form_is_seen():
    source = ("import repro.serve.clock\nfrom repro import serve\n"
              "def f():\n    from repro.serve.clock import WallClock\n")
    assert len(serve_imports(source)) == 3
