"""DESIGN.md §3's module map against the tree it describes.

Each row of the §3 table names one package and, in its Contents column,
every module of that package: a backticked name, optionally followed by
a parenthesised description (which may hold backticks of its own).  A
module added, renamed or deleted without its row changing fails here.
"""

from __future__ import annotations

import re
from pathlib import Path

import repro

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
DESIGN = PACKAGE_ROOT.parents[1] / "DESIGN.md"


def _without_parentheses(text: str) -> str:
    kept, depth = [], 0
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif depth == 0:
            kept.append(char)
    return "".join(kept)


def _module_map() -> dict[str, set[str]]:
    """Package -> modules, as §3's table lists them."""
    text = DESIGN.read_text(encoding="utf-8")
    section = re.search(r"^## 3\. .*?$(.*?)^## 4\. ", text, re.S | re.M)
    assert section is not None, "DESIGN.md has no §3"
    rows: dict[str, set[str]] = {}
    for line in section.group(1).splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[1].startswith("`repro"):
            continue
        package = cells[1].strip("`")
        assert package not in rows, f"{package} has two rows"
        rows[package] = set(
            re.findall(r"`([\w.]+)`", _without_parentheses(cells[2]))
        )
    return rows


def _tree() -> dict[str, set[str]]:
    """Package -> modules, as ``src/repro`` holds them."""
    return {
        ".".join(("repro", *init.parent.relative_to(PACKAGE_ROOT).parts)):
            {path.stem for path in init.parent.glob("*.py")} - {"__init__"}
        for init in PACKAGE_ROOT.rglob("__init__.py")
    }


def test_every_package_has_one_row() -> None:
    assert sorted(_module_map()) == sorted(_tree())


def test_each_row_lists_exactly_its_packages_modules() -> None:
    listed, tree = _module_map(), _tree()
    mismatches = {
        package: {
            "missing": sorted(tree[package] - listed.get(package, set())),
            "absent": sorted(listed.get(package, set()) - tree[package]),
        }
        for package in sorted(tree)
        if listed.get(package, set()) != tree[package]
    }
    assert mismatches == {}
