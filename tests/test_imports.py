"""Every import in the package and the test suite is used.

A stdlib stand-in for a linter's unused-import rule. Package __init__
modules are skipped, since their imports are the public re-exports, and
so are __future__ imports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for p in [*(ROOT / "src" / "letterseal").rglob("*.py"),
                *(ROOT / "tests").rglob("*.py")]
    if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{line}: {name}" for name, line
            in sorted(imported.items(), key=lambda item: (item[1], item[0]))
            if name not in used]


def test_detector_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, os.path as osp\n"
              "from a.b import c, d as e\n"
              "print(os, e)\n")
    assert unused_imports(source) == ["2: osp", "3: c"]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
