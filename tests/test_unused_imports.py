"""Every name a package module imports is read somewhere in that module.

A static check with the standard library's ``ast``: an import whose name is
never loaded is dead surface.  ``__init__`` is left out, since re-exporting
is what it imports for.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "degenpoly"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names ``source`` binds by import and never reads, in order of import."""
    tree = ast.parse(source)
    imported: list[str] = []
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return [name for name in imported if name not in read]


def test_the_check_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom math import gcd, lcm\nlcm(os.sep)\n"
    assert unused_imports(source) == ["gcd"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
