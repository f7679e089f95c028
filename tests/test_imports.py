"""No module of the package imports a name it never uses: a stand-in for an
unused-import lint, which this project does not depend on."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parents[1] / "src" / "homology_lab").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import and never referenced, skipping
    ``__future__`` imports and lines marked ``noqa``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used and "noqa" not in lines[alias.lineno - 1]:
                unused.append(f"line {alias.lineno}: {name}")
    return unused


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from math import gcd, lcm  # noqa: F401\nfrom typing import (\n    Any,\n"
              "    Mapping,\n)\nx: Mapping = np.zeros(1)\n")
    assert unused_imports(source) == ["line 2: os", "line 6: Any"]
