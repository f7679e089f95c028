"""No module of the package, the tests, the scripts or the root conftest imports
a name it never uses, and no private module-level name of the package goes
unused: a stand-in for the unused-import and dead-code lints, which this project
does not depend on.  perfbench/, the benchmark's own directory, is not checked."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
PACKAGE = sorted((ROOT / "src" / "homology_lab").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]
OTHERS = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("scripts/*.py"), ROOT / "conftest.py"])


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


@pytest.mark.parametrize("path", SOURCES + OTHERS,
                         ids=lambda p: p.name if p in SOURCES else str(p.relative_to(ROOT)))
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport os\nimport numpy as np\n"
              "from math import gcd, lcm  # noqa: F401\nfrom typing import (\n    Any,\n"
              "    Mapping,\n)\nx: Mapping = np.zeros(1)\n")
    assert unused_imports(source) == ["line 2: os", "line 6: Any"]


def orphaned_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level functions, classes and assigned names of ``sources`` (file name ->
    text) that start with one underscore and that no source mentions as a word
    outside their own definition."""
    found = []
    for file, source in sources.items():
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            rest = [text for other, text in sources.items() if other != file]
            rest += lines[:node.lineno - 1] + lines[node.end_lineno:]
            for name in names:
                word = re.compile(rf"\b{re.escape(name)}\b")
                if re.fullmatch(r"_[^_]\w*", name) and not any(map(word.search, rest)):
                    found.append(f"{file}: {name}")
    return found


def test_private_names_are_used():
    assert orphaned_private_names({p.name: p.read_text() for p in PACKAGE}) == []


def test_orphaned_private_names_are_found():
    a = ("_LIMIT = 3\n_used: int = 1\n\n\ndef _helper():\n    return _helper()\n\n\n"
         "class _Thing:\n    pass\n\n\ndef __getattr__(name):\n    return _used\n")
    b = "from .a import _Thing\n"
    assert orphaned_private_names({"a.py": a, "b.py": b}) == ["a.py: _LIMIT", "a.py: _helper"]


def unraised_errors(errors: str, sources: dict[str, str]) -> list[str]:
    """Classes of the module text ``errors`` that no module of ``sources`` (file
    name -> text) raises by name, directly or through a subclass."""
    bases = {node.name: [b.id for b in node.bases if isinstance(b, ast.Name)]
             for node in ast.parse(errors).body if isinstance(node, ast.ClassDef)}
    live = []
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                live.append(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    raised = set()
    while live:
        name = live.pop()
        if name in bases and name not in raised:
            raised.add(name)
            live += bases[name]
    return sorted(set(bases) - raised)


def test_every_error_class_is_raised():
    errors = ROOT / "src" / "homology_lab" / "errors.py"
    assert unraised_errors(errors.read_text(), {p.name: p.read_text() for p in PACKAGE}) == []


def test_unraised_errors_are_found():
    errors = ("class Base(Exception):\n    pass\n\n\nclass Raised(Base):\n    pass\n\n\n"
              "class ByModule(Base):\n    pass\n\n\nclass Caught(Exception):\n    pass\n\n\n"
              "class Orphan(Base):\n    pass\n")
    a = "def f():\n    try:\n        raise Raised('x')\n    except Caught:\n        raise\n"
    b = "raise errors.ByModule from None\n"
    assert unraised_errors(errors, {"a.py": a, "b.py": b}) == ["Caught", "Orphan"]
