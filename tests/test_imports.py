"""Every name a package module imports is used in that module, every
module-level private function is read somewhere in the package, and every
name in the package's __all__ resolves.

The package's __init__ is left out of the import check: it imports names to
re-export them."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import orbitsquares

PACKAGE = sorted(Path(orbitsquares.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements in source that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.add(alias.asname or alias.name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_detects_an_unused_import():
    src = "from .a import used, unused\nimport os\nimport x.y as z\nused()\nos.sep\n"
    assert unused_imports(src) == ["unused", "z"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _reads(node) -> Counter:
    """How often each name is read under node: as a bare name, an attribute
    or the name an import takes from another module."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[n.name] += 1
    return names


def orphaned_private_functions(sources: dict[str, str]) -> list[str]:
    """Module-level _name functions that nothing outside their own body reads."""
    trees = {name: ast.parse(src) for name, src in sources.items()}
    reads = sum(map(_reads, trees.values()), Counter())
    return sorted(
        f"{name}:{node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and reads[node.name] == _reads(node)[node.name]
    )


def test_detects_an_orphaned_private_function():
    sources = {
        "a": "def _imported():\n    pass\n\ndef _recursive(n):\n    return _recursive(n - 1)\n",
        "b": "from .a import _imported as i\n\ndef _in_table():\n    pass\n\n"
             "TABLE = {1: _in_table}\n\ndef _orphan():\n    pass\n",
    }
    assert orphaned_private_functions(sources) == ["a:_recursive", "b:_orphan"]


def test_no_orphaned_private_functions():
    sources = {p.name: p.read_text() for p in PACKAGE}
    assert orphaned_private_functions(sources) == []


def test_all_names_resolve_once():
    # a name left in __all__ after its deletion breaks `from orbitsquares import *`
    names = orbitsquares.__all__
    assert [n for n, k in Counter(names).items() if k > 1] == []
    assert [n for n in names if not hasattr(orbitsquares, n)] == []
