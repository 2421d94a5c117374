"""Every name a package module imports is used in that module, every
module-level private function is read somewhere in the package, every
error type is raised by some package module, every defaulted parameter of
a package function is set by some call, every name in the package's
__all__ and every `module.name` the README cites resolves, no decision
path uses floating point, dynamics, bounds and scan read whole-field
tables instead of calling Poly.eval_i or FieldSpec.chi_i per point, and
only fpoly's product, long division and value table branch on the field
kind.

The package's __init__ is left out of the import check: it imports names to
re-export them."""

import ast
import importlib
import re
import types
from collections import Counter, defaultdict
from pathlib import Path

import pytest

import orbitsquares

PACKAGE = sorted(Path(orbitsquares.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]
ROOT = Path(orbitsquares.__file__).parents[2]
CALLERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


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


# math's integer functions; any other math import brings floating point
INTEGER_MATH = frozenset({"prod", "gcd", "isqrt", "comb"})
# observational functions, by module, whose floats decide nothing
FLOAT_EXEMPT = {"scan.py": frozenset({"_ratio_rows"})}


def _int_literal(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def float_uses(source: str, exempt: frozenset) -> list[str]:
    """Float literals, float(...) calls, true divisions of two int literals and
    math imports other than INTEGER_MATH in source, as "line: what" in source
    order, outside the bodies of the functions named in exempt."""
    found, stack = [], [ast.parse(source)]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.FunctionDef) and node.name in exempt:
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append((node, "float() call"))
        elif (
            isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
            and _int_literal(node.left) and _int_literal(node.right)
        ):
            found.append((node, "true division of int literals"))
        elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
            found.append((node, "import math"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                (node, f"from math import {a.name}")
                for a in node.names if a.name not in INTEGER_MATH
            ]
    found.sort(key=lambda hit: (hit[0].lineno, hit[0].col_offset))
    return [f"{node.lineno}: {what}" for node, what in found]


def test_detects_floating_point():
    src = (
        "import math\nfrom math import gcd, sqrt\n"
        "x = 0.5 + float(3) + 1 / -2 + 3 // 2 + 2e3 + 1j\n"
        "y = x / 2\n"
        "def observed():\n    return 5 / 6 + float(x)\n"
    )
    assert float_uses(src, frozenset({"observed"})) == [
        "1: import math",
        "2: from math import sqrt",
        "3: float literal 0.5",
        "3: float() call",
        "3: true division of int literals",
        "3: float literal 2000.0",
        "3: float literal 1j",
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_floating_point(path):
    assert float_uses(path.read_text(), FLOAT_EXEMPT.get(path.name, frozenset())) == []


# modules whose per-point work reads f's value table and the field's sign list
TABLE_READERS = ("dynamics.py", "bounds.py", "scan.py")
POINT_KERNELS = frozenset({"eval_i", "chi_i"})


def point_kernel_uses(source: str) -> list[str]:
    """Every .eval_i or .chi_i in source, called or passed on (as to map), as
    "line: name" in source order."""
    hits = sorted(
        (n.lineno, n.col_offset, n.attr) for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and n.attr in POINT_KERNELS
    )
    return [f"{line}: {name}" for line, _, name in hits]


def test_detects_a_point_kernel_call():
    src = (
        "def g(f, F, xs):\n"
        "    ys = [f.eval_i(x) for x in xs]\n"
        "    return sum(map(F.chi_i, ys)) + F.add_i(1, 2) + F._chi[0]\n"
    )
    assert point_kernel_uses(src) == ["2: eval_i", "3: chi_i"]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name in TABLE_READERS],
                         ids=lambda p: p.name)
def test_table_readers_call_no_point_kernel(path):
    assert point_kernel_uses(path.read_text()) == []


# the fpoly functions that may branch on the field kind (F.k): the product,
# long division and the whole-field value table; the rest are written once
FIELD_KIND_KERNELS = frozenset({"_mul", "_divmod", "Poly.value_table"})


def field_kind_branches(source: str, kernels: frozenset) -> list[str]:
    """Every comparison that reads a .k attribute, outside the functions
    named in kernels (methods as Class.method), as "line: function"."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Compare) and scope not in kernels and any(
                isinstance(n, ast.Attribute) and n.attr == "k" for n in ast.walk(child)
            ):
                found.append((child.lineno, scope))
            visit(child, scope)

    visit(ast.parse(source), "")
    return [f"{line}: {scope}" for line, scope in sorted(found)]


def test_detects_a_field_kind_branch():
    src = (
        "def pow_mod(F):\n    return F.k == 1\n\n"
        "class Poly:\n"
        "    def eval_i(self):\n        if 1 < self.field.k:\n            return self.k\n"
        "    def __mul__(self):\n        return self.field.k == 1\n"
    )
    assert field_kind_branches(src, frozenset({"Poly.__mul__"})) == [
        "2: pow_mod", "6: Poly.eval_i",
    ]


def test_only_the_kernels_branch_on_the_field_kind():
    source = next(p for p in MODULES if p.name == "fpoly.py").read_text()
    assert field_kind_branches(source, FIELD_KIND_KERNELS) == []


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


def _raised(tree) -> set[str]:
    """The bare or attribute names that raise statements under tree raise."""
    names = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Raise) and n.exc is not None:
            exc = n.exc.func if isinstance(n.exc, ast.Call) else n.exc
            names.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    return names


def orphaned_errors(errors: str, sources: list[str]) -> list[str]:
    """Classes in errors that no raise statement in sources names, leaving out
    the bases that other classes in errors derive from."""
    classes = [n for n in ast.parse(errors).body if isinstance(n, ast.ClassDef)]
    bases = {b.id for c in classes for b in c.bases if isinstance(b, ast.Name)}
    raised = set().union(*(_raised(ast.parse(src)) for src in sources))
    return sorted(c.name for c in classes if c.name not in bases | raised)


def test_detects_an_orphaned_error():
    errors = "".join(
        f"class {name}({base}):\n    pass\n\n"
        for name, base in [("Base", "Exception"), ("Called", "Base"), ("Bare", "Base"),
                           ("Dotted", "Base"), ("Caught", "Base")]
    )
    sources = [
        "raise Called('x')\n",
        "def f():\n    raise Bare\n",
        "from . import errors\ntry:\n    raise errors.Dotted()\nexcept Caught:\n    raise\n",
    ]
    assert orphaned_errors(errors, sources) == ["Caught"]


def test_every_error_is_raised():
    errors = next(p for p in PACKAGE if p.name == "errors.py").read_text()
    assert orphaned_errors(errors, [p.read_text() for p in PACKAGE]) == []


def _calls_by_name(trees) -> dict[str, list[ast.Call]]:
    """Every call under trees, by the bare or attribute name it calls."""
    calls = defaultdict(list)
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
                calls[n.func.id if isinstance(n.func, ast.Name) else n.func.attr].append(n)
    return calls


def _sets(call: ast.Call, position: int | None, arg: str) -> bool:
    """Whether call sets arg: by keyword, by position, or by * or ** unpacking."""
    return (
        any(k.arg in (arg, None) for k in call.keywords)
        or any(isinstance(a, ast.Starred) for a in call.args)
        or position is not None and len(call.args) > position
    )


def unset_options(package: dict[str, str], callers: list[str]) -> list[str]:
    """Defaulted parameters of package functions that no call in callers sets.
    Calls are matched by name; a method's first parameter is its receiver,
    and a class's __init__ is called by the class name."""
    calls = _calls_by_name(map(ast.parse, callers))
    unset = []
    for name, src in package.items():
        tree = ast.parse(src)
        classes = [c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)]
        owner = {id(fn): cls for cls in classes for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            cls = owner.get(id(fn))
            called = cls.name if cls and fn.name == "__init__" else fn.name
            positional = fn.args.posonlyargs + fn.args.args
            static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
            if cls and not static:
                positional = positional[1:]
            first = len(positional) - len(fn.args.defaults)
            options = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            options += [
                (None, a.arg) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d
            ]
            unset += [
                f"{name}:{called}({arg})"
                for i, arg in options
                if not any(_sets(c, i, arg) for c in calls[called])
            ]
    return sorted(unset)


def test_detects_an_unset_option():
    package = {
        "a": "def f(x, y=1, *, z=2):\n    pass\n\ndef g(x, y=1):\n    pass\n\n"
             "class K:\n    def __init__(self, w=0):\n        pass\n\n"
             "    def m(self, v=0):\n        pass\n\n"
             "    @staticmethod\n    def s(u=0):\n        pass\n",
    }
    callers = ["f(0, 1)\nf(0, z=3)\ng(0)\nK(5).m()\nK.s(1)\n"]
    assert unset_options(package, callers) == ["a:g(y)", "a:m(v)"]


def test_every_option_is_set_by_some_call():
    package = {p.name: p.read_text() for p in PACKAGE}
    assert unset_options(package, [p.read_text() for p in CALLERS]) == []


def test_all_names_resolve_once():
    # a name left in __all__ after its deletion breaks `from orbitsquares import *`
    names = orbitsquares.__all__
    assert [n for n, k in Counter(names).items() if k > 1] == []
    assert [n for n in names if not hasattr(orbitsquares, n)] == []


def stale_cited_names(text: str, modules: dict[str, types.ModuleType]) -> list[str]:
    """Backticked `module.name` in text, for a module in modules, whose name is
    neither an attribute of that module nor of a class defined in it."""
    stale = set()
    for module_name, name in re.findall(r"`(\w+)\.(\w+)", text):
        module = modules.get(module_name)
        if module is None:
            continue
        owners = [module] + [
            v for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == module.__name__
        ]
        if not any(hasattr(o, name) for o in owners):
            stale.add(f"{module_name}.{name}")
    return sorted(stale)


def test_detects_a_stale_cited_name():
    module = types.ModuleType("m")
    exec("def kept():\n    pass\n\nclass K:\n    def _method(self):\n        pass\n",
         module.__dict__)
    module.K.__module__ = "m"
    text = "`m.kept` and `m._method(x)`, `m.gone`, `other.name`, `m.K`, `m.gone` again"
    assert stale_cited_names(text, {"m": module}) == ["m.gone"]


def test_readme_names_resolve():
    # a name the README still cites after its deletion misleads every reader
    modules = {p.stem: importlib.import_module(f"orbitsquares.{p.stem}") for p in MODULES}
    assert stale_cited_names((ROOT / "README.md").read_text(), modules) == []
