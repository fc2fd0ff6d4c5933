"""No stale imports, and no dead private names in the library.

A small stand-in for pyflakes' unused-import check, over the library and
the tests.  A name counts as used when it appears as a name anywhere in
the module (an attribute access ``a.b`` uses ``a``), or when the module
lists it in ``__all__``.

A private name (a leading ``_``, not a dunder) bound at module level or
in a class body in ``src/`` must be read somewhere in ``src/``: as a
name or as an attribute ``x._name``.  Binding it does not count.

The library reaches mpmath only through ``from mpmath.ctx_mp import ...``
and ``from mpmath.libmp import ...``: no ``import mpmath``, no other
mpmath module, and no ``mpmath.mp`` anywhere, so that no code path can
read or change the global ``mpmath.mp`` context.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
SRC = sorted((ROOT / "src").rglob("*.py"))


def _imported(tree):
    """(name, line) of every name bound by an import statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _exported(tree):
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return set()


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= _exported(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys\nfrom a import b, c as d\n__all__ = ['b']\nsys.exit(os.sep)\n"
    assert unused_imports(source) == [("d", 3)]


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == [], path


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    """(name, line) of every private name bound at module level or in a class body."""
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    for node in tree.body + [item for cls in classes for item in cls.body]:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if _private(name):
                yield name, node.lineno


def _read_names(tree):
    """Every name and attribute the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr


def dead_private_names(sources: dict) -> list:
    """(module, name, line) of each private definition that no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = {name for tree in trees.values() for name in _read_names(tree)}
    return [(module, name, line) for module, tree in trees.items()
            for name, line in _private_definitions(tree) if name not in read]


def test_the_check_sees_a_dead_private_name():
    a = ("_X = 1\n_Y: int = 2\ndef _dead():\n    pass\ndef _used():\n    pass\n"
         "class A:\n    def _m(self):\n        return _used()\n"
         "    def _n(self):\n        self._m()\n    def __init__(self):\n        self._z = 0\n"
         "    _k = _used\n")
    b = "from a import _Y\nprint(_Y)\n"
    assert dead_private_names({"a": a, "b": b}) == [
        ("a", "_X", 1), ("a", "_dead", 3), ("a", "_n", 10), ("a", "_k", 14)]


def test_no_dead_private_names():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in SRC}
    assert dead_private_names(sources) == []


_MPMATH_MODULES = ("mpmath.ctx_mp", "mpmath.libmp")


def mpmath_violations(source: str) -> list:
    """(line, what) of each way *source* reaches mpmath other than the two from-imports."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {alias.name}") for alias in node.names
                      if alias.name.split(".")[0] == "mpmath"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mpmath":
            if node.module not in _MPMATH_MODULES:
                found.append((node.lineno, f"from {node.module} import"))
            found += [(node.lineno, f"import of mp from {node.module}") for alias in node.names
                      if alias.name == "mp"]
        elif (isinstance(node, ast.Attribute) and node.attr == "mp"
              and isinstance(node.value, ast.Name) and node.value.id == "mpmath"):
            found.append((node.lineno, "mpmath.mp"))
    return found


def test_the_check_sees_mpmath_reached_another_way():
    source = ("import mpmath\nimport mpmath.libmp as L\nfrom mpmath import mpf\n"
              "from mpmath.ctx_mp import MPContext, mp\nfrom mpmath.libmp import mpf_add\n"
              "from mpmath.functions import rszeta\nx = mpmath.mp.prec\n"
              "y = MPContext().mp  # an attribute mp of anything but the name mpmath is fine\n")
    assert mpmath_violations(source) == [
        (1, "import mpmath"), (2, "import mpmath.libmp"), (3, "from mpmath import"),
        (4, "import of mp from mpmath.ctx_mp"), (6, "from mpmath.functions import"),
        (7, "mpmath.mp")]


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_library_reaches_mpmath_only_through_ctx_mp_and_libmp(path):
    assert mpmath_violations(path.read_text(encoding="utf-8")) == [], path
