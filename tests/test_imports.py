"""No stale imports: every name a module imports is used in it or exported.

A small stand-in for pyflakes' unused-import check, over the library and
the tests.  A name counts as used when it appears as a name anywhere in
the module (an attribute access ``a.b`` uses ``a``), or when the module
lists it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))


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
