"""Every top-level name the package defines is read somewhere else.

A helper whose last caller went stays behind unnoticed; no linter runs on
this repository, so this test reads the sources with :mod:`ast`.  A
top-level function, class or assigned name of ``src/qpslab/*.py`` counts as
read when it appears as a loaded name, as an attribute or in an import
anywhere in ``src``, ``scripts``, ``tests`` or ``bench``, outside its own
definition.  Docstring and string mentions do not count.  ``__version__``
is exempt: it is read by packaging, not by code.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "qpslab").glob("*.py"))
READERS = sorted(p for d in ("src", "scripts", "tests", "bench")
                 for p in (ROOT / d).rglob("*.py"))
EXEMPT = {"__version__"}


def defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def reads(tree: ast.AST) -> set[str]:
    """Every name loaded, every attribute and every imported name in ``tree``."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, (ast.Import, ast.ImportFrom)):
            out.update(a.name.split(".")[-1] for a in n.names)
    return out


def unread_names(defining: dict[str, ast.Module],
                 readers: dict[str, ast.Module]) -> list[str]:
    """``module.name`` for each top-level definition in ``defining`` that no
    module in ``readers`` reads outside the definition itself."""
    seen = set()
    for tree in readers.values():
        for node in tree.body:
            seen |= reads(node) - set(defined_names(node))
    return sorted(f"{mod}.{name}" for mod, tree in defining.items()
                  for node in tree.body for name in defined_names(node)
                  if name not in seen and name not in EXEMPT)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_the_scan_sees_the_package_and_its_readers():
    assert {"gspringer.py", "scalars.py", "__init__.py"} <= {p.name for p in PACKAGE}
    dirs = {p.relative_to(ROOT).parts[0] for p in READERS}
    assert dirs == {"src", "scripts", "tests", "bench"}


def test_the_scan_flags_an_unread_name_and_not_a_read_one():
    lib = ast.parse("A = 1\nB = 2\n__version__ = '0'\n\n"
                    "def f(n):\n    return f(n - 1) if n else B\n\n"
                    "def g():\n    pass\n\nclass C:\n    pass\n")
    user = ast.parse("from lib import g\nimport lib\nlib.C()\n")
    # f reads only itself, A nothing; B is read inside f
    assert unread_names({"lib": lib}, {"lib": lib, "user": user}) == ["lib.A", "lib.f"]


def test_every_package_name_is_read():
    readers = {str(p.relative_to(ROOT)): parse(p) for p in READERS}
    defining = {p.stem: readers[str(p.relative_to(ROOT))] for p in PACKAGE}
    assert unread_names(defining, readers) == []
