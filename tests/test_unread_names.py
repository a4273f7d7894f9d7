"""Every top-level name the package defines is read somewhere else.

A helper whose last caller went stays behind unnoticed; no linter runs on
this repository, so this test reads the sources with :mod:`ast`.  A
top-level function, class or assigned name of ``src/qpslab/*.py``, or of the
QQi and Borel-chart oracles of the tests (``tests/qqi_oracle.py``,
``tests/borel_oracle.py``), counts as read when it appears as a loaded
name, as an attribute or in an import anywhere in ``src``, ``scripts``,
``tests`` or ``bench``, outside its own definition.  Docstring and string
mentions do not count.  ``__version__`` is exempt: it is read by packaging,
not by code.

The same holds one level down: a method or property of a top-level class
counts as read when its name is read anywhere outside its own definition.
Dunder methods are exempt: the language calls them, not code by name.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "qpslab").glob("*.py"))
# the package, and the oracles the differential tests keep beside it
DEFINING = [*PACKAGE, ROOT / "tests" / "qqi_oracle.py",
            ROOT / "tests" / "borel_oracle.py"]
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def members(node: ast.stmt) -> list[str]:
    """The methods and properties a top-level class defines, dunders aside."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [n.name for n in node.body if isinstance(n, FUNCTIONS)
            and not (n.name.startswith("__") and n.name.endswith("__"))]


def member_reads(tree: ast.Module) -> set[str]:
    """Every name read in ``tree``, a method's reads of its own name aside."""
    out = set()
    for node in tree.body:
        parts = ([*node.bases, *node.decorator_list, *node.body]
                 if isinstance(node, ast.ClassDef) else [node])
        for part in parts:
            out |= reads(part) - ({part.name} if isinstance(part, FUNCTIONS) else set())
    return out


def unread_members(defining: dict[str, ast.Module],
                   readers: dict[str, ast.Module]) -> list[str]:
    """``module.Class.name`` for each method or property of a class in
    ``defining`` whose name no module in ``readers`` reads outside it."""
    seen = set().union(*(member_reads(tree) for tree in readers.values()))
    return sorted(f"{mod}.{node.name}.{name}" for mod, tree in defining.items()
                  for node in tree.body for name in members(node)
                  if name not in seen)


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_the_scan_sees_the_package_and_its_readers():
    assert {"gspringer.py", "scalars.py", "__init__.py"} <= {p.name for p in PACKAGE}
    assert {"gspringer.py", "qqi_oracle.py",
            "borel_oracle.py"} <= {p.name for p in DEFINING}
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
    defining = {p.stem: readers[str(p.relative_to(ROOT))] for p in DEFINING}
    assert unread_names(defining, readers) == []


def test_the_scan_flags_an_unread_method_and_not_a_read_one():
    lib = ast.parse("class C:\n"
                    "    def __init__(self):\n        self.b()\n\n"
                    "    def a(self):\n        return self.a()\n\n"
                    "    def b(self):\n        pass\n\n"
                    "    @property\n    def p(self):\n        return 1\n")
    user = ast.parse("from lib import C\nC().p\n")
    # a reads only itself; b is read in __init__, p by the user
    assert unread_members({"lib": lib}, {"lib": lib, "user": user}) == ["lib.C.a"]


def test_every_package_method_is_read():
    readers = {str(p.relative_to(ROOT)): parse(p) for p in READERS}
    defining = {p.stem: readers[str(p.relative_to(ROOT))] for p in DEFINING}
    assert unread_members(defining, readers) == []
