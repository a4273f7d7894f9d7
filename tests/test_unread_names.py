"""Every top-level name the package defines is read somewhere else.

A helper whose last caller went stays behind unnoticed; no linter runs on
this repository, so this test reads the sources with :mod:`ast`.  A
top-level function, class or assigned name of ``src/qpslab/*.py``, or of the
oracles of the tests (``tests/oracles.py``, ``tests/qqi_oracle.py``,
``tests/borel_oracle.py``, ``tests/float_fiber_oracle.py``), counts as read
when a read resolves to it, its module and its name, anywhere in ``src``,
``scripts``, ``tests`` or ``bench``: a bare load in its own module outside its own definition, an
import of it from its module, or ``module.name`` through an imported
module.  So a method or an attribute of the same name does not count: a
dead top-level function cannot hide behind a read method.  Docstring and
string mentions do not count.  ``__version__`` is exempt: it is read by
packaging, not by code.

The same holds one level down: a method or property of a top-level class
counts as read when an attribute of its name is read anywhere outside its
own definition.  A bare name does not count, so a method named like a
builtin, such as ``sum``, does not hide behind calls of the builtin.
Dunder methods are exempt: the language calls them, not code by name.

With the readers limited to ``src``, ``scripts`` and ``bench``, the same
scans list the package names that only the tests read.  A read inside the
body of such a name is a test read too, so the scan is repeated with those
bodies taken out until the list stops growing: a helper that only a
test-only function calls is test-only as well.  Outside
:mod:`qpslab.diffcalc`, the oracle engine of the tests, that list is
pinned: a new test-only helper in a product module fails here, and moving
one to the tests shrinks the list.  The bench reads its layer names as
strings, so a name it traces but nothing calls is on the list.

A knob that only the tests turn is a test-only helper too.  Outside
:mod:`qpslab.diffcalc`, every parameter with a default of a top-level
function or a method of a top-level class of the package must be set by
some call in ``src``, ``scripts`` or ``bench``: passed by keyword, or by
position.  A call resolves by the callee's name, a class's call to its
``__init__``, and a method's positions start after its bound first
argument.  A call that unpacks ``*`` or ``**`` sets every parameter.  The
test seams, parameters only the tests set on purpose, are pinned.
"""

import ast
import copy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "qpslab").glob("*.py"))
# the package, and the oracles the differential tests keep beside it
DEFINING = [*PACKAGE, *(ROOT / "tests" / name for name in (
    "oracles.py", "qqi_oracle.py", "borel_oracle.py", "float_fiber_oracle.py"))]
READERS = sorted(p for d in ("src", "scripts", "tests", "bench")
                 for p in (ROOT / d).rglob("*.py"))
EXEMPT = {"__version__"}
PRODUCT_READERS = ("src", "scripts", "bench")
# the package names outside diffcalc that only the tests read, each kept
# for a reason outside the tests
TEST_ONLY = [
    # the only reader of kernel in dirac, which the bench's wrapper test
    # needs bound there, and an unused import would fail test_unused_imports
    "dirac.pullback_linear",
    # traced by name in bench/layertrace.py
    "liegroup.sigma", "linalg.solve_unique",
]
# the parameters with defaults that only the tests set: the one test seam
TEST_SEAMS = ["cli.main.argv"]


def defined_names(node: ast.stmt) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def module_paths(tree: ast.Module, modules) -> dict[str, str]:
    """The dotted local names under which ``tree`` imports a module of
    ``modules``, each with the module's name."""
    out = {}
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            for a in n.names:
                if a.name.split(".")[-1] in modules:
                    out[a.asname or a.name] = a.name.split(".")[-1]
        elif isinstance(n, ast.ImportFrom):
            out.update((a.asname or a.name, a.name) for a in n.names if a.name in modules)
    return out


def reads(mod: str, tree: ast.Module, modules) -> set[tuple[str, str]]:
    """(module, name) for each read in ``tree``, the module ``mod``, that
    resolves to a top-level name: a bare load, as ``mod``'s own name outside
    the statement that defines it; an imported name, as its source
    module's; and ``module.name`` through a module of ``modules`` that
    ``tree`` imports."""
    paths = module_paths(tree, modules)
    out = set()
    for node in tree.body:
        own = set(defined_names(node))
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id not in own:
                out.add((mod, n.id))
            elif isinstance(n, ast.Attribute) and dotted(n.value) in paths:
                out.add((paths[dotted(n.value)], n.attr))
            elif isinstance(n, ast.ImportFrom) and n.module:
                out.update((n.module.split(".")[-1], a.name) for a in n.names)
    return out


def unread_names(defining: dict[str, ast.Module],
                 readers: dict[str, ast.Module]) -> list[str]:
    """``module.name`` for each top-level definition in ``defining`` that no
    read in ``readers`` resolves to outside the definition itself; a
    reader's module is the stem of its key."""
    seen = set().union(*(reads(Path(key).stem, tree, defining)
                         for key, tree in readers.items()))
    return sorted(f"{mod}.{name}" for mod, tree in defining.items()
                  for node in tree.body for name in defined_names(node)
                  if (mod, name) not in seen and name not in EXEMPT)


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def members(node: ast.stmt) -> list[str]:
    """The methods and properties a top-level class defines, dunders aside."""
    if not isinstance(node, ast.ClassDef):
        return []
    return [n.name for n in node.body if isinstance(n, FUNCTIONS)
            and not (n.name.startswith("__") and n.name.endswith("__"))]


def attributes_read(tree: ast.AST) -> set[str]:
    """Every attribute named in ``tree``."""
    return {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}


def member_reads(tree: ast.Module) -> set[str]:
    """Every attribute read in ``tree``, a method's reads of its own name
    aside.  A bare name is no read of a member: it is a local, a global or a
    builtin, so ``sum(...)`` does not read a method ``sum``."""
    out = set()
    for node in tree.body:
        parts = ([*node.bases, *node.decorator_list, *node.body]
                 if isinstance(node, ast.ClassDef) else [node])
        for part in parts:
            out |= attributes_read(part) - ({part.name} if isinstance(part, FUNCTIONS)
                                            else set())
    return out


def unread_members(defining: dict[str, ast.Module],
                   readers: dict[str, ast.Module]) -> list[str]:
    """``module.Class.name`` for each method or property of a class in
    ``defining`` whose name no module in ``readers`` reads outside it."""
    seen = set().union(*(member_reads(tree) for tree in readers.values()))
    return sorted(f"{mod}.{node.name}.{name}" for mod, tree in defining.items()
                  for node in tree.body for name in members(node)
                  if name not in seen)


def loads(nodes) -> set[str]:
    """Every bare name loaded in ``nodes``."""
    return {n.id for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def without(tree: ast.Module, mod: str, names) -> ast.Module:
    """``tree``, the module ``mod``, without the top-level definitions and
    the class members that ``names`` lists as ``mod.name`` and
    ``mod.Class.name``, and without the imported names that only they
    load."""
    body, gone = [], []
    for node in tree.body:
        if any(f"{mod}.{name}" in names for name in defined_names(node)):
            gone.append(node)
            continue
        if isinstance(node, ast.ClassDef):
            node = copy.copy(node)
            members = node.body
            node.body = [n for n in members if not (
                isinstance(n, FUNCTIONS) and f"{mod}.{node.name}.{n.name}" in names)]
            gone += [n for n in members if n not in node.body]
        body.append(node)
    unused = loads(gone) - loads(body)
    for i, node in enumerate(body):
        if isinstance(node, ast.ImportFrom):
            body[i] = copy.copy(node)
            body[i].names = [a for a in node.names if (a.asname or a.name) not in unused]
    return ast.Module(body=body, type_ignores=[])


def unread_in_product(defining: dict[str, ast.Module],
                      readers: dict[str, ast.Module]) -> list[str]:
    """The names and members of ``defining`` that no read in ``readers``
    reaches, a read inside their own bodies not counting: the scan is
    repeated with the bodies of the names found taken out of the readers of
    ``defining``'s modules, until it finds no more."""
    found = None
    while True:
        pruned = {key: without(tree, Path(key).stem, found or ())
                  if Path(key).stem in defining else tree
                  for key, tree in readers.items()}
        now = unread_names(defining, pruned) + unread_members(defining, pruned)
        if now == found:
            return now
        found = now


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def test_the_scan_sees_the_package_and_its_readers():
    assert {"gspringer.py", "scalars.py", "__init__.py"} <= {p.name for p in PACKAGE}
    assert {"gspringer.py", "oracles.py", "qqi_oracle.py", "borel_oracle.py",
            "float_fiber_oracle.py"} <= {p.name for p in DEFINING}
    dirs = {p.relative_to(ROOT).parts[0] for p in READERS}
    assert dirs == {"src", "scripts", "tests", "bench"}


def test_the_scan_flags_an_unread_name_and_not_a_read_one():
    lib = ast.parse("A = 1\nB = 2\n__version__ = '0'\n\n"
                    "def f(n):\n    return f(n - 1) if n else B\n\n"
                    "def g():\n    pass\n\nclass C:\n    pass\n")
    user = ast.parse("from lib import g\nimport lib\nlib.C()\n")
    # f reads only itself, A nothing; B is read inside f
    assert unread_names({"lib": lib}, {"lib": lib, "user": user}) == ["lib.A", "lib.f"]


def test_the_scan_resolves_each_read_to_its_module():
    lib = ast.parse("def differential():\n    pass\n\n"
                    "def curve():\n    pass\n\n"
                    "def solve():\n    pass\n\n"
                    "class Map:\n    def differential(self):\n        pass\n")
    other = ast.parse("def curve():\n    pass\n\ndef solve():\n    pass\n")
    # the method differential is read, the function of that name is not;
    # the other module's curve and solve are read, lib's only by
    # module.name and by an aliased module
    user = ast.parse("from lib import Map\nfrom other import curve, solve\n"
                     "from pkg import lib as L\nimport lib\n"
                     "Map().differential()\ncurve()\nsolve()\nlib.curve()\nL.solve()\n")
    assert unread_names({"lib": lib, "other": other},
                        {"lib": lib, "other": other, "user": user}) == ["lib.differential"]
    # a bare load in another module is that module's name, not lib's
    user = ast.parse("from lib import Map\ndef curve():\n    pass\n\ncurve()\n")
    assert unread_names({"lib": lib}, {"lib": lib, "user": user}) == [
        "lib.curve", "lib.differential", "lib.solve"]


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
    # a bare name is a builtin or a global, not the method of that name
    lib = ast.parse("class C:\n    def sum(self):\n        pass\n")
    user = ast.parse("from lib import C\nsum([1])\nC()\n")
    assert unread_members({"lib": lib}, {"lib": lib, "user": user}) == ["lib.C.sum"]


def test_every_package_method_is_read():
    readers = {str(p.relative_to(ROOT)): parse(p) for p in READERS}
    defining = {p.stem: readers[str(p.relative_to(ROOT))] for p in DEFINING}
    assert unread_members(defining, readers) == []


def test_the_scan_follows_test_only_functions():
    lib = ast.parse("def f():\n    return g()\n\n"
                    "def g():\n    return h()\n\n"
                    "def h():\n    pass\n\n"
                    "def k():\n    pass\n\n"
                    "def m():\n    pass\n\n"
                    "class C:\n"
                    "    def a(self):\n        return self.b()\n\n"
                    "    def b(self):\n        pass\n")
    other = ast.parse("from lib import m\n\ndef t():\n    return m()\n")
    user = ast.parse("from lib import C, k\nk()\nC()\n")
    defining = {"lib": lib, "other": other}
    readers = {**defining, "user": user}
    # one pass sees only f, t and a unread; g, h, m and b are read by them
    # alone, m through an import that only t loads
    assert unread_names(defining, readers) == ["lib.f", "other.t"]
    assert unread_members(defining, readers) == ["lib.C.a"]
    assert unread_in_product(defining, readers) == [
        "lib.f", "lib.g", "lib.h", "lib.m", "other.t", "lib.C.a", "lib.C.b"]


def test_the_test_only_names_are_pinned():
    readers = {str(p.relative_to(ROOT)): parse(p) for p in READERS
               if p.relative_to(ROOT).parts[0] in PRODUCT_READERS}
    defining = {p.stem: readers[str(p.relative_to(ROOT))] for p in PACKAGE}
    found = unread_in_product(defining, readers)
    assert [n for n in found if not n.startswith("diffcalc.")] == TEST_ONLY


def defaulted_parameters(mod: str, tree: ast.Module) -> list[tuple]:
    """(``module.function.parameter``, callee name, position) for each
    parameter with a default of a top-level function or a method of a
    top-level class in ``tree``, the module ``mod``.  A class's ``__init__``
    is called by the class's name.  The position counts the arguments a
    call passes, so it skips the bound first argument of a method that is
    not static; it is None for a keyword-only parameter."""
    defs = []
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            defs.append((f"{mod}.{node.name}", node.name, node, 0))
        elif isinstance(node, ast.ClassDef):
            defs += [(f"{mod}.{node.name}.{f.name}",
                      node.name if f.name == "__init__" else f.name, f,
                      0 if "staticmethod" in loads(f.decorator_list) else 1)
                     for f in node.body if isinstance(f, FUNCTIONS)]
    out = []
    for qual, callee, f, bound in defs:
        a = f.args
        positional = a.posonlyargs + a.args
        first = len(positional) - len(a.defaults)
        out += [(f"{qual}.{p.arg}", callee, i - bound)
                for i, p in enumerate(positional) if i >= first]
        out += [(f"{qual}.{p.arg}", callee, None)
                for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def calls(tree: ast.AST) -> set[tuple]:
    """(callee name, positional count, keyword names) of each call in
    ``tree`` of a name or an attribute; a call that unpacks ``*`` or ``**``
    counts as passing every position and every keyword, as None."""
    out = set()
    for n in ast.walk(tree):
        if not isinstance(n, ast.Call):
            continue
        name = getattr(n.func, "id", None) or getattr(n.func, "attr", None)
        if any(isinstance(a, ast.Starred) for a in n.args) or any(
                k.arg is None for k in n.keywords):
            out.add((name, None, None))
        else:
            out.add((name, len(n.args), frozenset(k.arg for k in n.keywords)))
    return out


def unset_parameters(defining: dict[str, ast.Module],
                     readers: dict[str, ast.Module]) -> list[str]:
    """The parameters with defaults of ``defining`` that no call in
    ``readers`` sets, by position or by keyword."""
    seen = set().union(*(calls(tree) for tree in readers.values()))
    return sorted(qual for mod, tree in defining.items()
                  for qual, callee, pos in defaulted_parameters(mod, tree)
                  if not any(name == callee and (
                      npos is None or (pos is not None and npos > pos)
                      or qual.rsplit(".", 1)[1] in kws)
                      for name, npos, kws in seen))


def test_the_scan_flags_an_unset_parameter_and_not_a_set_one():
    lib = ast.parse("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n"
                    "def g(x=0):\n    pass\n\n"
                    "class C:\n"
                    "    def __init__(self, p=0, q=0):\n        pass\n\n"
                    "    def m(self, r=0, s=0):\n        pass\n\n"
                    "    @staticmethod\n    def s(t=0, u=0):\n        pass\n")
    # f's b by position and d by keyword; C's p by position through the
    # class; m's r by position after self; s's t by position, with no self;
    # g's x by a call that unpacks
    user = ast.parse("from lib import C, f, g\nf(0, 1, d=2)\nc = C(1)\n"
                     "c.m(1)\nC.s(1)\ng(*[1])\n")
    assert unset_parameters({"lib": lib}, {"lib": lib, "user": user}) == [
        "lib.C.__init__.q", "lib.C.m.s", "lib.C.s.u", "lib.f.c", "lib.f.e"]


def test_every_parameter_default_is_set_by_the_product():
    readers = {str(p.relative_to(ROOT)): parse(p) for p in READERS
               if p.relative_to(ROOT).parts[0] in PRODUCT_READERS}
    defining = {p.stem: readers[str(p.relative_to(ROOT))] for p in PACKAGE
                if p.stem != "diffcalc"}
    assert unset_parameters(defining, readers) == TEST_SEAMS
