"""The exact kernel runs one elimination over one scalar kind.

* No module of the package but :mod:`qpslab.diffcalc` imports that module
  or names a dual number: ``Dual``, ``DualMat`` and ``dot_part`` live
  there, with the oracles of the tests built on them, so the product,
  :mod:`qpslab.scalars`, :mod:`qpslab.linalg` and :mod:`qpslab.liegroup`
  included, computes without them.
* :mod:`qpslab.linalg` has one elimination, ``_rref_int``: no other function
  takes an elimination step, and :func:`~qpslab.linalg.rank`,
  :meth:`~qpslab.linalg.Mat.det`, :func:`~qpslab.linalg.rref` and
  :meth:`~qpslab.linalg.Mat.inverse` call it.  An elimination step is a
  fraction-free row update, an exact division ``//`` of a product or of a
  difference of products, or a division ``/`` of the entries.

No linter runs on this repository, so this test reads the modules with
:mod:`ast`; docstring and comment mentions do not count.
"""

import ast
from pathlib import Path

from test_borel_layout import scopes

SRC = Path(__file__).resolve().parents[1] / "src" / "qpslab"
PRODUCT = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "diffcalc")
# the dual numbers, and the module that defines them
DUAL_NAMES = {"Dual", "DualMat", "dot_part", "diffcalc"}


def parse(module: str) -> ast.Module:
    path = SRC / f"{module}.py"
    return ast.parse(path.read_text(), filename=str(path))


def names(tree: ast.Module) -> set[str]:
    """Every identifier the module reads, binds, imports or reads as an
    attribute, each part of a dotted module name it imports included."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
            out.update({n.asname} - {None})
        elif isinstance(n, ast.ImportFrom) and n.module:
            out.update(n.module.split("."))
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(n.name)
        elif isinstance(n, ast.arg):
            out.add(n.arg)
    return out


def _products(n: ast.AST) -> bool:
    """Whether ``n`` is a product, or a difference of products."""
    if not isinstance(n, ast.BinOp):
        return False
    if isinstance(n.op, ast.Mult):
        return True
    return isinstance(n.op, ast.Sub) and _products(n.left) and _products(n.right)


def is_step(n: ast.AST) -> bool:
    """Whether ``n`` is an elimination step (see the module docstring)."""
    return isinstance(n, ast.BinOp) and (
        isinstance(n.op, ast.Div)
        or isinstance(n.op, ast.FloorDiv) and _products(n.left))


def eliminations(tree: ast.Module) -> set[str]:
    """The scopes of ``tree`` that take an elimination step."""
    return {scope for scope, node in scopes(tree)
            if any(is_step(n) for n in ast.walk(node))}


def callers(tree: ast.Module, name: str) -> set[str]:
    """The scopes of ``tree`` that call the function ``name``."""
    return {scope for scope, node in scopes(tree)
            if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == name for n in ast.walk(node))}


def test_the_scans_name_each_step_and_each_dual_name():
    lib = ast.parse(
        "from .scalars import Dual as D\n\n"
        "def bareiss(rows, p, f, prev):\n"
        "    '''(p * a - f * b) // prev, a Dual'''\n"
        "    return [(p * a - f * b) // prev for a, b in rows]\n\n"
        "def scale(row, p, prev, den, d):\n"
        "    return [p * a // prev for a in row], [a * (den // d) for a in row]\n\n"
        "def canon(nums, g):\n    return [a // g for a in nums]\n\n"
        "class M:\n    def solve(self, x, y):\n        return run(x / y)\n\n"
        "def run(x):\n    return x.dot_part\n")
    # rescaling by an exact quotient and dividing out a gcd take no step
    assert eliminations(lib) == {"bareiss", "scale", "M.solve"}
    assert callers(lib, "run") == {"M.solve"}
    # the docstring mention is no name
    assert names(lib) & DUAL_NAMES == {"Dual", "dot_part"}
    # an import from the engine names it, whatever it imports
    for line in ("from .diffcalc import Space", "from qpslab.diffcalc import Space",
                 "from . import diffcalc as d", "import qpslab.diffcalc as d"):
        assert names(ast.parse(line)) & DUAL_NAMES == {"diffcalc"}, line


def test_the_kernel_names_no_dual_number():
    assert {"campaigns", "dirac", "gspringer", "liegroup"} <= set(PRODUCT)
    for module in PRODUCT:
        assert not names(parse(module)) & DUAL_NAMES, module


def test_linalg_runs_one_elimination():
    tree = parse("linalg")
    assert eliminations(tree) == {"_rref_int"}
    assert callers(tree, "_rref_int") == {"rank", "rref", "Mat.det", "Mat.inverse"}
