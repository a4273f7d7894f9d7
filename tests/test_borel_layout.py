"""The Borel layout is stated once, and read only where P's data is made.

Where U's, the torus's and B's coordinates sit in the algebra basis is
stated once, as the index tuples ``unipotent``, ``torus`` and ``borel`` of
:class:`~qpslab.liegroup.GroupContext`, built in its ``__init__``.  The
only other readers in ``src/qpslab`` hand those lists on as a subgroup's
data: :func:`~qpslab.gspringer.borel_chart` (P = B and N = U of a
:class:`~qpslab.gspringer.QuotientChart`), the lemma-kernel check (B and its
torus part) and :meth:`~qpslab.diffcalc.Space.indices` (the tags of the
dual-number oracle's model spaces).  Any other reader would do Borel-layout
arithmetic of its own beside them.  No linter runs on this repository, so
this test reads the modules with :mod:`ast`; docstring and comment mentions
do not count.
"""

import ast
from pathlib import Path

import pytest

from qpslab.liegroup import GROUPS, context

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "qpslab").glob("*.py"))
LAYOUT = {"unipotent", "torus", "borel"}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def scopes(tree: ast.Module):
    """(name, node) for each top-level statement, and for each method of a
    top-level class as ``Class.method``; module-level code is ``<module>``."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for part in node.body:
                name = part.name if isinstance(part, FUNCTIONS) else "<class body>"
                yield f"{node.name}.{name}", part
        else:
            yield (node.name if isinstance(node, FUNCTIONS) else "<module>"), node


def layout_readers(tree: ast.Module, module: str = "") -> dict[str, set[str]]:
    """For each name of :data:`LAYOUT` used as an attribute in ``tree``, the
    scopes that use it, each prefixed with ``module.`` when one is given."""
    out: dict[str, set[str]] = {}
    for scope, node in scopes(tree):
        for n in ast.walk(node):
            if isinstance(n, ast.Attribute) and n.attr in LAYOUT:
                out.setdefault(n.attr, set()).add(f"{module}.{scope}" if module else scope)
    return out


def test_the_scan_names_each_reader():
    lib = ast.parse("X = ctx.borel\n\n"
                    "def f(ctx):\n    '''reads ctx.torus'''\n    return ctx.borel\n\n"
                    "class C:\n    def m(self, ctx):\n"
                    "        return ctx.unipotent, ctx.dim_g\n")
    # the docstring mention is no read, and dim_g is no layout
    assert layout_readers(lib) == {"borel": {"<module>", "f"}, "unipotent": {"C.m"}}


def test_only_the_makers_of_subgroup_data_read_the_borel_layout():
    found: dict[str, set[str]] = {}
    for path in SRC:
        tree = ast.parse(path.read_text(), filename=str(path))
        for attr, where in layout_readers(tree, path.stem).items():
            found.setdefault(attr, set()).update(where)
    init, space = "liegroup.GroupContext.__init__", "diffcalc.Space.indices"
    lemma, borel = "campaigns._check_lemma_kernel", "gspringer.borel_chart"
    assert found == {"unipotent": {init, borel, space},
                     "torus": {init, lemma, space},
                     "borel": {init, borel, lemma, space}}


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_the_layout_is_the_upper_entries_then_the_torus(group):
    ctx = context(group)
    n, labels = ctx.n, ctx.basis_labels
    upper = [f"E{i + 1}{j + 1}" for i in range(n) for j in range(i + 1, n)]
    torus = ([f"H{k + 1}" for k in range(n - 1)] if ctx.family == "SL"
             else [f"E{k + 1}{k + 1}" for k in range(n)])
    assert [labels[k] for k in ctx.unipotent] == upper
    assert [labels[k] for k in ctx.torus] == torus
    assert ctx.borel == ctx.unipotent + ctx.torus
    assert len(ctx.torus) == ctx.rank
    # B's basis elements are upper triangular, the rest strictly lower
    for k, e in enumerate(ctx.basis):
        assert ctx.in_borel(e) == (k in ctx.borel), labels[k]
