"""The Borel layout is stated once in the quotient code.

Which coordinates make up P is P's data, and a
:class:`~qpslab.gspringer.Reduction` carries it as index lists.  So in
``gspringer.py`` only :func:`~qpslab.gspringer.borel_reduction` reads where
B's and U's coordinates sit in the algebra basis: the context's ``dim_b``
and ``dim_u``.  Any other reader of those, or of the context's other
subalgebra layout (``dim_t``, ``sub_indices``, ``part_dim``,
``part_coords``, ``embed_part_coords``), would do Borel-prefix arithmetic of
its own beside the reduction.  No linter runs on this repository, so this
test reads the module with :mod:`ast`; docstring and comment mentions do
not count.
"""

import ast
from pathlib import Path

GSPRINGER = Path(__file__).resolve().parents[1] / "src" / "qpslab" / "gspringer.py"
LAYOUT = {"dim_b", "dim_u", "dim_t", "sub_indices", "part_dim", "part_coords",
          "embed_part_coords"}
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


def layout_readers(tree: ast.Module) -> dict[str, set[str]]:
    """For each name of :data:`LAYOUT` read as an attribute in ``tree``, the
    scopes that read it."""
    out: dict[str, set[str]] = {}
    for scope, node in scopes(tree):
        for n in ast.walk(node):
            if isinstance(n, ast.Attribute) and n.attr in LAYOUT:
                out.setdefault(n.attr, set()).add(scope)
    return out


def test_the_scan_names_each_reader():
    lib = ast.parse("X = ctx.dim_b\n\n"
                    "def f(ctx):\n    '''reads ctx.dim_u'''\n    return ctx.dim_b\n\n"
                    "class C:\n    def m(self, ctx):\n"
                    "        return ctx.sub_indices('u'), ctx.dim_g\n")
    # the docstring mention is no read, and dim_g is no layout
    assert layout_readers(lib) == {"dim_b": {"<module>", "f"},
                                   "sub_indices": {"C.m"}}


def test_only_borel_reduction_reads_the_borel_layout():
    tree = ast.parse(GSPRINGER.read_text(), filename=str(GSPRINGER))
    assert layout_readers(tree) == {"dim_b": {"borel_reduction"},
                                    "dim_u": {"borel_reduction"}}
