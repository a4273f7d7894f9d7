"""Campaign points are decoded in one place.

:func:`qpslab.campaigns.decode_point` turns a payload into the group's
context, its group elements and its salted stream, and every suite's check
takes those as ``(cfg, ctx, pt, rng)``.  This test reads ``campaigns.py``
with :mod:`ast` and fails on a ``_check_*`` function that decodes a point
for itself.
"""

import ast
from pathlib import Path

from qpslab import campaigns

DECODERS = {"context", "read_element", "SplitMix64", "mat_from_json"}


def called_names(fn: ast.FunctionDef) -> set[str]:
    """The names of the functions called in ``fn``, bare or as attributes."""
    out = set()
    for n in ast.walk(fn):
        if isinstance(n, ast.Call):
            f = n.func
            out.add(f.id if isinstance(f, ast.Name) else getattr(f, "attr", ""))
    return out


def test_no_check_decodes_its_own_point():
    tree = ast.parse(Path(campaigns.__file__).read_text())
    checks = {n.name: n for n in tree.body
              if isinstance(n, ast.FunctionDef) and n.name.startswith("_check_")}
    for name, fn in checks.items():
        assert not called_names(fn) & DECODERS, name
    suite_checks = [check.__name__ for _, check in campaigns.SUITES.values()]
    assert set(suite_checks) <= set(checks)
    for name in suite_checks:
        assert [a.arg for a in checks[name].args.args] == ["cfg", "ctx", "pt", "rng"]


def test_suite_names_are_the_registry_in_order():
    # the CLI's choices and the benchmark's campaign list read this order
    assert campaigns.SUITE_NAMES == tuple(campaigns.SUITES) == (
        "pairing", "cartan-dirac", "dorfman-closure", "double", "lemma-kernel",
        "regact", "gs-theorem1", "gs-theorem2", "bivector", "diagram-gs")

