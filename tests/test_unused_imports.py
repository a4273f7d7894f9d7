"""No module of the package, the scripts or the tests imports a top-level
name it never uses.

A deletion tends to leave its imports behind; no linter runs on this
repository, so this test reads each module with :mod:`ast`.  A name counts as
used when it appears as a name anywhere in the module, annotations included;
docstring mentions do not count.  The tests are scanned too, oracles and
``conftest.py`` included: ``test_unread_names`` counts an import as a read,
so an unused test import could keep a dead package name alive.  The bench
is not scanned here.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "qpslab").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def unused_imports(tree: ast.Module) -> dict[str, int]:
    """Each name a top-level import binds and the module never uses, with its line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return {name: line for name, line in bound.items() if name not in used}


def test_the_scan_sees_every_module():
    names = {p.name for p in MODULES}
    assert {"dirac.py", "gspringer.py", "campaigns.py",
            "calibrate_conventions.py", "qqi_oracle.py", "borel_oracle.py",
            "float_fiber_oracle.py", "conftest.py", "test_cli.py"} <= names
    assert {p.parent.name for p in MODULES} == {"qpslab", "scripts", "tests"}


def test_the_scan_flags_an_unused_import_and_not_a_used_one():
    tree = ast.parse("from typing import Sequence\nimport os.path as p\n"
                     "import json\n\ndef f(x: Sequence) -> None:\n    json.dumps(x)\n")
    assert unused_imports(tree) == {"p": 2}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_top_level_import(path):
    unused = unused_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not unused, f"{path.name}: imported but unused {unused}"
