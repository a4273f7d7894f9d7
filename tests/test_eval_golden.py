"""Golden digests of the ``eval`` commands: what they print, and their exit codes.

For each eval kind, the command runs through the CLI on fixed inputs: a
point of each CLI group, the non-real sl2 point, and inputs it must refuse
(exit 2).  One SHA-256 per kind covers, in order, every input's exit code,
standard output and standard error.  The inputs are built here from integer
and Gaussian-rational literals with :class:`~qpslab.linalg.Mat` and written
by :func:`~qpslab.matio.mat_to_json`, so they do not depend on the samplers.
A digest change is a behaviour change of ``eval``: argue it in CHANGES.md,
never simply re-record.

Print the digests to re-record (only after such an argument) with::

    PYTHONPATH=src python tests/test_eval_golden.py --record
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest

from qpslab.cli import EVAL_KINDS, main
from qpslab.linalg import Mat
from qpslab.matio import mat_to_json
from qpslab.scalars import QQi

I = QQi(0, 1)


def diag(*xs) -> Mat:
    return Mat([[x if i == j else 0 for j in range(len(xs))] for i, x in enumerate(xs)])


def lu(lower, upper) -> Mat:
    return Mat(lower) @ Mat(upper)


# per CLI group: a group element g, a regular diagonal t with rational
# entries, and an upper-triangular b; on SL each has determinant 1
GROUPS = {
    "sl2": (lu([[1, 0], [F(2, 3), 1]], [[1, -2], [0, 1]]), diag(3, F(1, 3)),
            Mat([[2, 1], [0, F(1, 2)]])),
    "sl3": (lu([[1, 0, 0], [2, 1, 0], [-1, F(1, 2), 1]],
               [[1, 3, -1], [0, 1, 2], [0, 0, 1]]),
            diag(2, -1, F(-1, 2)),
            Mat([[2, 1, -1], [0, -1, F(1, 3)], [0, 0, F(-1, 2)]])),
    "gl2": (Mat([[2, 1], [1, 3]]), diag(2, 5), Mat([[3, -1], [0, 2]])),
    "gl3": (lu([[1, 0, 0], [-1, 1, 0], [F(1, 4), 3, 1]],
               [[2, 1, 0], [0, -1, 1], [0, 0, F(1, 2)]]),
            diag(3, F(1, 2), -2),
            Mat([[1, 2, 3], [0, -2, 1], [0, 0, F(1, 3)]])),
}

# the non-real sl2 point of the leaf form, and a non-real sl2 element
NONREAL_G, NONREAL_B = Mat([[1, 0], [2, 1]]), Mat([[I, F(3, 2)], [0, -I]])
NONREAL = Mat([[1 + I, I], [1, 1]])

ONE2 = Mat([[1, 0], [0, 1]])
UNIPOTENT2 = Mat([[1, 1], [0, 1]])
SINGULAR2 = {"rows": 2, "cols": 2, "entries": [1, 1, 0, 0]}
DET2 = {"rows": 2, "cols": 2, "entries": [2, 0, 0, 1]}
LOWER2 = {"rows": 2, "cols": 2, "entries": [1, 0, 1, 1]}
DIV0 = {"rows": 2, "cols": 2, "entries": [["1/0", "0"], 0, 0, 1]}
FLOATS = {"rows": 2, "cols": 2, "entries": [2.0, 0, 0, 0.5]}


def tagged(m: Mat, group: str) -> dict:
    return dict(mat_to_json(m), group=group)


def conj(g: Mat, x: Mat) -> Mat:
    return g @ x @ g.inverse()


def _inputs() -> dict[str, list]:
    kappa, steinberg, fiber, leaf = [], [], [], []
    for group, (g, t, b) in GROUPS.items():
        rs = conj(g, t)
        kappa += [tagged(g, group), tagged(b, group), tagged(rs, group)]
        steinberg += [
            {"group": group, "g": mat_to_json(rs), "t": mat_to_json(t)},
            {"group": group, "g": mat_to_json(g), "t": mat_to_json(t)},
        ]
        fiber.append(tagged(rs, group))
        leaf += [{"group": group, "g": mat_to_json(g), "b": mat_to_json(b)},
                 {"group": group, "g": mat_to_json(rs), "b": mat_to_json(t)}]
    kappa += [tagged(NONREAL, "sl2"), dict(SINGULAR2, group="sl2"),
              dict(DET2, group="sl2"), dict(DIV0, group="sl2"),
              dict(FLOATS, group="gl2"), tagged(ONE2, "sl3"), dict(DET2)]
    steinberg += [
        {"group": "sl2", "g": mat_to_json(UNIPOTENT2), "t": mat_to_json(ONE2)},
        {"group": "sl2", "g": mat_to_json(NONREAL), "t": mat_to_json(diag(I, -I))},
        {"group": "sl2", "g": mat_to_json(ONE2), "t": mat_to_json(UNIPOTENT2)},
        {"group": "sl2", "g": mat_to_json(ONE2), "t": DET2},
        {"group": "sl2", "g": mat_to_json(ONE2)},
    ]
    fiber += [tagged(diag(I, -I), "sl2"), tagged(NONREAL, "sl2"),
              tagged(UNIPOTENT2, "sl2"), tagged(Mat([[1, 1], [1, 0]]), "gl2"),
              dict(DIV0, group="sl2")]
    leaf += [
        {"group": "sl2", "g": mat_to_json(NONREAL_G), "b": mat_to_json(NONREAL_B)},
        {"group": "sl2", "g": mat_to_json(ONE2), "b": LOWER2},
        {"group": "sl2", "g": mat_to_json(ONE2), "b": SINGULAR2},
        {"group": "sl2", "g": DET2, "b": mat_to_json(ONE2)},
        {"group": "sl2", "g": mat_to_json(ONE2)},
    ]
    return {"kappa": kappa, "steinberg": steinberg, "fiber-enum": fiber,
            "leaf-form": leaf}


INPUTS = _inputs()

DIGESTS = {
    "fiber-enum": "1780b3255c1bfd680367fb9515ff67cdae106a6cda578e479d8b3c06d7ebc26f",
    "kappa": "f0b7b1ee445c1bed11eabc4457342a9dbf42c012801edf0a9fe7886b0d855a98",
    "leaf-form": "5d0e5874640ff86d9e17b0487fb48cd29e373d27f83b76d0a1c36385d62f1254",
    "steinberg": "a04082dc7e513e68e2eef1c86f118a9c656e2cf95f439ab16fe2d6e45038798c",
}


def runs(kind: str):
    """``(exit code, stdout, stderr)`` of ``eval kind`` on each input, in order."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.json"
        for payload in INPUTS[kind]:
            path.write_text(json.dumps(payload))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = main(["eval", kind, str(path)])
            yield code, out.getvalue(), err.getvalue()


def digest(kind: str) -> str:
    h = hashlib.sha256()
    for code, out, err in runs(kind):
        h.update(f"{code}\n{out}\0{err}\0".encode())
    return h.hexdigest()


def test_every_kind_is_pinned():
    assert sorted(INPUTS) == sorted(DIGESTS) == sorted(EVAL_KINDS)


@pytest.mark.parametrize("kind", sorted(EVAL_KINDS))
def test_eval_output_unchanged(kind):
    assert digest(kind) == DIGESTS[kind]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_eval_golden.py --record")
    for kind in sorted(EVAL_KINDS):
        print(f'    "{kind}": "{digest(kind)}",')
