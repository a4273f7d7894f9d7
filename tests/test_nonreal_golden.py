"""A golden digest of the checks at fixed non-real points.

Every suite draws real points, so the golden report digests never see a
non-real entry.  Here the quotient, leaf, bivector, regular-action, closure
and Cartan-Dirac checks, the Chevalley invariants and det/inverse run at
fixed points with Gaussian-rational entries on sl2, gl2, sl3 and gl3, and
one SHA-256 of their JSON-serialized results is pinned.  Each group has a
generic point and a point whose torus part has a repeated or opposite pair
of eigenvalues; on sl2 that is the minus-one stratum b = diag(i, -i) u.
"""

import hashlib
import json

from qpslab.dirac import cartan_closure_check, cartan_dirac
from qpslab.gspringer import (borel_chart, leaf_two_form, reconstruct_bivector,
                              regact_check, theorem1_check, theorem2_check)
from qpslab.linalg import Mat, Subspace
from qpslab.liegroup import conjugation_sections, context, invariants
from qpslab.matio import mat_to_json
from qpslab.prng import SplitMix64
from qpslab.scalars import QQi

from oracles import scalar_to_json

I = QQi(0, 1)


def q(re, im=0):
    return QQi(re, im)


def mat(rows) -> Mat:
    return Mat([[x if isinstance(x, QQi) else q(x) for x in r] for r in rows])


def lu(lower, upper) -> list:
    """The entry rows of L U: determinant 1 for unitriangular L and U."""
    return (mat(lower) @ mat(upper)).data


# (group, g, b): b is upper triangular, and on SL both have determinant 1
POINTS = [
    ("sl2", [[1, I], [0, 1]], [[I, 1], [0, -I]]),
    ("sl2", lu([[1, 0], [1 + I, 1]], [[1, 2], [0, 1]]),
     [[q(2, 1), q(3, -2)], [0, q("2/5", "-1/5")]]),
    ("gl2", [[1 + I, 2], [1, 3]], [[I, q("1/2")], [0, I]]),
    ("gl2", [[q(0, "1/3"), 1], [-1, q(2, -1)]], [[q(1, 1), q(0, 2)], [0, 2]]),
    ("sl3", lu([[1, 0, 0], [I, 1, 0], [q("1/2"), 1 - I, 1]],
               [[1, 2, I], [0, 1, 1], [0, 0, 1]]),
     [[I, 1, 0], [0, 2, I], [0, 0, q(0, "-1/2")]]),
    ("sl3", [[1, 0, 0], [q(1, -1), 1, 0], [0, q(0, "2/3"), 1]],
     [[I, 2, 1 + I], [0, I, q("1/3")], [0, 0, -1]]),
    ("gl3", [[1 + I, 2, 0], [1, 3, I], [0, q("1/2"), 1]],
     [[q(1, 1), 1, 0], [0, 2, I], [0, 0, q(0, 3)]]),
    ("gl3", [[I, 0, 1], [0, 1, 0], [1, 0, I]],
     [[q(0, 2), 1, 0], [0, q(0, 2), 1], [0, 0, q(0, 2)]]),
]


def plain(x):
    """``x`` as JSON data: matrices and scalars by the wire format."""
    if isinstance(x, Mat):
        return mat_to_json(x)
    if isinstance(x, Subspace):
        return mat_to_json(x.basis)
    if isinstance(x, QQi):
        return scalar_to_json(x)
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    return x


def results(group, g_rows, b_rows) -> dict:
    ctx = context(group)
    g, b = mat(g_rows), mat(b_rows)
    chart = borel_chart(ctx, g, b)
    return {
        "group": group,
        "theorem1": theorem1_check(chart),
        "theorem2": theorem2_check(chart),
        "leaf_form": leaf_two_form(chart, SplitMix64(5)),
        "bivector": reconstruct_bivector(chart),
        "regact": regact_check(chart),
        "closure": cartan_closure_check(ctx, g),
        "cartan_dirac": cartan_dirac(conjugation_sections(ctx, g)),
        "chevalley": [invariants(ctx, g), invariants(ctx, b)],
        "det": [g.det(), b.det(), chart.proj.col_block(0, ctx.dim_g).det()],
        "inverse": [g.inverse(), b.inverse()],
    }


# recorded at the commit before the Gaussian-integer kernel
DIGEST = "d532c57d134244aa9a99127cea24546846ac0b3cb2e6fda84b19331ff2914f8c"


def test_nonreal_checks_match_the_golden_digest():
    out = [plain(results(*point)) for point in POINTS]
    text = json.dumps(out, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGEST
