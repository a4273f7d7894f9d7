"""The exact Weyl fiber of ``diagram-gs --backend float``.

:func:`~qpslab.gspringer.weyl_fiber` decides the record
``diagram-gs/weyl-fiber``: over a regular semisimple rs = g t g^-1 the
mu-fiber has |W| pairwise-inequivalent points, each mapping to rs exactly.
Three routes hold it:

* the points against the one statement of the Weyl representatives,
  :func:`~qpslab.liegroup.weyl_orders`: each is (h W_w, W_w^-1 t W_w), in
  its order; and against ``conjugate`` and
  :func:`oracles.same_class`, which invert each h afresh;
* mutants of its source, one line each, and a non-regular t in the
  campaign's draws: each makes the record fail with a witness naming the
  condition the mutant breaks, so the record can fail;
* the float enumeration of ``float_fiber_oracle``, an eigendecomposition in
  numpy: the same number of points, and each exact point is the float class
  of exactly one float point.
"""

import inspect
import itertools
import textwrap
from fractions import Fraction

import pytest

from qpslab import campaigns, gspringer
from qpslab.campaigns import CLI_GROUPS, CampaignConfig, run_suite
from qpslab.gspringer import weyl_fiber
from qpslab.liegroup import GROUPS, conjugate, context, random_point, weyl_orders
from qpslab.linalg import Mat
from qpslab.prng import SplitMix64

from float_fiber_oracle import float_array, float_fiber_enum, float_same_class
from oracles import same_class


def regular_semisimple(ctx, rng):
    """(rs, t) drawn as the campaign draws them: t, then g; rs = g t g^-1."""
    t = random_point(ctx, "T-regular", rng)
    g = random_point(ctx, "G", rng)
    return conjugate(g, t), t


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_the_fiber_is_w_inequivalent_points_over_rs(name):
    ctx = context(name)
    rs, t = regular_semisimple(ctx, SplitMix64(33))
    points, witness = weyl_fiber(ctx, rs, t)
    assert witness is None
    assert len(points) == len(weyl_orders(ctx))
    for h, b in points:
        assert conjugate(h, b) == rs
        if ctx.family == "SL":
            assert h.det() == 1
    for p, q in itertools.combinations(points, 2):
        assert not same_class(ctx, p, q)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_the_fiber_points_are_h_times_the_weyl_representatives(name):
    # h is the first point's, the identity ordering's; the point of each
    # signed order w is (h W_w, W_w^-1 t W_w), W_w the columns of [I | -I]
    # in that order
    ctx = context(name)
    n = ctx.n
    rs, t = regular_semisimple(ctx, SplitMix64(35))
    points, witness = weyl_fiber(ctx, rs, t)
    assert witness is None
    h = points[0][0]
    for (hw, bw), order in zip(points, weyl_orders(ctx), strict=True):
        w = Mat.identity(n).hstack(-Mat.identity(n)).select_cols(order)
        assert hw == h @ w
        assert bw == w.inverse() @ t @ w


# one-line mutants of weyl_fiber: (old, new, the condition it must break,
# whether it breaks it at every point).  Dropping the det-1 scaling changes
# nothing at a point whose unscaled h already has det 1, as one of the sl2
# points here does.
SOURCE_MUTANTS = {
    "b-unpermuted": ("bw = t.select_rows(perm).select_cols(perm)", "bw = t",
                     "mu-is-rs", True),
    "ordering-repeated": ("    points = []\n",
                          "    orders[1] = orders[0]\n    points = []\n",
                          "inequivalent", True),
    "no-det-scaling": ("cols[0] = cols[0].scale(1 / reduce(Mat.hstack, cols).det())",
                       "pass", "det-one", False),
}


# read once, as the module is imported: getsource reads the file on disk by
# the line numbers of the imported code, so a later edit of gspringer.py
# would hand it another function's lines
SOURCE = textwrap.dedent(inspect.getsource(gspringer.weyl_fiber))


def mutant(old: str, new: str):
    """weyl_fiber with ``old`` replaced by ``new`` in its source, compiled in
    the namespace of :mod:`qpslab.gspringer`."""
    assert SOURCE.count(old) == 1, old
    namespace = dict(vars(gspringer))
    exec(compile(SOURCE.replace(old, new), gspringer.__file__, "exec"), namespace)
    return namespace["weyl_fiber"]


def weyl_records(group: str) -> list:
    report = run_suite(CampaignConfig(suite="diagram-gs", group=group,
                                      backend="float", samples=4, seed=5))
    return [r for r in report.checks if r["check_id"] == "diagram-gs/weyl-fiber"]


# GL takes no det-1 scaling, so that mutant runs on SL alone
@pytest.mark.parametrize("name, group", [
    (name, group) for name in sorted(SOURCE_MUTANTS) for group in ("sl2", "sl3", "gl3")
    if name != "no-det-scaling" or group.startswith("sl")])
def test_each_source_mutant_fails_the_record(monkeypatch, name, group):
    old, new, condition, everywhere = SOURCE_MUTANTS[name]
    assert all(r["passed"] for r in weyl_records(group))
    monkeypatch.setattr(campaigns, "weyl_fiber", mutant(old, new))
    records = weyl_records(group)
    failed = [r for r in records if not r["passed"]]
    assert failed and (len(failed) == len(records) or not everywhere)
    assert {r["witness"]["condition"] for r in failed} == {condition}


@pytest.mark.parametrize("group", CLI_GROUPS)
def test_a_repeated_entry_of_t_fails_the_precondition(monkeypatch, group):
    # the draw of t takes the non-regular torus of the degenerate stratum,
    # whose first two entries are equal
    real = campaigns.random_point

    def repeated(ctx, kind, rng, *args):
        if kind == "T-regular":
            return gspringer._nonregular_torus(ctx, rng)
        return real(ctx, kind, rng, *args)

    monkeypatch.setattr(campaigns, "random_point", repeated)
    records = weyl_records(group)
    assert records and not any(r["passed"] for r in records)
    for r in records:
        assert r["witness"] == {"condition": "regular", "entry": 0, "nullity": 2}


# The float eigenvectors of these draws are accurate to a few 1e-6: the
# worst matching class reads 2.6e-6 in the relative measure of
# float_same_class, and the nearest other class 9e-4.  1e-4 lies between.
ORACLE_TOL = 1e-4


@pytest.mark.parametrize("group", CLI_GROUPS)
def test_the_exact_fiber_matches_the_float_enumeration(group):
    ctx = context(group)
    rng = SplitMix64(34)
    for _ in range(20):
        rs, t = regular_semisimple(ctx, rng)
        points, witness = weyl_fiber(ctx, rs, t)
        assert witness is None
        floats = float_fiber_enum(ctx, float_array(rs))
        assert len(points) == len(floats)
        for h, b in points:
            image = (float_array(h), float_array(b))
            assert sum(float_same_class(image, f, ORACLE_TOL) for f in floats) == 1


# the witnesses of the conditions after ``regular``, each reached by an input
# or a table of orders that breaks it and no condition before it
@pytest.mark.parametrize("group, ordering", [("sl2", [1, 0]), ("sl3", [0, 2, 1])])
def test_plain_permutations_fail_det_one_at_the_first_odd_order(
        monkeypatch, group, ordering):
    # without the negated column an odd order has det h_w = -1 on SL
    monkeypatch.setattr(gspringer, "weyl_orders", lambda ctx: [
        list(w) for w in itertools.permutations(range(ctx.n))])
    ctx = context(group)
    points, witness = weyl_fiber(ctx, *regular_semisimple(ctx, SplitMix64(36)))
    assert witness == {"condition": "det-one", "ordering": ordering}
    assert len(points) == 1


def test_a_repeated_order_fails_inequivalent(monkeypatch):
    # gl2 takes no det-1 check, and each point maps to rs; the two points of
    # the repeated order are one class
    monkeypatch.setattr(gspringer, "weyl_orders", lambda ctx: [[0, 1], [0, 1]])
    ctx = context("gl2")
    points, witness = weyl_fiber(ctx, *regular_semisimple(ctx, SplitMix64(37)))
    assert witness == {"condition": "inequivalent", "orderings": [[0, 1], [0, 1]]}
    assert len(points) == 2


@pytest.mark.parametrize("group, t", [
    ("gl2", Mat([[1, 1], [0, 2]])),
    ("sl2", Mat([[2, 1], [0, Fraction(1, 2)]])),
])
def test_an_upper_triangular_t_fails_mu_is_rs(group, t):
    # t's diagonal is distinct, so each null space is one line, but b_w
    # keeps t's off-diagonal entry, and h^-1 rs h is diagonal
    ctx = context(group)
    g = random_point(ctx, "G", SplitMix64(38))
    points, witness = weyl_fiber(ctx, conjugate(g, t), t)
    assert witness == {"condition": "mu-is-rs", "ordering": [0, 1]}
    assert points == []
