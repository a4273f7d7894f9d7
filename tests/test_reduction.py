"""The reduction along G x P against its two free oracles.

* P = B: :func:`gspringer.borel_chart` reproduces, entry for entry, the
  chart built from leading blocks of the double's matrices
  (``borel_oracle.prefix_chart``): w, the first dim G rows of dphi, the
  vertical basis, the greedy complement, proj and the fiber basis, on all six
  groups and at a non-real point.  This pins the chart's complement, which
  no report digest sees.
* P = G: G x_G G is G itself, d(mu) is invertible, and the quotient fiber
  pushed forward by it is the Cartan-Dirac structure at g p g^-1; its
  leaves are the conjugacy classes, of dimension dim G - rank at a regular
  point.  Under the convention corruptions that break gs-theorem1's
  forward-Dirac record, this one breaks too.  N = 0 there: the leaf form
  and regact run with an empty nilradical.
* P = B^T, the lower Borel, whose coordinates are no prefix of the algebra
  basis: the leaf form's checks, d-identity included, and regact pass, so
  no check assumes where P's coordinates sit.
"""

import pytest

from qpslab.campaigns import CLI_GROUPS
from qpslab.conventions import CORRUPTIONS, using
from qpslab.dirac import cartan_dirac, is_lagrangian, pushforward_linear
from qpslab.gspringer import (FORCED_STRATA, QuotientChart, borel_chart,
                              gspoint_stream, leaf_two_form, phi, point_from_json,
                              regact_check, theorem1_check, theorem2_check)
from qpslab.liegroup import GROUPS, conjugation_sections, context, random_point
from qpslab.linalg import rank
from qpslab.prng import SplitMix64

from borel_oracle import prefix_chart

# b = [[i, 3/2], [0, -i]] on sl2: the chart runs on Gaussian-integer rows
NONREAL_POINT = {"group": "sl2",
                 "g": {"rows": 2, "cols": 2, "entries": [1, 0, 2, 1]},
                 "b": {"rows": 2, "cols": 2,
                       "entries": [[0, 1], ["3/2", 0], 0, [0, -1]]}}


def assert_borel_chart_is_the_prefix_chart(ctx, g, b):
    d, amb = ctx.dim_g, ctx.dim_g + len(ctx.borel)
    chart = borel_chart(ctx, g, b)
    assert chart.up == list(range(amb))
    assert chart.leaf_slice == list(range(d + len(ctx.unipotent)))
    assert chart.levi == list(range(d + len(ctx.unipotent), amb))
    want = prefix_chart(ctx, g, b)
    assert chart.w == want["w"]
    # the chart keeps only the rows of d(mu . q)
    assert chart.dmu_up == want["dphi"].row_block(0, d)
    assert chart.vertical == want["vertical"]
    assert chart.indices == want["indices"]
    assert chart.proj == want["proj"]
    assert chart.fiber.basis == want["fiber"].basis


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_borel_reduction_reproduces_the_prefix_chart(group):
    # the forced strata of the stream, then a random point, and the
    # chart at a second representative of the last one
    ctx = context(group)
    rng = SplitMix64(401)
    points = gspoint_stream(ctx, rng, len(FORCED_STRATA) + 1)
    for g, b in points:
        assert_borel_chart_is_the_prefix_chart(ctx, g, b)
    (g, b), h = points[-1], random_point(ctx, "B", rng)
    moved = borel_chart(ctx, g, b).translate(h)
    # h.(g, b) = (g h^-1, h b h^-1), written out
    assert moved.g == g @ h.inverse()
    assert moved.p == h @ b @ h.inverse()
    assert_borel_chart_is_the_prefix_chart(ctx, moved.g, moved.p)


def test_borel_reduction_reproduces_the_prefix_chart_at_a_nonreal_point():
    ctx, g, b = point_from_json(NONREAL_POINT)
    assert any(x.im for r in borel_chart(ctx, g, b).w.data for x in r)
    assert_borel_chart_is_the_prefix_chart(ctx, g, b)


def group_charts(ctx, seed: int):
    """Charts of the reduction along all of G x G at three random (g, p):
    P = G, whose nilradical is 0."""
    rng = SplitMix64(seed)
    for _ in range(3):
        g, p = random_point(ctx, "G", rng), random_point(ctx, "G", rng)
        yield QuotientChart(ctx, g, p, range(ctx.dim_g), [])


@pytest.mark.parametrize("group", CLI_GROUPS)
def test_the_group_reduces_to_its_cartan_dirac_structure(group):
    ctx = context(group)
    for chart in group_charts(ctx, 402):
        lagrangian, _ = is_lagrangian(chart.fiber)
        assert lagrangian and chart.fiber.dim == ctx.dim_g
        assert rank(chart.dmu) == ctx.dim_g
        target = chart.g @ chart.p @ chart.g.inverse()
        assert chart.mu == target == phi(chart.g, chart.p)[0]
        assert pushforward_linear(chart.fiber, chart.dmu).equals(
            cartan_dirac(conjugation_sections(ctx, target)))
        assert theorem1_check(chart)["passed"]
        # the leaf through a regular point is its conjugacy class, and it is
        # q_* of G x 0, the leaf slice when N = 0
        res = theorem2_check(chart)
        assert res["leaf_dim"] == res["expected_dim"] == ctx.dim_g - ctx.rank
        assert res["projection_matches"]


@pytest.mark.parametrize("corrupt", sorted(CORRUPTIONS))
@pytest.mark.parametrize("group", CLI_GROUPS)
def test_the_group_reduction_sees_the_corruptions_gs_theorem1_sees(group, corrupt):
    # f-Dirac depends on sigma and on the sign of omega, not on the twist
    ctx = context(group)
    with using(CORRUPTIONS[corrupt]):
        verdicts = [theorem1_check(chart)["f_dirac"]
                    for chart in group_charts(ctx, 402)]
    assert verdicts == [corrupt == "dorfman-eta"] * 3


def leaf_checks(charts, seed: int) -> list[dict]:
    """The checks of :func:`leaf_two_form` at each chart, its d-identity
    drawing from one stream."""
    rng = SplitMix64(seed)
    return [leaf_two_form(chart, rng)[2] for chart in charts]


@pytest.mark.parametrize("group", CLI_GROUPS)
def test_the_group_reduction_has_a_leaf_form_and_no_nilradical(group):
    # N = 0: the leaf slice is G x 0 and regact's expected intersection is 0
    ctx = context(group)
    for chart in group_charts(ctx, 402):
        res = regact_check(chart)
        assert res["passed"] and res["dim"] == res["expected_dim"] == 0
    assert all(c["passed"] for c in leaf_checks(group_charts(ctx, 402), 404))
    # the sign of omega is seen by the moment identity, as in gs-theorem2
    with using(CORRUPTIONS["omega-sign"]):
        checks = leaf_checks(group_charts(ctx, 402), 404)
    assert [c["moment_identity"] for c in checks] == [False] * 3
    assert all(c["graphical"] and c["skew"] for c in checks)


def lower_borel_charts(ctx, seed: int):
    """Charts of the reduction along G x B^T at three random (g, p), p lower
    triangular: P's coordinates are the torus's and the lower triangle's,
    the last dim B of the basis, and N's the lower triangle's, the last
    dim U."""
    rng = SplitMix64(seed)
    lower = range(len(ctx.borel), ctx.dim_g)
    for _ in range(3):
        g, b = random_point(ctx, "G", rng), random_point(ctx, "B", rng)
        yield QuotientChart(ctx, g, b.transpose(), (*ctx.torus, *lower), lower)


@pytest.mark.parametrize("group", CLI_GROUPS)
def test_the_lower_borel_reduction_passes_the_quotient_checks(group):
    ctx = context(group)
    for chart in lower_borel_charts(ctx, 403):
        d = ctx.dim_g
        assert chart.leaf_slice == [*range(d), *range(d + ctx.rank, d + len(ctx.borel))]
        assert theorem1_check(chart)["passed"] and theorem2_check(chart)["passed"]
        res = regact_check(chart)
        assert res["passed"] and res["dim"] == len(ctx.unipotent)
    checks = leaf_checks(lower_borel_charts(ctx, 403), 405)
    assert all(c["passed"] for c in checks)
    # the d-identity sees the sign of omega where it is not 0 = 0: at n = 2
    # both sides vanish on the slice G x N
    with using(CORRUPTIONS["omega-sign"]):
        checks = leaf_checks(lower_borel_charts(ctx, 403), 405)
    assert [c["d_identity"] for c in checks] == [ctx.n == 2] * 3
