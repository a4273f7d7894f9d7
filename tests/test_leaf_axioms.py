"""Two consequences of the leaf theorem that no record checks yet, as tests.

* Minimal degeneracy, the third quasi-Hamiltonian axiom (Alekseev, Malkin
  and Meinrenken, *Lie group valued moment maps*, Def. 2.2): the kernel of
  the leaf 2-form is spanned by the induced fields xi_M with
  Ad_mu xi = -xi.  The left side is ``kernel(form)`` from
  :func:`~qpslab.gspringer.leaf_two_form`; the right side the leaf
  coordinates, by one ``solve_columns(leaf.basis, .)``, of the
  :func:`oracles.chart_action_field` of a basis of
  ker(Ad_mu + I).  Both are 0 at the stream points the suites sample.  On
  the minus-one stratum, where mu has eigenvalues r and -r, both have
  dimension 2, and there the mutants that drop the + I or take - I fail,
  so that stratum is what tells the axiom from them.  The check is a rank
  statement and reads no convention.
* The Steinberg link: the leaf lies in the kernel of d(kappa . mu), and
  the kernel exceeds it by the multiplicity defect sum (m_i - 1) of
  lambda.  Along m (I + s X), d tr(m^k) = k tr(m^k X), and the power sums
  p_1 ... p_(n-1) (SL) or p_1 ... p_n (GL) generate the invariants, so the
  rows [k tr(mu^k e_j)]_j, times d(mu), have the kernel of d(kappa . mu).
* One leaf per fiber point: over a regular semisimple rs, the |W| points of
  :func:`~qpslab.gspringer.weyl_fiber_enum` map to rs and d(mu) has full
  rank dim G at each of them, so mu is a local diffeomorphism there
  (étale).  The points are then isolated in mu^-1(rs), and each is a
  component of it on its own.  At the stream's nonregular point d(mu) has
  a kernel, so the rank test can fail.

None is a suite record: a new record moves the benchmark's golden
digests, which only a benchmark change may re-record.
"""

import pytest

from qpslab.campaigns import CLI_GROUPS
from qpslab.gspringer import (FORCED_STRATA, QuotientChart, borel_chart, gspoint_stream,
                              leaf_two_form, weyl_fiber_enum)
from qpslab.liegroup import conjugate, context, random_point, weyl_orders
from qpslab.linalg import Mat, Subspace, kernel, rank, solve_columns
from qpslab.prng import SplitMix64
from qpslab.scalars import QQi

from oracles import chart_action_field

I = QQi(0, 1)
# t with a pair of eigenvalues r, -r; on sl2 that takes t = diag(i, -i)
MINUS_ONE_TORUS = {"sl2": (I, -I), "gl2": (1, -1), "sl3": (1, -1, -1),
                   "gl3": (1, -1, 5)}


def minus_one_chart(group: str) -> QuotientChart:
    """The chart at (g, t u), g and u random, t from ``MINUS_ONE_TORUS``."""
    ctx = context(group)
    rng = SplitMix64(12)
    g, u = random_point(ctx, "G", rng), random_point(ctx, "U", rng)
    diag = MINUS_ONE_TORUS[group]
    t = Mat([[diag[i] if i == j else 0 for j in range(ctx.n)] for i in range(ctx.n)])
    return borel_chart(ctx, g, t @ u)


def degeneracy_sides(chart: QuotientChart, shift: int) -> tuple[Subspace, Subspace]:
    """ker of the leaf form, and the leaf coordinates of the induced fields
    of ker(Ad_mu + shift I); the axiom takes shift = 1."""
    ctx = chart.ctx
    form, leaf, checks = leaf_two_form(chart, SplitMix64(0x1EAF))
    assert checks["passed"]
    ad = ctx.adjoint(chart.mu)
    xis = kernel(ad + Mat.identity(ctx.dim_g).scale(QQi(shift)))
    if not xis.dim:
        return kernel(form), Subspace.zero(leaf.dim)
    fields = Mat.from_columns(
        [chart_action_field(chart, ctx.mat_from_coords(xis.basis.col(j)))
         for j in range(xis.dim)], chart.hdim)
    coords, _, consistent = solve_columns(leaf.basis, fields)
    assert consistent  # the induced fields are tangent to the leaf
    return kernel(form), Subspace(coords)


def same(a: Subspace, b: Subspace) -> bool:
    return a.ambient_dim == b.ambient_dim and a.equals(b)


@pytest.mark.parametrize("group", CLI_GROUPS)
def test_minimal_degeneracy_on_the_minus_one_stratum(group):
    chart = minus_one_chart(group)
    lhs, rhs = degeneracy_sides(chart, 1)
    assert lhs.dim == rhs.dim == 2
    assert same(lhs, rhs)
    # dropping the + I (ker Ad_mu = 0) or taking - I (the centralizer, whose
    # fields vanish at a regular mu) leaves the right side 0
    for shift in (0, -1):
        lhs, rhs = degeneracy_sides(chart, shift)
        assert (lhs.dim, rhs.dim) == (2, 0)
        assert not same(lhs, rhs)


@pytest.mark.parametrize("group", CLI_GROUPS)
def test_minimal_degeneracy_at_the_stream_points(group):
    ctx = context(group)
    for point in gspoint_stream(ctx, SplitMix64(11), 6):
        lhs, rhs = degeneracy_sides(borel_chart(ctx, *point), 1)
        assert lhs.dim == rhs.dim == 0


def power_sum_rows(ctx, m: Mat) -> Mat:
    """Rows [k tr(m^k e_j)]_j for k = 1 ... n - 1 (SL) or n (GL)."""
    top = ctx.n - 1 if ctx.family == "SL" else ctx.n
    rows, mk = [], ctx.identity
    for k in range(1, top + 1):
        mk = mk @ m
        rows.append([QQi(k) * (mk @ e).trace() for e in ctx.basis])
    return Mat(rows)


# dim ker d(kappa . mu) - dim leaf at the stream's springer, nonregular and
# identity-b points, then three random points, by the matrix size n
GAPS = {2: [1, 1, 1, 0, 0, 0], 3: [2, 1, 2, 0, 0, 0]}


@pytest.mark.parametrize("group", CLI_GROUPS)
def test_the_leaf_lies_in_a_steinberg_fiber_with_the_predicted_gap(group):
    ctx = context(group)
    gaps = []
    for g, b in gspoint_stream(ctx, SplitMix64(11), 6):
        chart = borel_chart(ctx, g, b)
        ker = kernel(power_sum_rows(ctx, chart.mu) @ chart.dmu)
        assert ker.contains(chart.leaf)
        lam = [b.entry(i, i) for i in range(ctx.n)]
        # the multiplicity defect sum (m_i - 1) of lambda
        assert ker.dim - chart.leaf.dim == ctx.n - len(set(lam))
        gaps.append(ker.dim - chart.leaf.dim)
    assert gaps == GAPS[ctx.n]


@pytest.mark.parametrize("group", CLI_GROUPS)
def test_each_weyl_fiber_point_is_its_own_leaf(group):
    ctx = context(group)
    rng = SplitMix64(13)
    for _ in range(3):
        t = random_point(ctx, "T-regular", rng)
        rs = conjugate(random_point(ctx, "G", rng), t)
        points = weyl_fiber_enum(ctx, rs)
        assert len(points) == len(weyl_orders(ctx))
        for point in points:
            chart = borel_chart(ctx, *point)
            assert chart.mu == rs
            assert rank(chart.dmu) == ctx.dim_g
    # over a repeated eigenvalue mu is not étale: the rank test can fail
    nonregular = gspoint_stream(ctx, rng, len(FORCED_STRATA))[
        FORCED_STRATA.index("nonregular")]
    assert rank(borel_chart(ctx, *nonregular).dmu) < ctx.dim_g
