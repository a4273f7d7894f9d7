"""The closed forms the suites use, each against the slower route it replaced.

* :func:`gspringer.d_omega` against :func:`diffcalc.d_two_form` of the
  entrywise omega, on the double and its G x B and G x U slices.
* The slice block of the G x B phi differential against dual numbers.
* The batched solves of ``leaf_two_form``, ``reconstruct_bivector`` and the
  induced-action test of ``theorem1_check`` against per-column references
  written out here.
* Can-fail: with the sign of the derivative of T dropped, the suites that
  take d(omega) from the closed form report failures.
"""

from fractions import Fraction

import pytest

from qpslab import campaigns, gspringer
from qpslab.conventions import CORRUPTIONS, FROZEN, using
from qpslab.diffcalc import PointedMap, Space, d_two_form
from qpslab.gspringer import (FORCED_STRATA, GSPoint, QuotientChart,
                              chart_action_field, d_omega, gram_ad, gspoint_stream,
                              leading, leaf_two_form, mu, omega_fn, omega_matrix,
                              phi_differential, reconstruct_bivector, theorem1_check)
from qpslab.liegroup import (GROUPS, AlgebraElement, Covector, borel_decompose,
                             context, random_point, sigma, sigma_adjoint)
from qpslab.linalg import Mat, dot, mat_vec, solve_unique
from qpslab.prng import SplitMix64
from qpslab.scalars import QQi

STRATA = len(FORCED_STRATA) + 1  # the three forced strata, then a random point


def _spaces(ctx):
    """The three spaces omega lives on, with the subgroup b is drawn from."""
    return ((Space(ctx, ("g", "g")), "G"), (Space(ctx, ("g", "b")), "B"),
            (Space(ctx, ("g", "u")), "B"))


@pytest.mark.parametrize("conv", ["frozen", "omega-sign"])
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_d_omega_matches_the_dual_number_oracle(group, conv):
    ctx = context(group)
    rng = SplitMix64(101)
    with using(FROZEN if conv == "frozen" else CORRUPTIONS[conv]):
        for space, kind in _spaces(ctx):
            a, b = random_point(ctx, "G", rng), random_point(ctx, kind, rng)
            t = gram_ad(ctx, b.m, b.inv)
            w = leading(omega_matrix(ctx, t), space.dim)
            for _ in range(2):
                dirs = [[QQi(rng.rational(3)) for _ in range(space.dim)]
                        for _ in range(3)]
                want = d_two_form(omega_fn(ctx, space), space, (a.m, b.m), *dirs)
                assert d_omega(ctx, t, w, *dirs) == want, space.parts


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_gxu_omega_matrix_is_the_leading_block_of_gxb(group):
    ctx = context(group)
    rng = SplitMix64(102)
    g, b = random_point(ctx, "G", rng), random_point(ctx, "B", rng)
    k = ctx.dim_g + ctx.dim_u
    t = gram_ad(ctx, b.m, b.inv)
    w = omega_matrix(ctx, t)
    gxu = leading(w, k)
    gxb = leading(w, ctx.dim_g + ctx.dim_b)
    assert gxu == gxb.row_block(0, k).col_block(0, k)
    # and the leaf d-identity's block of a chart's w is this G x U matrix
    chart = QuotientChart(GSPoint(g, b))
    assert chart.w == gxb
    assert chart.w.row_block(0, k).col_block(0, k) == gxu


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_slice_block_of_phi_differential_is_d_mu_on_the_slice(group):
    # d(mu) on G x tU, (g, u) -> g t u g^-1, by dual numbers
    ctx = context(group)
    rng = SplitMix64(103)
    g, b = random_point(ctx, "G", rng), random_point(ctx, "B", rng)
    tpart, upart = borel_decompose(b)
    tmat = tpart.m

    def conj_map(q):
        gq, uq = q
        return (gq @ tmat @ uq @ gq.inverse(),)

    slice_space = Space(ctx, ("g", "u"))
    dual = PointedMap("mu-on-slice", slice_space, Space(ctx, ("g",)), conj_map)
    block = leading(phi_differential(g, b), ctx.dim_g + ctx.dim_b).row_block(0, ctx.dim_g)
    assert block.col_block(0, slice_space.dim) == dual.differential_matrix(
        (g.m, upart.m))


# ---------------------------------------------------------------------------
# batched solves against per-column references


def _action_pairs(chart):
    """(q_* rho(e_k), d(mu)^T sigma(mu, e_k)) basis element by basis element."""
    ctx = chart.ctx
    m = mu(chart.point)
    dmut = chart.dmu.transpose()
    for xi in ctx.basis:
        alpha = sigma(m, AlgebraElement(ctx, xi, check=False)).dual_coords()
        yield chart_action_field(chart, xi), mat_vec(dmut, alpha)


def _leaf_reference(chart):
    """The leaf form and moment verdict by one solve and one dot per column."""
    fib = chart.fiber
    leaf = fib.tangent_part()
    h = chart.hdim
    top = fib.basis.row_block(0, h)
    bot = fib.basis.row_block(h, fib.basis.rows)
    alphas = []
    for j in range(leaf.dim):
        sol, _, consistent = solve_unique(top, leaf.basis.col(j))
        assert consistent
        alphas.append(mat_vec(bot, sol))
    form = Mat([[dot(alphas[i], leaf.basis.col(j)) for j in range(leaf.dim)]
                for i in range(leaf.dim)])
    for v, mudual in _action_pairs(chart):
        coeff, _, consistent = solve_unique(leaf.basis, v)
        if not consistent:
            return form, False
        for j in range(leaf.dim):
            if dot(form.col(j), coeff) != dot(mudual, leaf.basis.col(j)):
                return form, False
    return form, True


def _bivector_reference(chart):
    """The sharp map of the quotient bivector, one covector e_i at a time."""
    ctx = chart.ctx
    fib = chart.fiber
    h, d = chart.hdim, ctx.dim_g
    m = mu(chart.point)
    dmu = chart.dmu
    top = fib.basis.row_block(0, h)
    bot = fib.basis.row_block(h, fib.basis.rows)
    rmat = Mat.from_columns([vec for vec, _ in _action_pairs(chart)], h)
    duals = [AlgebraElement(ctx, ctx.mat_from_coords(ctx.gram_inv.col(i)), check=False)
             for i in range(d)]
    sv = [ctx.coords(sigma_adjoint(Covector(m, a)).m) for a in duals]
    rho_adj = Mat.identity(d) - ctx.adjoint(m.m, m.inv)
    cmat = Mat.identity(h) - (rmat @ rho_adj @ dmu).scale(QQi(Fraction(1, 4)))
    rsv = [mat_vec(rmat, sv[k]) for k in range(d)]
    system = bot.vstack(dmu @ top)
    cols = []
    for i in range(h):
        rhs = list(cmat.data[i]) + [-rsv[k][i] for k in range(d)]
        sol, unique, consistent = solve_unique(system, rhs)
        if not consistent or not unique:
            return None
        cols.append(mat_vec(top, sol))
    return Mat.from_columns(cols, h)


@pytest.mark.parametrize("conv", ["frozen", "sigma-half"])
@pytest.mark.parametrize("group", ["sl2", "gl2", "sl3"])
def test_leaf_two_form_matches_the_per_column_reference(group, conv):
    ctx = context(group)
    with using(FROZEN if conv == "frozen" else CORRUPTIONS[conv]):
        verdicts = []
        for pt in gspoint_stream(ctx, SplitMix64(105), STRATA):
            chart = QuotientChart(pt)
            form, _, checks = leaf_two_form(chart, SplitMix64(0x1EAF))
            want_form, want_moment = _leaf_reference(chart)
            assert form == want_form
            assert checks["moment_identity"] == want_moment
            verdicts.append(want_moment)
    # the corruption moves sigma, so the comparison covers failing verdicts too
    assert all(verdicts) == (conv == "frozen")


@pytest.mark.parametrize("conv", ["frozen", "sigma-half"])
@pytest.mark.parametrize("group", ["sl2", "gl2", "sl3"])
def test_reconstruct_bivector_matches_the_per_column_reference(group, conv):
    ctx = context(group)
    with using(FROZEN if conv == "frozen" else CORRUPTIONS[conv]):
        for pt in gspoint_stream(ctx, SplitMix64(106), STRATA):
            chart = QuotientChart(pt)
            pi, checks = reconstruct_bivector(chart)
            want = _bivector_reference(chart)
            # the corruption leaves no point solvable
            assert (want is None) == (conv != "frozen")
            if want is None:
                assert pi is None
                assert checks == {"solvable": False, "unique": False, "passed": False}
            else:
                assert pi == want


@pytest.mark.parametrize("conv", ["frozen", "sigma-half", "sigma-ad-flip"])
def test_theorem1_induced_action_witness_is_the_first_failing_index(conv):
    # one rank test decides the record; the witness is still the first basis
    # index whose pair lies outside the fiber
    with using(FROZEN if conv == "frozen" else CORRUPTIONS[conv]):
        for group in ("sl2", "gl2"):
            for pt in gspoint_stream(context(group), SplitMix64(107), STRATA):
                chart = QuotientChart(pt)
                res = theorem1_check(chart)
                bad = [k for k, (vec, alpha) in enumerate(_action_pairs(chart))
                       if not chart.fiber.contains_vector(vec + alpha)]
                assert res["induced_action"] == (not bad)
                if bad:
                    assert res["witness_action"] == {"basis_index": bad[0]}
                else:
                    assert "witness_action" not in res


# ---------------------------------------------------------------------------
# can-fail: the sign of the derivative of T matters


@pytest.mark.parametrize("group", ["sl2", "sl3"])
def test_dropping_the_sign_of_the_t_derivative_fails_the_d_checks(group, monkeypatch):
    monkeypatch.setattr(gspringer, "_t_derivative", lambda t, r: t @ r)
    for suite, check_id in (("double", "double/A2-exterior-derivative"),
                            ("gs-theorem2", "gs-theorem2/leaf-form-d-identity")):
        rep = campaigns.run_suite(campaigns.CampaignConfig(
            suite=suite, group=group, samples=STRATA, seed=20260809))
        recs = [r for r in rep.checks if r["check_id"] == check_id]
        assert recs and not any(r["passed"] for r in recs), (suite, group)

