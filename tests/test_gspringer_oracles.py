"""The closed forms the suites use, each against the slower route it replaced.

* :func:`gspringer.d_omega` against :func:`diffcalc.d_two_form` of the
  entrywise omega, on the double and its G x B and G x U slices.
* The slice block of the G x B phi differential against dual numbers.
* The batched solves of ``leaf_two_form``, ``reconstruct_bivector`` and the
  induced-action test of ``theorem1_check`` against per-column references
  written out here.
* :func:`gspringer.sampled_d_identity` against the route it replaced,
  directions drawn as :class:`QQi` lists and pushed one by one, on the
  double and the leaf slice G x U, real and non-real; and the float
  oracle's ``float_array`` against the entries' ``to_complex``.
* Can-fail: with the sign of the derivative of T dropped, the suites that
  take d(omega) from the closed form report failures.
"""

from fractions import Fraction

import numpy as np
import pytest

from qpslab import campaigns, gspringer
from qpslab.conventions import CORRUPTIONS, FROZEN, using
from qpslab.diffcalc import (PointedMap, Space, d_two_form, omega_fn,
                             omega_value)
from qpslab.gspringer import (FORCED_STRATA, borel_chart, d_omega, gspoint_stream,
                              leaf_two_form, omega_matrix, phi_differential,
                              point_from_json, reconstruct_bivector, sample_double,
                              sampled_d_identity, theorem1_check)
from qpslab.liegroup import GROUPS, context, random_point, sigma, torus_part
from qpslab.linalg import Mat, dot, solve_unique
from qpslab.prng import SplitMix64
from qpslab.scalars import QQi

from borel_oracle import leading
from float_fiber_oracle import float_array
from oracles import chart_action_field, mat_vec, rational, sigma_adjoint, to_complex

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
            t = ctx.gram_adjoint(b)
            w = leading(omega_matrix(ctx, t, range(ctx.dim_g)), space.dim)
            for _ in range(2):
                dirs = [[QQi(rational(rng, 3)) for _ in range(space.dim)]
                        for _ in range(3)]
                want = d_two_form(omega_fn(ctx, space), space, (a, b), *dirs)
                v = Mat.from_columns(dirs, space.dim)
                second = space.indices(space.parts[1])
                assert d_omega(ctx, t, w, second, v) == want, space.parts


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_gxu_omega_matrix_is_the_leading_block_of_gxb(group):
    ctx = context(group)
    rng = SplitMix64(102)
    g, b = random_point(ctx, "G", rng), random_point(ctx, "B", rng)
    k = ctx.dim_g + len(ctx.unipotent)
    t = ctx.gram_adjoint(b)
    w = omega_matrix(ctx, t, range(ctx.dim_g))
    gxu = leading(w, k)
    gxb = leading(w, ctx.dim_g + len(ctx.borel))
    # entry by entry, omega at (g, b) on the G x U basis directions
    space = Space(ctx, ("g", "u"))
    mats = [space.matrices(e) for e in space.basis_directions()]
    assert [list(r) for r in gxu.data] == [
        [omega_value(ctx, g, b, u, v) for v in mats] for u in mats]
    # and the leaf d-identity's block of a chart's w is this G x U matrix
    chart = borel_chart(ctx, g, b)
    assert chart.w == gxb
    assert chart.w.select_rows(chart.leaf_slice).select_cols(chart.leaf_slice) == gxu


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_slice_block_of_phi_differential_is_d_mu_on_the_slice(group):
    # d(mu) on G x tU, (g, u) -> g t u g^-1, by dual numbers
    ctx = context(group)
    rng = SplitMix64(103)
    g, b = random_point(ctx, "G", rng), random_point(ctx, "B", rng)
    tmat = torus_part(b)
    upart = tmat.inverse() @ b

    def conj_map(q):
        gq, uq = q
        return (gq @ tmat @ uq @ gq.inverse(),)

    slice_space = Space(ctx, ("g", "u"))
    dual = PointedMap("mu-on-slice", slice_space, Space(ctx, ("g",)), conj_map)
    block = leading(phi_differential(ctx, g, b),
                    ctx.dim_g + len(ctx.borel)).row_block(0, ctx.dim_g)
    assert block.col_block(0, slice_space.dim) == dual.differential_matrix(
        (g, upart))


# ---------------------------------------------------------------------------
# batched solves against per-column references


def _action_pairs(chart):
    """(q_* rho(e_k), d(mu)^T sigma(mu, e_k)) basis element by basis element."""
    ctx = chart.ctx
    m = chart.mu
    dmut = chart.dmu.transpose()
    for xi in ctx.basis:
        alpha = ctx.dual_coords(sigma(m, xi))
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
    m = chart.mu
    dmu = chart.dmu
    top = fib.basis.row_block(0, h)
    bot = fib.basis.row_block(h, fib.basis.rows)
    rmat = Mat.from_columns([vec for vec, _ in _action_pairs(chart)], h)
    duals = [ctx.mat_from_coords(ctx.gram_inv.col(i)) for i in range(d)]
    sv = [ctx.coords(sigma_adjoint(m, a)) for a in duals]
    rho_adj = Mat.identity(d) - ctx.adjoint(m)
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
            chart = borel_chart(ctx, *pt)
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
            chart = borel_chart(ctx, *pt)
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
            ctx = context(group)
            for pt in gspoint_stream(ctx, SplitMix64(107), STRATA):
                chart = borel_chart(ctx, *pt)
                res = theorem1_check(chart)
                bad = [k for k, (vec, alpha) in enumerate(_action_pairs(chart))
                       if not chart.fiber.contains_vector(vec + alpha)]
                assert res["induced_action"] == (not bad)
                if bad:
                    assert res["witness_action"] == {"basis_index": bad[0]}
                else:
                    assert "witness_action" not in res


# ---------------------------------------------------------------------------
# the sampled d-identity and the float conversion against the QQi routes


def qqi_d_identity(ctx, t, w, second, dphi, rng, triples):
    """:func:`sampled_d_identity` as it was: each direction drawn as a list
    of :class:`QQi`, pushed by its own ``mat_vec``, and eta's matrices built
    by ``mat_from_coords``."""
    d = ctx.dim_g
    for _ in range(triples):
        dirs = [[QQi(rational(rng, 3)) for _ in range(w.rows)] for _ in range(3)]
        pushed = [mat_vec(dphi, v) for v in dirs]
        rhs = QQi(0)
        for r in range(0, dphi.rows, d):
            rhs = rhs - ctx.eta(*(ctx.mat_from_coords(p[r:r + d]) for p in pushed))
        if d_omega(ctx, t, w, second, Mat.from_columns(dirs, w.rows)) != rhs:
            return False
    return True


def _d_identity_inputs(ctx, rng):
    """(t, w, second, dphi) of A2 on G x G at two double points, then of
    the leaf d-identity on G x U at two quotient points."""
    for _ in range(2):
        a, b = sample_double(ctx, rng)
        t, every = ctx.gram_adjoint(b), range(ctx.dim_g)
        yield t, omega_matrix(ctx, t, every), every, phi_differential(ctx, a, b)
    k = ctx.dim_g + len(ctx.unipotent)
    for pt in gspoint_stream(ctx, rng, 2):
        chart = borel_chart(ctx, *pt)
        yield chart.t, leading(chart.w, k), chart.nil, leading(chart.dmu_up, ctx.dim_g, k)


def _same_d_identity(ctx, t, w, second, dphi, seed):
    """Both routes on one input: the same verdict, and the same stream
    state afterwards; returns the verdict."""
    new, old = SplitMix64(seed), SplitMix64(seed)
    verdict = sampled_d_identity(ctx, t, w, second, dphi, new, 2)
    assert verdict == qqi_d_identity(ctx, t, w, second, dphi, old, 2)
    assert new.state == old.state
    return verdict


@pytest.mark.parametrize("conv", ["frozen", *sorted(CORRUPTIONS)])
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_sampled_d_identity_matches_the_qqi_route(group, conv):
    ctx = context(group)
    with using(FROZEN if conv == "frozen" else CORRUPTIONS[conv]):
        verdicts = [_same_d_identity(ctx, *inputs, seed)
                    for seed, inputs in enumerate(
                        _d_identity_inputs(ctx, SplitMix64(108)))]
    # omega-sign breaks A2 on the double, the other switches leave it
    assert verdicts[:2] == [conv != "omega-sign"] * 2


def test_sampled_d_identity_on_non_real_points():
    ctx = context("sl2")
    i = QQi(0, 1)
    a = Mat([[i, 0], [0, -i]])
    b = Mat([[1 + i, i], [1, 1]])
    t, every = ctx.gram_adjoint(b), range(ctx.dim_g)
    assert any(x.im for r in t.data for x in r)
    for conv in (FROZEN, CORRUPTIONS["omega-sign"]):
        with using(conv):
            assert _same_d_identity(ctx, t, omega_matrix(ctx, t, every), every,
                                    phi_differential(ctx, a, b), 7) == (conv is FROZEN)
    # the pinned eval leaf-form point of test_gspringer, b = [[i, 3/2], [0, -i]]
    chart = borel_chart(*point_from_json({
        "group": "sl2", "g": {"rows": 2, "cols": 2, "entries": [1, 0, 2, 1]},
        "b": {"rows": 2, "cols": 2, "entries": [[0, 1], ["3/2", 0], 0, [0, -1]]}}))
    k = ctx.dim_g + len(ctx.unipotent)
    assert _same_d_identity(ctx, chart.t, leading(chart.w, k), chart.nil,
                            leading(chart.dmu_up, ctx.dim_g, k), 0x1EAF)


def test_float_array_is_bitwise_the_to_complex_route():
    rng = SplitMix64(109)
    i = QQi(0, 1)
    big = 2 ** 200 + 12345
    mats = [random_point(context(g), "G", rng) for g in sorted(GROUPS)]
    mats += [
        # rows with distinct denominators, entries no float holds exactly,
        # and a negative entry that underflows to -0.0
        Mat([[Fraction(1, 3), Fraction(-2, 7), 0], [Fraction(big, 3), 5, Fraction(-1, big)]]),
        Mat([[Fraction(10 ** 30 + 1, 10 ** 29 + 7)], [Fraction(-1, 10 ** 400)]]),
        Mat([[i, 0], [0, -i]]),
        Mat([[1 + i, Fraction(1, 3)], [QQi(Fraction(-2, 9), 5), 1]]),
        # Gaussian numerators whose real or imaginary part underflows
        Mat([[QQi(Fraction(-1, 10 ** 400), 1), QQi(2, Fraction(-1, 10 ** 400))]]),
    ]
    for m in mats:
        want = np.array([[to_complex(x) for x in r] for r in m.data], dtype=complex)
        got = float_array(m)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), m


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

