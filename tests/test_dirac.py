"""Fibers, the symmetric pairing, graphs, transport, and the bracket."""

import inspect
import runpy
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from qpslab import dirac, liegroup
from qpslab.campaigns import CLI_GROUPS, CampaignConfig, run_suite
from qpslab.conventions import CORRUPTIONS, FROZEN, using
from qpslab.diffcalc import (Space, cartan_eta3, cartan_section, directional,
                             dorfman, inversion_map)
from qpslab.dirac import (DiracFiber, cartan_closure_check, cartan_dirac,
                          graph_bivector, graph_two_form, is_lagrangian,
                          pairing, pullback_linear, pushforward_linear)
from qpslab.liegroup import (GroupContext, conjugation_sections, context,
                             random_algebra, random_point)
from qpslab.linalg import LinAlgError, Mat, Subspace, kernel, rank
from qpslab.prng import SplitMix64
from qpslab.scalars import QQi

from oracles import rational

ROOT = Path(__file__).resolve().parents[1]
SL2 = context("sl2")
RNG = SplitMix64(41)


def test_pairing_examples():
    zero = Mat.zeros(2, 2)
    e12 = Mat([[QQi(0), QQi(1)], [QQi(0), QQi(0)]])
    e21 = Mat([[QQi(0), QQi(0)], [QQi(1), QQi(0)]])
    x = random_algebra(SL2, RNG)
    y = random_algebra(SL2, RNG)
    assert not pairing(SL2, (x, zero), (y, zero))
    assert not pairing(SL2, (zero, x), (zero, y))
    # 2 * tr(E21 E12) = 2 with the unit form scale
    assert pairing(SL2, (e12, e21), (e12, e21)) == QQi(2)


@pytest.mark.parametrize("group", ["sl2", "gl2"])
def test_metric_identification_needs_the_gram_matrix(group, monkeypatch):
    # the record's second route pairs functional coordinates with tangent
    # ones; with the Gram matrix forgotten (functional coordinates read as
    # tangent ones) it must fail at every point
    cfg = CampaignConfig(suite="pairing", group=group, samples=4, seed=11)

    def verdicts():
        return [r["passed"] for r in run_suite(cfg).checks
                if r["check_id"] == "pairing/metric-identification"]

    assert verdicts() == [True] * 4
    monkeypatch.setattr(GroupContext, "dual_coords", GroupContext.coords)
    assert verdicts() == [False] * 4


def skew(ctx, rng, d=None):
    d = d or ctx.dim_g
    m = [[QQi(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            v = QQi(rational(rng, 5))
            m[i][j] = v
            m[j][i] = -v
    return Mat(m)


def test_is_lagrangian_graphs():
    d = 3
    tangent = DiracFiber(Mat.identity(d).vstack(Mat.zeros(d, d)))
    ok, _ = is_lagrangian(tangent)
    assert ok
    w = skew(SL2, RNG)
    ok, _ = is_lagrangian(graph_two_form(w))
    assert ok
    # a symmetric nonzero form is not isotropic; the witness names the
    # first pair that pairs to a nonzero value
    sym = Mat.identity(d)
    bad = DiracFiber(Mat.identity(d).vstack(sym))
    ok, wit = is_lagrangian(bad)
    assert not ok and wit == {"reason": "pairing", "pair": [0, 0],
                              "value": repr(QQi(2))}


def test_graph_two_form_examples():
    d = SL2.dim_g
    zero_w = Mat.zeros(d, d)
    fib = graph_two_form(zero_w)
    tangent = DiracFiber(Mat.identity(d).vstack(Mat.zeros(d, d)))
    assert fib.equals(tangent)
    w = Mat([[QQi(0), QQi(1), QQi(0)],
             [QQi(-1), QQi(0), QQi(0)],
             [QQi(0), QQi(0), QQi(0)]])
    fib = graph_two_form(w)
    assert fib.dim == 3
    assert fib.contains_vector([QQi(0), QQi(0), QQi(1)] + [QQi(0)] * 3)
    assert is_lagrangian(fib)[0]
    for bad in (Mat.identity(3), Mat.zeros(2, 3)):
        with pytest.raises(ValueError):
            graph_two_form(bad)


def test_graph_bivector_examples():
    d = SL2.dim_g
    fib = graph_bivector(Mat.zeros(d, d))
    cotangent = DiracFiber(Mat.zeros(d, d).vstack(Mat.identity(d)))
    assert fib.equals(cotangent)
    assert fib.cotangent_intersection().dim == d
    for bad in (Mat.identity(3), Mat.zeros(3, 2)):
        with pytest.raises(ValueError):
            graph_bivector(bad)


def test_graph_inverse_consistency():
    rng = SplitMix64(42)
    while True:
        w = skew(SL2, rng, d=4)
        if rank(w) == 4:
            break
    fib_w = graph_two_form(w)
    fib_pi = graph_bivector(w.transpose().inverse())
    assert fib_w.equals(fib_pi)
    assert fib_w.cotangent_intersection().dim == 0


def test_transport_identity_and_roundtrip():
    d = SL2.dim_g
    w = skew(SL2, RNG)
    fib = graph_two_form(w)
    eye = Mat.identity(d)
    assert pushforward_linear(fib, eye).equals(fib)
    assert pullback_linear(fib, eye).equals(fib)
    # along a diffeomorphism the two transports invert each other
    g = random_point(SL2, "G", RNG)
    G = Space(SL2, ("g",))
    inv = inversion_map(G)
    fmat = inv.differential_matrix((g,))
    there = pushforward_linear(fib, fmat)
    back = pullback_linear(there, fmat)
    assert back.equals(fib)
    assert is_lagrangian(there)[0]


def test_pullback_of_graph_is_graph_of_pullback():
    # f^* graph(omega) = graph(f^* omega), both routes computed independently
    g = random_point(SL2, "G", RNG)
    G = Space(SL2, ("g",))
    inv = inversion_map(G)
    w = skew(SL2, RNG)
    target_fiber = graph_two_form(w)
    fmat = inv.differential_matrix((g,))
    route1 = pullback_linear(target_fiber, fmat)
    pulled = fmat.transpose() @ w @ fmat
    route2 = graph_two_form(pulled)
    assert route1.equals(route2)


def test_pointed_map_transport_roundtrip():
    g = random_point(SL2, "G", RNG)
    G = Space(SL2, ("g",))
    fmat = inversion_map(G).differential_matrix((g,))
    fib = cartan_dirac(conjugation_sections(SL2, g))
    back = pullback_linear(pushforward_linear(fib, fmat), fmat)
    assert back.equals(fib)


def test_cartan_dirac_identity_fiber():
    e = Mat.identity(2)
    fib = cartan_dirac(conjugation_sections(SL2, e))
    cotangent = DiracFiber(Mat.zeros(3, 3).vstack(Mat.identity(3)))
    assert fib.equals(cotangent)


def test_cartan_dirac_lagrangian_and_leaf_dims():
    rng = SplitMix64(43)
    for name in ("sl2", "sl3", "gl2"):
        ctx = context(name)
        for _ in range(10):
            g = random_point(ctx, "G", rng)
            fib = cartan_dirac(conjugation_sections(ctx, g))
            ok, _ = is_lagrangian(fib)
            assert ok and fib.dim == ctx.dim_g
            admat = Mat.from_columns(
                [ctx.coords(g @ bk @ g.inverse()) for bk in ctx.basis],
                ctx.dim_g)
            cent = kernel(admat - Mat.identity(ctx.dim_g))
            assert fib.tangent_part().dim == ctx.dim_g - cent.dim
    # regular semisimple: centralizer is the torus, leaf has codim = rank
    t = random_point(context("sl3"), "T-regular", rng)
    fib = cartan_dirac(conjugation_sections(context("sl3"), t))
    assert fib.tangent_part().dim == context("sl3").dim_g - context("sl3").rank


def test_dorfman_zero_and_left_invariant():
    g = random_point(SL2, "G", RNG)
    G = Space(SL2, ("g",))

    def zero(q):
        return [QQi(0)] * 3, [QQi(0)] * 3

    t, c = dorfman(zero, zero, None, G, (g,))
    assert all(not v for v in t) and all(not v for v in c)

    xi = random_algebra(SL2, RNG)
    ze = random_algebra(SL2, RNG)

    def s1(q):
        return SL2.coords(xi), [QQi(0)] * 3

    def s2(q):
        return SL2.coords(ze), [QQi(0)] * 3

    t, c = dorfman(s1, s2, None, G, (g,))
    assert t == SL2.coords(xi @ ze - ze @ xi)
    assert all(not v for v in c)


def test_dorfman_closure_and_batched_agree():
    rng = SplitMix64(44)
    G = Space(SL2, ("g",))
    eta3 = cartan_eta3(G)
    for _ in range(3):
        g = random_point(SL2, "G", rng)
        xi = random_algebra(SL2, rng)
        ze = random_algebra(SL2, rng)
        t, c = dorfman(cartan_section(SL2, xi), cartan_section(SL2, ze),
                       eta3, G, (g,))
        target = cartan_section(SL2, xi @ ze - ze @ xi)((g,))
        assert t == target[0] and c == target[1]
        ok, _ = cartan_closure_check(SL2, g)
        assert ok
        fib = cartan_dirac(conjugation_sections(SL2, g))
        assert fib.contains_vector(t + c)


@pytest.mark.parametrize("conv", [FROZEN, *CORRUPTIONS.values()],
                         ids=["frozen", *CORRUPTIONS])
@pytest.mark.parametrize("name", ["sl2", "gl2", "sl3"])
def test_dorfman_matches_the_generic_formulas(name, conv):
    """The bracket's symmetric part is d of the pairing:
    (X, alpha) o (Y, beta) + (Y, beta) o (X, alpha) = (0, d(alpha(Y) +
    beta(X))), by Cartan's formula L_X = i_X d + d i_X, and the twist drops
    out because eta3 is alternating.  d is read off one dual-number curve per
    basis direction, so an error in ``lie_bracket``,
    ``lie_derivative_covector`` or ``one_form_d``, or in how ``dorfman``
    composes them, shows unless it is symmetric in the two sections."""
    ctx = context(name)
    G = Space(ctx, ("g",))
    eta3 = cartan_eta3(G)
    rng = SplitMix64(46)
    point = (random_point(ctx, "G", rng),)
    sec = [cartan_section(ctx, random_algebra(ctx, rng)) for _ in range(4)]
    # tangent and covector parts of different conjugation sections: the
    # pairing of two sections of a Lagrangian family is zero
    s1, s2 = ((lambda q, i=i: (sec[i](q)[0], sec[i + 1](q)[1])) for i in (0, 2))

    def pairing_at(q):
        (x, alpha), (y, beta) = s1(q), s2(q)
        return sum((u * v for u, v in zip(alpha + beta, y + x)), QQi(0))

    with using(conv):
        t12, c12 = dorfman(s1, s2, eta3, G, point)
        t21, c21 = dorfman(s2, s1, eta3, G, point)
        d_pairing = [directional(G, point, e, pairing_at)
                     for e in G.basis_directions()]
        assert all(not (u + v) for u, v in zip(t12, t21))
        assert [u + v for u, v in zip(c12, c21)] == d_pairing
        assert any(d_pairing)


def calibration_grid():
    """Every (eta_coeff, twist) candidate of the calibration sweep."""
    sweep = runpy.run_path(str(ROOT / "scripts" / "calibrate_conventions.py"))
    return [replace(FROZEN, eta_coeff=c, twist=t)
            for c in sweep["ETA_COEFFS"] for t in sweep["TWISTS"]]


def test_batched_closure_matches_dorfman_under_corruption():
    rng = SplitMix64(45)
    for ctx in (SL2, context("gl2")):
        g = random_point(ctx, "G", rng)
        G = Space(ctx, ("g",))
        eta3 = cartan_eta3(G)
        pairs = [([li, lj], cartan_section(ctx, bi), cartan_section(ctx, bj),
                  bi @ bj - bj @ bi)
                 for bi, li in zip(ctx.basis, ctx.basis_labels)
                 for bj, lj in zip(ctx.basis, ctx.basis_labels)]
        for conv in list(CORRUPTIONS.values()) + calibration_grid():
            with using(conv):
                got = cartan_closure_check(ctx, g)
                # every pair's bracket, not only the first wrong one, which
                # (in basis order) is the witness
                lhs, _ = dirac._closure_sides(ctx, g)
                first = None
                for r, (labels, s1, s2, br) in enumerate(pairs):
                    t, c = dorfman(s1, s2, eta3, G, (g,))
                    assert lhs.row_block(r, r + 1) == Mat([list(t) + list(c)])
                    want = cartan_section(ctx, br)((g,))
                    if first is None and [t, c] != list(want):
                        first = labels
            assert got == ((True, None) if first is None else (False, {"pair": first}))
            # closure sees eta only through eta_coeff * twist, and never the
            # double's 2-form, so omega-sign passes
            closes = (conv.eta_coeff * conv.twist == FROZEN.eta_coeff * FROZEN.twist
                      and (conv.sigma_factor, conv.sigma_ad_sign)
                      == (FROZEN.sigma_factor, FROZEN.sigma_ad_sign))
            assert (first is None) == closes
    for name in ("sl3", "gl3", "sl4", "gl4"):
        ctx = context(name)
        g = random_point(ctx, "G", rng)
        assert cartan_closure_check(ctx, g) == (True, None)


@pytest.mark.parametrize("name", sorted(liegroup.GROUPS))
def test_pair_row_matches_dorfman(name):
    """closure_sample's closed-form row is dorfman's bracket of the two
    sections, entry for entry, and (on the CLI groups) the xi (x) zeta
    combination of the full-basis rows; its target is the section of
    [xi, zeta]."""
    ctx = context(name)
    rng = SplitMix64(47)
    G = Space(ctx, ("g",))
    g = random_point(ctx, "G", rng)
    xi, ze = random_algebra(ctx, rng), random_algebra(ctx, rng)
    s1, s2 = cartan_section(ctx, xi), cartan_section(ctx, ze)
    coef = Mat([[a * b for a in ctx.coords(xi) for b in ctx.coords(ze)]])
    for conv in [FROZEN] + list(CORRUPTIONS.values()) + calibration_grid():
        with using(conv):
            sections = conjugation_sections(ctx, g)
            row, target = dirac._pair_sides(ctx, sections, xi, ze)
            tangent, cov = dorfman(s1, s2, cartan_eta3(G), G, (g,))
            assert row == Mat([list(tangent) + list(cov)]), conv
            want = cartan_section(ctx, xi @ ze - ze @ xi)((g,))
            assert target == Mat([list(want[0]) + list(want[1])]), conv
            assert dirac.closure_sample(ctx, sections, xi, ze) == (row == target)
            if name in CLI_GROUPS:
                assert row == coef @ dirac._closure_sides(ctx, g)[0], conv


def test_closure_check_inverts_nothing(monkeypatch):
    # g keeps its inverse once computed, and the inverse keeps g: Ad_{g^-1}
    # reads g^-1 off g and g back off g^-1, and neither read computes one
    ctx = context("sl3")
    g = random_point(ctx, "G", SplitMix64(48))
    g.inverse()
    calls = []
    real = Mat.inverse

    def spy(m):
        calls.append(m._inv is None)
        return real(m)

    monkeypatch.setattr(Mat, "inverse", spy)
    assert cartan_closure_check(ctx, g) == (True, None)
    assert calls == [False, False]


def test_one_dorfman_bracket_computes_g_inverse_once(monkeypatch):
    # each section is evaluated at many curve points through g, and each
    # holds g's own matrix, which keeps its inverse: of the bracket's 36
    # inversions of g only the first computes one
    ctx = context("sl3")
    rng = SplitMix64(47)
    G = Space(ctx, ("g",))
    gm = Mat(random_point(ctx, "G", rng).data)
    s1, s2 = (cartan_section(ctx, random_algebra(ctx, rng)) for _ in range(2))
    calls = []
    real = Mat.inverse

    def spy(m):
        calls.append((m is gm, m._inv is None))
        return real(m)

    monkeypatch.setattr(Mat, "inverse", spy)
    dorfman(s1, s2, cartan_eta3(G), G, (gm,))
    assert calls == [(True, True)] + [(True, False)] * 35


def test_closure_product_count_does_not_grow_with_the_group(monkeypatch):
    # every bracket of every basis pair comes from one stacked product, so
    # the number of products is the same at d = 3, 8 and 15
    calls = Counter()
    real = Mat.__matmul__

    def spy(a, b):
        calls[name] += 1
        return real(a, b)

    for name in ("sl2", "sl3", "sl4"):
        ctx = context(name)
        g = random_point(ctx, "G", SplitMix64(49))
        with monkeypatch.context() as patch:
            patch.setattr(Mat, "__matmul__", spy)
            assert cartan_closure_check(ctx, g) == (True, None)
    assert calls["sl2"] == calls["sl3"] == calls["sl4"] > 0


# the dimension guards of the linear transport maps, each reached with a
# map of the wrong size for a fiber over a 2-dimensional space
@pytest.mark.parametrize("transport, message", [
    pytest.param(pushforward_linear, "wrong domain dimension", id="pushforward"),
    pytest.param(pullback_linear, "wrong codomain dimension", id="pullback"),
])
def test_each_transport_guard_refuses_a_mis_sized_map(transport, message):
    with pytest.raises(ValueError, match=message):
        transport(DiracFiber(Mat.identity(4)), Mat.identity(3))


def test_a_fiber_refuses_an_odd_number_of_rows():
    # a fiber's d is half its basis's row count, which is refused when odd
    # rather than rounded down
    with pytest.raises(LinAlgError, match="even number of rows"):
        DiracFiber(Mat.identity(3))


# each callee reads the inverse or the ambient dimension off its matrix, so
# no signature has a place for the caller to pass one
@pytest.mark.parametrize("callee, params", [
    pytest.param(GroupContext.adjoint, ["self", "m"], id="adjoint"),
    pytest.param(GroupContext.gram_adjoint, ["self", "m"], id="gram_adjoint"),
    pytest.param(GroupContext._conjugation_columns, ["self", "m", "readers"],
                 id="_conjugation_columns"),
    pytest.param(liegroup.conjugation_sections, ["ctx", "g"], id="conjugation_sections"),
    pytest.param(cartan_closure_check, ["ctx", "g"], id="cartan_closure_check"),
    pytest.param(dirac._closure_sides, ["ctx", "g"], id="_closure_sides"),
    pytest.param(Subspace.__init__, ["self", "basis"], id="Subspace"),
    pytest.param(DiracFiber, ["basis"], id="DiracFiber"),
])
def test_no_callee_takes_what_its_matrix_holds(callee, params):
    assert list(inspect.signature(callee).parameters) == params
