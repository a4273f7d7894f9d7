"""The forward-mode engine against closed-form differentials."""

from fractions import Fraction

import pytest

from qpslab.diffcalc import (PointedMap, Space, compose, d_two_form, directional,
                             identity_map, inversion_map, lie_bracket,
                             lie_derivative_covector, one_form_d)
from qpslab.liegroup import context, random_algebra, random_point
from qpslab.linalg import Mat
from qpslab.prng import SplitMix64
from qpslab.scalars import QQi

from oracles import mat_vec, rational

SL2 = context("sl2")
G2 = Space(SL2, ("g",))
RNG = SplitMix64(8)


def coords(ctx, m):
    return ctx.coords(m)


def test_identity_and_inversion_differentials():
    g = random_point(SL2, "G", RNG)
    x = random_algebra(SL2, RNG)
    assert identity_map(G2).differential((g,), coords(SL2, x)) == coords(SL2, x)
    got = inversion_map(G2).differential((g,), coords(SL2, x))
    assert got == coords(SL2, (g @ x @ g.inverse()).scale(QQi(-1)))


def test_moment_map_differential_at_identity():
    D = Space(SL2, ("g", "g"))

    def phi_fn(p):
        a, b = p
        return (a @ b @ a.inverse(), b.inverse())

    phi = PointedMap("phi", D, D, phi_fn)
    e = Mat.identity(2)
    x = random_algebra(SL2, RNG)
    y = random_algebra(SL2, RNG)
    got = phi.differential((e, e), coords(SL2, x) + coords(SL2, y))
    assert got == coords(SL2, y) + coords(SL2, -y)


def test_differential_linear_in_direction():
    g = random_point(SL2, "G", RNG)
    inv = inversion_map(G2)
    x = random_algebra(SL2, RNG)
    y = random_algebra(SL2, RNG)
    dx = inv.differential((g,), coords(SL2, x))
    dy = inv.differential((g,), coords(SL2, y))
    both = inv.differential((g,), [a + b for a, b in zip(coords(SL2, x),
                                                           coords(SL2, y))])
    assert both == [a + b for a, b in zip(dx, dy)]


def test_chain_rule():
    g = random_point(SL2, "G", RNG)
    x = random_algebra(SL2, RNG)
    inv = inversion_map(G2)
    twice = compose("id", inv, inv)
    assert twice.differential((g,), coords(SL2, x)) == coords(SL2, x)
    sq = PointedMap("square", G2, G2, lambda p: (p[0] @ p[0],))
    via_compose = compose("inv-of-square", inv, sq)
    step = sq.differential((g,), coords(SL2, x))
    expected = inv.differential(sq.value((g,)), step)
    assert via_compose.differential((g,), coords(SL2, x)) == expected


def test_direction_must_be_tangent():
    with pytest.raises(ValueError):
        G2.direction_coords([Mat.identity(2)])  # nonzero trace on an SL factor


def test_left_invariant_bracket():
    g = random_point(SL2, "G", RNG)
    xi = random_algebra(SL2, RNG)
    ze = random_algebra(SL2, RNG)
    fx = lambda q: coords(SL2, xi)
    fy = lambda q: coords(SL2, ze)
    got = lie_bracket(fx, fy, G2, (g,))
    assert got == coords(SL2, xi @ ze - ze @ xi)


def test_bracket_of_field_with_itself_vanishes():
    g = random_point(SL2, "G", RNG)
    xi = random_algebra(SL2, RNG)

    def varying(q):
        # right-invariant field: coordinates depend on the point
        gm = q[0]
        return coords(SL2, gm.inverse() @ xi @ gm)

    assert all(not c for c in lie_bracket(varying, varying, G2, (g,)))


def test_left_right_invariant_fields_commute():
    g = random_point(SL2, "G", RNG)
    xi = random_algebra(SL2, RNG)
    ze = random_algebra(SL2, RNG)
    left = lambda q: coords(SL2, xi)

    def right(q):
        gm = q[0]
        return coords(SL2, gm.inverse() @ ze @ gm)

    assert all(not c for c in lie_bracket(left, right, G2, (g,)))


def test_jacobi_identity():
    rng = SplitMix64(9)
    g = random_point(SL2, "G", rng)
    mats = [random_algebra(SL2, rng) for _ in range(3)]

    def make(i):
        if i == 0:
            return lambda q: coords(SL2, mats[0])
        if i == 1:
            return lambda q: coords(SL2, q[0].inverse() @ mats[1] @ q[0])
        def mixed(q):
            gm = q[0]
            t = gm.entry(0, 0)
            return [t * c for c in coords(SL2, mats[2])]
        return mixed

    X, Y, Z = make(0), make(1), make(2)

    def br(a, b):
        def field(q):
            return lie_bracket(a, b, G2, q)
        return field

    total = [
        sum(vals) for vals in zip(
            lie_bracket(X, br(Y, Z), G2, (g,)),
            lie_bracket(Y, br(Z, X), G2, (g,)),
            lie_bracket(Z, br(X, Y), G2, (g,)),
        )
    ]
    assert all(not c for c in total)


def test_d_two_form_abelian_constant_vanishes():
    T = Space(SL2, ("t",))
    t = random_point(SL2, "T", RNG)

    def omega(point, u, v):
        return u[0] * v[0] - u[0] * v[0]  # zero form, degenerate rank-1 torus

    # a constant coefficient form on the 1-dim torus is trivially closed;
    # use gl2's 2-dim torus for a nontrivial constant form
    GL2 = context("gl2")
    T2 = Space(GL2, ("t",))
    t2 = random_point(GL2, "T", SplitMix64(10))

    def omega2(point, u, v):
        return u[0] * v[1] - u[1] * v[0]

    x, y, z = [QQi(1), QQi(0)], [QQi(0), QQi(1)], [QQi(1), QQi(1)]
    assert not d_two_form(omega2, T2, (t2,), x, y, z)


def test_d_two_form_alternating():
    rng = SplitMix64(11)
    g = random_point(SL2, "G", rng)
    xi = random_algebra(SL2, rng)

    def omega(point, u, v):
        gm = point[0]
        um = G2.matrices(u)[0]
        vm = G2.matrices(v)[0]
        ad = gm.inverse() @ xi @ gm
        return SL2.form(um, ad @ vm - vm @ ad)

    dirs = [[QQi(rational(rng, 4)) for _ in range(3)] for _ in range(3)]
    x, y, z = dirs
    lhs = d_two_form(omega, G2, (g,), x, y, z)
    assert lhs == -d_two_form(omega, G2, (g,), y, x, z)
    assert lhs == -d_two_form(omega, G2, (g,), x, z, y)


def test_lie_derivative_zero_field():
    g = random_point(SL2, "G", RNG)
    beta = lambda q: [QQi(1), QQi(2), QQi(3)]
    zero = lambda q: [QQi(0)] * 3
    assert lie_derivative_covector(zero, beta, G2, (g,)) == [QQi(0)] * 3


def test_lie_derivative_coadjoint_formula():
    # constant-coefficient covector along a left-invariant field reproduces
    # the coadjoint action, checked against the hand formula on sl2
    g = random_point(SL2, "G", RNG)
    xi = random_algebra(SL2, RNG)
    b = random_algebra(SL2, RNG)
    X = lambda q: SL2.coords(xi)
    beta = lambda q: mat_vec(SL2.gram, SL2.coords(b))
    got = lie_derivative_covector(X, beta, G2, (g,))
    expected_coord = xi @ b - b @ xi  # ad_xi b
    assert got == mat_vec(SL2.gram, SL2.coords(expected_coord))


def test_lie_derivative_leibniz():
    rng = SplitMix64(21)
    g = random_point(SL2, "G", rng)
    xi = random_algebra(SL2, rng)
    b = random_algebra(SL2, rng)
    X = lambda q: SL2.coords(xi)
    beta = lambda q: mat_vec(SL2.gram, SL2.coords(b))

    def f(q):
        return q[0].entry(0, 0) * q[0].entry(1, 1)

    def fbeta(q):
        s = f(q)
        return [s * c for c in beta(q)]

    lhs = lie_derivative_covector(X, fbeta, G2, (g,))
    df = directional(G2, (g,), X((g,)), f)
    lbeta = lie_derivative_covector(X, beta, G2, (g,))
    fval = f((g,))
    rhs = [df * bc + fval * lc for bc, lc in zip(beta((g,)), lbeta)]
    assert lhs == rhs


class Poly2Mat:
    """Matrix of truncated polynomials a0 + a1 t + a2 t^2 (test helper)."""

    def __init__(self, c0, c1=None, c2=None):
        z = Mat.zeros(c0.rows, c0.cols)
        self.c = (c0, c1 if c1 is not None else z, c2 if c2 is not None else z)

    def __matmul__(self, other):
        a, b = self.c, other.c
        return Poly2Mat(
            a[0] @ b[0],
            a[0] @ b[1] + a[1] @ b[0],
            a[0] @ b[2] + a[1] @ b[1] + a[2] @ b[0],
        )

    def inverse(self):
        i0 = self.c[0].inverse()
        i1 = -(i0 @ self.c[1] @ i0)
        i2 = -(i0 @ self.c[2] @ i0) - (i0 @ self.c[1] @ i1)
        return Poly2Mat(i0, i1, i2)

    def first_order(self):
        return self.c[1]


def test_first_order_result_curve_independent():
    # the derivative of a rational map along p(I + t x) agrees with the one
    # along p(I + t x + t^2 x^2 / 2): second-order curve terms are invisible
    g = random_point(SL2, "G", RNG)
    x = random_algebra(SL2, RNG)
    half_sq = (x @ x).scale(QQi(Fraction(1, 2)))

    def eval_inverse_first_order(curve: Poly2Mat):
        return curve.inverse().first_order()

    linear = Poly2Mat(g, g @ x)
    quadratic = Poly2Mat(g, g @ x, g @ half_sq)
    assert eval_inverse_first_order(linear) == eval_inverse_first_order(quadratic)
    # and the dual-number engine matches the same first-order value
    dual = inversion_map(G2).differential((g,), SL2.coords(x))
    inv_val = g.inverse()
    assert dual == SL2.coords(inv_val.inverse() @ eval_inverse_first_order(linear))


def test_one_form_d_kills_exact_forms():
    # the coordinate family of d(f) for f(g) = g_00 is
    # beta_j(g) = (g e_j)_00, a closed-form polynomial family; d(d f) = 0,
    # so its contraction against any field vanishes
    rng = SplitMix64(22)
    g = random_point(SL2, "G", rng)
    xi = random_algebra(SL2, rng)
    basis_mats = [G2.matrices(e)[0] for e in G2.basis_directions()]

    def beta(q):
        return [(q[0] @ m).entry(0, 0) for m in basis_mats]

    def right_field(q):
        gm = q[0]
        return SL2.coords(gm.inverse() @ xi @ gm)

    for field in (lambda q: SL2.coords(xi), right_field):
        got = one_form_d(beta, field, G2, (g,))
        assert all(not c for c in got)
