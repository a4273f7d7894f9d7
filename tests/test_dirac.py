"""Fibers, the symmetric pairing, graphs, transport, and the bracket."""

from fractions import Fraction

import pytest

from qpslab import hooks
from qpslab.diffcalc import Space, inversion_map, PointedMap
from qpslab.dirac import (BivectorFiber, DiracFiber, TwoFormFiber,
                          cartan_closure_check, cartan_dirac, cartan_eta3,
                          cartan_section, dorfman, graph_bivector,
                          graph_two_form, is_lagrangian, pairing,
                          pullback, pushforward, pullback_linear,
                          pushforward_linear)
from qpslab.liegroup import (AlgebraElement, GroupElement, context,
                             random_algebra, random_point)
from qpslab.linalg import EXACT, Mat, Subspace, kernel, mat_vec, rank
from qpslab.prng import SplitMix64
from qpslab.scalars import QQi

SL2 = context("sl2")
RNG = SplitMix64(41)


def test_pairing_examples():
    zero = AlgebraElement(SL2, Mat.zeros(2, 2), check=False)
    e12 = AlgebraElement(SL2, Mat([[QQi(0), QQi(1)], [QQi(0), QQi(0)]]))
    e21 = AlgebraElement(SL2, Mat([[QQi(0), QQi(0)], [QQi(1), QQi(0)]]))
    x = random_algebra(SL2, RNG)
    y = random_algebra(SL2, RNG)
    assert not pairing((x, zero), (y, zero))
    assert not pairing((zero, x), (zero, y))
    # 2 * tr(E21 E12) = 2 with the unit form scale
    assert pairing((e12, e21), (e12, e21)) == QQi(2)


def skew(ctx, rng, d=None):
    d = d or ctx.dim_g
    m = [[QQi(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            v = QQi(rng.rational(5))
            m[i][j] = v
            m[j][i] = -v
    return Mat(m)


def test_is_lagrangian_graphs():
    d = 3
    tangent = DiracFiber(None, d, Mat.identity(d).vstack(Mat.zeros(d, d)))
    ok, _ = is_lagrangian(tangent)
    assert ok
    w = skew(SL2, RNG)
    ok, _ = is_lagrangian(graph_two_form(TwoFormFiber(None, w)))
    assert ok
    # a symmetric nonzero form is not isotropic; the witness names a pair
    sym = Mat.identity(d)
    bad = DiracFiber(None, d, Mat.identity(d).vstack(sym))
    ok, wit = is_lagrangian(bad)
    assert not ok and wit["reason"] == "pairing"


def test_graph_two_form_examples():
    d = SL2.dim_g
    zero_w = Mat.zeros(d, d)
    fib = graph_two_form(TwoFormFiber(None, zero_w))
    tangent = DiracFiber(None, d, Mat.identity(d).vstack(Mat.zeros(d, d)))
    assert fib.equals(tangent)
    w = Mat([[QQi(0), QQi(1), QQi(0)],
             [QQi(-1), QQi(0), QQi(0)],
             [QQi(0), QQi(0), QQi(0)]])
    fib = graph_two_form(TwoFormFiber(None, w))
    assert fib.dim == 3
    assert fib.contains([QQi(0), QQi(0), QQi(1)], [QQi(0)] * 3)
    assert is_lagrangian(fib)[0]
    with pytest.raises(ValueError):
        graph_two_form(TwoFormFiber(None, Mat.identity(3)))


def test_graph_bivector_examples():
    d = SL2.dim_g
    fib = graph_bivector(BivectorFiber(None, Mat.zeros(d, d)))
    cotangent = DiracFiber(None, d, Mat.zeros(d, d).vstack(Mat.identity(d)))
    assert fib.equals(cotangent)
    assert fib.cotangent_intersection().dim == d


def test_graph_inverse_consistency():
    rng = SplitMix64(42)
    while True:
        w = skew(SL2, rng, d=4)
        if rank(w) == 4:
            break
    pi = BivectorFiber(None, w.transpose().inverse())
    fib_w = graph_two_form(TwoFormFiber(None, w))
    fib_pi = graph_bivector(pi)
    assert fib_w.equals(fib_pi)
    assert fib_w.cotangent_intersection().dim == 0


def test_transport_identity_and_roundtrip():
    d = SL2.dim_g
    w = skew(SL2, RNG)
    fib = graph_two_form(TwoFormFiber(None, w))
    eye = Mat.identity(d)
    assert pushforward_linear(fib, eye).equals(fib)
    assert pullback_linear(fib, eye).equals(fib)
    # along a diffeomorphism the two transports invert each other
    g = random_point(SL2, "G", RNG)
    G = Space(SL2, ("g",))
    inv = inversion_map(G)
    fmat = inv.differential_matrix((g.m,))
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
    target_fiber = graph_two_form(TwoFormFiber(None, w))
    fmat = inv.differential_matrix((g.m,))
    route1 = pullback_linear(target_fiber, fmat)
    pulled = fmat.transpose() @ w @ fmat
    route2 = graph_two_form(TwoFormFiber(None, pulled))
    assert route1.equals(route2)


def test_pointed_map_transport_wrappers():
    g = random_point(SL2, "G", RNG)
    G = Space(SL2, ("g",))
    inv = inversion_map(G)
    fib = cartan_dirac(g)
    moved = pushforward(fib, inv, (g.m,))
    back = pullback(moved, inv, (g.m,))
    assert back.equals(fib)


def test_cartan_dirac_identity_fiber():
    e = GroupElement(SL2, Mat.identity(2))
    fib = cartan_dirac(e)
    cotangent = DiracFiber(None, SL2.dim_g,
                           Mat.zeros(3, 3).vstack(Mat.identity(3)))
    assert fib.equals(cotangent)


def test_cartan_dirac_lagrangian_and_leaf_dims():
    rng = SplitMix64(43)
    for name in ("sl2", "sl3", "gl2"):
        ctx = context(name)
        for _ in range(10):
            g = random_point(ctx, "G", rng)
            fib = cartan_dirac(g)
            ok, _ = is_lagrangian(fib)
            assert ok and fib.dim == ctx.dim_g
            admat = Mat.from_columns(
                [ctx.coords(g.m @ bk @ g.inv) for bk in ctx.basis],
                ctx.dim_g, EXACT)
            cent = kernel(admat - Mat.identity(ctx.dim_g))
            assert fib.tangent_part().dim == ctx.dim_g - cent.dim
    # regular semisimple: centralizer is the torus, leaf has codim = rank
    t = random_point(context("sl3"), "T-regular", rng)
    fib = cartan_dirac(t)
    assert fib.tangent_part().dim == context("sl3").dim_g - context("sl3").rank


def test_dorfman_zero_and_left_invariant():
    g = random_point(SL2, "G", RNG)
    G = Space(SL2, ("g",))
    from qpslab.dirac import DiracSection

    zero = DiracSection("zero", lambda q: ([QQi(0)] * 3, [QQi(0)] * 3))
    t, c = dorfman(zero, zero, None, G, (g.m,))
    assert all(not v for v in t) and all(not v for v in c)

    xi = random_algebra(SL2, RNG)
    ze = random_algebra(SL2, RNG)
    s1 = DiracSection("xiL", lambda q: (SL2.coords(xi.m), [QQi(0)] * 3))
    s2 = DiracSection("zeL", lambda q: (SL2.coords(ze.m), [QQi(0)] * 3))
    t, c = dorfman(s1, s2, None, G, (g.m,))
    assert t == SL2.coords(xi.m @ ze.m - ze.m @ xi.m)
    assert all(not v for v in c)


def test_dorfman_closure_and_batched_agree():
    rng = SplitMix64(44)
    G = Space(SL2, ("g",))
    eta3 = cartan_eta3(G)
    for _ in range(3):
        g = random_point(SL2, "G", rng)
        xi = random_algebra(SL2, rng)
        ze = random_algebra(SL2, rng)
        t, c = dorfman(cartan_section(SL2, xi.m), cartan_section(SL2, ze.m),
                       eta3, G, (g.m,))
        target = cartan_section(SL2, xi.m @ ze.m - ze.m @ xi.m).fn((g.m,))
        assert t == target[0] and c == target[1]
        ok, _ = cartan_closure_check(SL2, g.m)
        assert ok
        fib = cartan_dirac(g)
        assert fib.contains(t, c)


def first_failing_pair(ctx, gmat):
    """The first basis pair, in basis order, where per-pair ``dorfman``
    differs from the section of the bracket; None if every pair closes."""
    G = Space(ctx, ("g",))
    eta3 = cartan_eta3(G)
    for bi, li in zip(ctx.basis, ctx.basis_labels):
        for bj, lj in zip(ctx.basis, ctx.basis_labels):
            got = dorfman(cartan_section(ctx, bi), cartan_section(ctx, bj),
                          eta3, G, (gmat,))
            want = cartan_section(ctx, bi @ bj - bj @ bi).fn((gmat,))
            if list(got[0]) != list(want[0]) or list(got[1]) != list(want[1]):
                return [li, lj]
    return None


def test_batched_closure_matches_dorfman_under_corruption():
    rng = SplitMix64(45)
    for ctx in (SL2, context("gl2")):
        g = random_point(ctx, "G", rng)
        for name in ("sigma-half", "dorfman-eta"):
            with hooks.corruption(name):
                ok, witness = cartan_closure_check(ctx, g.m)
                first = first_failing_pair(ctx, g.m)
            assert first is not None
            assert not ok and witness == {"pair": first}
    for name in ("sl3", "gl3"):
        ctx = context(name)
        assert cartan_closure_check(ctx, random_point(ctx, "G", rng).m) == (True, None)


def test_fiber_json_dump():
    g = random_point(SL2, "G", RNG)
    fib = cartan_dirac(g)
    d = fib.to_json()
    assert d["tangent_dim"] == 3
    assert d["basis"]["rows"] == 6
