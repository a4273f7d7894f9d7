"""Dirac transport and the null-vector layer against their full-system oracles.

``pushforward_linear`` and ``pullback_linear`` solve the reduced incidence
systems [F^T | -bot] and [F | -top] on the raw null vectors of
``linalg.null_vectors``; the oracles here solve the full systems in the
unknowns (x, b, c) through the canonical ``kernel``, as the transports did
before.  A fiber stores its canonical basis, so the two routes must agree
entry for entry.  ``intersect`` is checked the same way against the
kernel route, and ``graph_two_form``'s basis, recognised as canonical
without an rref, against the canonical basis of the same span.
"""

import pytest

from qpslab import linalg
from qpslab.conventions import CORRUPTIONS, FROZEN, using
from qpslab.diffcalc import Space
from qpslab.dirac import (DiracFiber, cartan_dirac, graph_two_form,
                          pullback_linear, pushforward_linear,
                          pushforward_spanning_set)
from qpslab.gspringer import borel_chart, gspoint_stream, omega_matrix
from qpslab.liegroup import GROUPS, conjugation_sections, context, random_point
from qpslab.linalg import Mat, Subspace, intersect, kernel, null_vectors, rank
from qpslab.prng import SplitMix64
from qpslab.scalars import QQi, ZZi

from borel_oracle import leading, upstairs_dphi
from oracles import rational, subspace_sum


def full_pushforward(fiber: DiracFiber, fmat: Mat) -> DiracFiber:
    """f_* L from the 2v x (v + w + k) system x - top c = 0, F^T b - bot c = 0."""
    v, w, k = fiber.d, fmat.rows, fiber.dim
    top = fiber.basis.row_block(0, v)
    bot = fiber.basis.row_block(v, fiber.basis.rows)
    row1 = Mat.identity(v).hstack(Mat.zeros(v, w)).hstack(-top if k else Mat.zeros(v, 0))
    row2 = Mat.zeros(v, v).hstack(fmat.transpose()).hstack(-bot if k else Mat.zeros(v, 0))
    null = kernel(row1.vstack(row2))
    if not null.dim:
        return DiracFiber(Mat.zeros(2 * w, 0))
    x = null.basis.row_block(0, v)
    b = null.basis.row_block(v, v + w)
    return DiracFiber((fmat @ x).vstack(b))


def full_pullback(fiber: DiracFiber, fmat: Mat) -> DiracFiber:
    """f^* L from the 2w x (v + w + k) system F x - top c = 0, b - bot c = 0."""
    w, v, k = fiber.d, fmat.cols, fiber.dim
    top = fiber.basis.row_block(0, w)
    bot = fiber.basis.row_block(w, fiber.basis.rows)
    row1 = fmat.hstack(Mat.zeros(w, w)).hstack(-top if k else Mat.zeros(w, 0))
    row2 = Mat.zeros(w, v).hstack(Mat.identity(w)).hstack(-bot if k else Mat.zeros(w, 0))
    null = kernel(row1.vstack(row2))
    if not null.dim:
        return DiracFiber(Mat.zeros(2 * v, 0))
    x = null.basis.row_block(0, v)
    b = null.basis.row_block(v, v + w)
    return DiracFiber(x.vstack(fmat.transpose() @ b))


def deficient(fmat: Mat) -> Mat:
    """``fmat`` with its first column zeroed and its last row a copy of the
    first: neither injective nor surjective."""
    rows = [list(r) for r in fmat.data]
    for r in rows:
        r[0] = QQi(0)
    rows[-1] = list(rows[0])
    return Mat(rows)


def zero_fiber(d: int) -> DiracFiber:
    return DiracFiber(Mat.zeros(2 * d, 0))


def assert_same(got: DiracFiber, want: DiracFiber):
    assert got.d == want.d and got.dim == want.dim
    assert got.basis == want.basis


def transport_cases(ctx):
    """(fiber, F) pairs for both transports at the forced strata and one
    random point of ``gspoint_stream``, from the chart and the moment map."""
    push, pull = [], []
    d = ctx.dim_g
    first = Mat.identity(d).hstack(Mat.zeros(d, len(ctx.borel)))
    for point in gspoint_stream(ctx, SplitMix64(301), 4):
        chart = borel_chart(ctx, *point)
        dmu, dphi = chart.dmu, upstairs_dphi(chart)
        cd = cartan_dirac(conjugation_sections(ctx, chart.mu))
        push += [(chart.graph, chart.proj), (chart.fiber, dmu),
                 (chart.graph, dphi), (pushforward_linear(chart.graph, dphi), first),
                 (chart.fiber, deficient(dmu)), (chart.graph, deficient(chart.proj)),
                 (zero_fiber(chart.hdim), dmu), (zero_fiber(chart.ambient), chart.proj)]
        pull += [(chart.fiber, chart.proj), (cd, dmu), (cd, deficient(dmu)),
                 (chart.fiber, deficient(chart.proj)), (zero_fiber(d), dmu),
                 (zero_fiber(chart.hdim), chart.proj)]
    return push, pull


def meet_with_kernel(fiber: DiracFiber, fmat: Mat) -> int:
    """dim (L meet ker F (+) 0), by ``intersect``."""
    ker = kernel(fmat)
    if not ker.dim:
        return 0
    return intersect(fiber, Subspace(ker.basis.vstack(Mat.zeros(fiber.d, ker.dim)))).dim


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_reduced_transports_match_the_full_incidence_systems(group):
    # the pushforward's raw spanning set spans the full system's pushforward,
    # and has one column beyond its rank for each dimension in which the
    # fiber meets ker F (+) 0; theorem 1's kernel-clean reads that count
    push, pull = transport_cases(context(group))
    meets = 0
    for fiber, fmat in push:
        want = full_pushforward(fiber, fmat)
        assert_same(pushforward_linear(fiber, fmat), want)
        span = pushforward_spanning_set(fiber, fmat)
        assert want.spanned_by(span)
        meet = span.cols - want.dim
        assert meet == meet_with_kernel(fiber, fmat)
        meets += meet > 0
    assert meets
    for fiber, fmat in pull:
        assert_same(pullback_linear(fiber, fmat), full_pullback(fiber, fmat))


def test_the_zero_fiber_transports_to_the_kernels():
    ctx = context("sl3")
    chart = borel_chart(ctx, *gspoint_stream(ctx, SplitMix64(302), 2)[1])
    dmu = chart.dmu
    h, d = chart.hdim, ctx.dim_g
    pushed = pushforward_linear(zero_fiber(h), dmu)
    # f_* 0 = 0 (+) ker F^T, which is nonzero where d(mu) is not onto
    assert pushed.dim == d - rank(dmu) > 0
    assert pushed.basis.row_block(0, d).is_zero()
    pulled = pullback_linear(zero_fiber(d), dmu)
    assert pulled.dim == h - rank(dmu)
    assert pulled.basis.row_block(h, 2 * h).is_zero()


def test_transports_with_no_null_vectors():
    # a line whose covector is not in the image of F^T pushes forward to 0,
    # and a line meeting the image of F only at 0 pulls back to 0
    line = DiracFiber(Mat.from_columns([[1, 0, 0, 0, 1, 0]], 6))
    cases = [(pushforward_linear, full_pushforward, Mat([[1, 0, 0]])),
             (pullback_linear, full_pullback, Mat([[0], [0], [1]]))]
    for transport, oracle, fmat in cases:
        got = transport(line, fmat)
        assert got.dim == 0
        assert_same(got, oracle(line, fmat))


def test_a_pushforward_runs_two_rrefs(monkeypatch):
    # one on the reduced system, one canonicalizing the result
    ctx = context("sl3")
    chart = borel_chart(ctx, *gspoint_stream(ctx, SplitMix64(303), 4)[3])
    dmu = chart.dmu
    calls = []
    real = linalg.rref

    def spy(m):
        calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(linalg, "rref", spy)
    v, w = chart.ambient, chart.hdim
    pushed = pushforward_linear(chart.graph, chart.proj)
    assert calls[0] == (v, w + v) and len(calls) == 2 and calls[1][1] == 2 * w
    calls.clear()
    pushforward_linear(pushed, dmu)
    assert calls[0] == (w, ctx.dim_g + w) and len(calls) == 2
    calls.clear()
    pullback_linear(pushed, chart.proj)
    assert calls[0] == (w, v + w) and len(calls) == 2 and calls[1][1] == 2 * v


def product_route_pushforward(fiber: DiracFiber, fmat: Mat) -> DiracFiber:
    """The reduced pushforward with the product F top always taken."""
    v, w, k = fiber.d, fmat.rows, fiber.dim
    top = fiber.basis.row_block(0, v)
    null = null_vectors(fmat.transpose().hstack(-fiber.basis.row_block(v, 2 * v)))
    return DiracFiber((fmat @ top @ null.row_block(w, w + k))
                      .vstack(null.row_block(0, w)))


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_a_graph_pushes_forward_without_the_top_product(group, monkeypatch):
    # a chart's graph has basis [I; w^T], so F top is F and the one product
    # is F (null rows); a fiber whose top is not the identity takes two
    ctx = context(group)
    graphs, others = [], []
    for point in gspoint_stream(ctx, SplitMix64(305), 4):
        chart = borel_chart(ctx, *point)
        graphs += [(chart.graph, chart.proj), (chart.graph, upstairs_dphi(chart))]
        others.append((chart.fiber, chart.dmu))
    cases = [(fiber, fmat, product_route_pushforward(fiber, fmat), products)
             for group_cases, products in ((graphs, 1), (others, 2))
             for fiber, fmat in group_cases]
    taken = []
    real = Mat.__matmul__

    def spy(a, b):
        taken.append(b.shape)
        return real(a, b)

    monkeypatch.setattr(Mat, "__matmul__", spy)
    for fiber, fmat, expected, products in cases:
        taken.clear()
        assert_same(pushforward_linear(fiber, fmat), expected)
        assert len(taken) == products


def kernel_route_intersect(a: Subspace, b: Subspace) -> Subspace:
    """a ∩ b from the canonical kernel of [A | B]."""
    null = kernel(a.basis.hstack(b.basis))
    if not null.dim:
        return Subspace.zero(a.ambient_dim)
    return Subspace(a.basis @ null.basis.row_block(0, a.dim))


def random_subspace(rng: SplitMix64, n: int, k: int, gaussian: bool = False) -> Subspace:
    def entry():
        re = rational(rng, 4)
        return QQi(re, rational(rng, 2)) if gaussian else QQi(re)
    return Subspace(Mat([[entry() for _ in range(k)] for _ in range(n)]))


@pytest.mark.parametrize("gaussian", [False, True])
def test_intersect_matches_the_kernel_route(gaussian):
    rng = SplitMix64(304)
    for n in (3, 5) if gaussian else (3, 5, 8):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                a = random_subspace(rng, n, p, gaussian)
                b = random_subspace(rng, n, q, gaussian)
                # and a pair in which one space contains the other
                c = subspace_sum(a, random_subspace(rng, n, q, gaussian))
                for x, y in ((a, b), (a, c), (c, a)):
                    got, want = intersect(x, y), kernel_route_intersect(x, y)
                    assert got.dim == want.dim == x.dim + y.dim - subspace_sum(x, y).dim
                    assert got.basis == want.basis


def test_intersect_at_the_chart_matches_the_kernel_route():
    # regact's meeting of the vertical space with ker omega^flat
    for group in sorted(GROUPS):
        ctx = context(group)
        for point in gspoint_stream(ctx, SplitMix64(305), 4):
            chart = borel_chart(ctx, *point)
            flat = kernel(chart.w.transpose())
            got = intersect(Subspace(chart.vertical), flat)
            assert got.dim == len(ctx.unipotent)
            assert got.basis == kernel_route_intersect(Subspace(chart.vertical),
                                                       flat).basis


@pytest.mark.parametrize("gaussian", [False, True])
def test_null_vectors_span_the_kernel(gaussian):
    rng = SplitMix64(306)
    for rows, cols, r in ((3, 5, 2), (6, 4, 4), (5, 9, 3), (4, 4, 0)):
        # the row space, and so the rref, is that of ``right``
        left = Mat([[QQi(rational(rng, 3)) for _ in range(max(r, 1))]
                    for _ in range(rows)])
        right = Mat([[QQi(rational(rng, 3), rational(rng, 2) if gaussian else 0)
                      for _ in range(cols)] for _ in range(max(r, 1))])
        m = left @ right if r else Mat.zeros(rows, cols)
        null = null_vectors(m)
        # one form: a Gaussian numerator exactly where the vectors are non-real
        assert any(type(a) is ZZi for v, _ in null._ints for a in v) == \
            (gaussian and 0 < r < cols)
        assert null.shape == (cols, cols - rank(m))
        assert (m @ null).is_zero()
        assert rank(null) == null.cols
        assert Subspace(null).basis == kernel(m).basis


PARTS = ("g", "b", "u")


@pytest.mark.parametrize("conv", ["frozen"] + sorted(CORRUPTIONS))
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_graph_two_form_stores_the_canonical_basis(group, conv):
    ctx = context(group)
    rng = SplitMix64(307)
    with using(FROZEN if conv == "frozen" else CORRUPTIONS[conv]):
        for part in PARTS:
            b = random_point(ctx, "G" if part == "g" else "B", rng)
            w = omega_matrix(ctx, ctx.gram_adjoint(b), range(ctx.dim_g))
            fib = graph_two_form(leading(w, Space(ctx, ("g", part)).dim))
            assert fib.basis == Subspace(fib.basis).basis, part
