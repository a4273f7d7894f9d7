"""The closed-form adjoint and the builders derived from it, each against the
per-basis route it replaced.

* :meth:`GroupContext.adjoint` against ``coords(m e_k m^-1)`` for every basis
  element, on every group, for Ad_m and Ad_{m^-1}, and on non-real sl2,
  sl3 and gl3 elements (Gaussian-integer rows);
  :meth:`GroupContext.gram_adjoint` against the product ``gram @ adjoint``,
  the same way.
* ``phi_differential``, ``cartan_dirac``, ``action_generators`` and
  ``chart_transport`` against their per-basis columns, written out here;
  on G x B and G x U, the leading blocks of the double's matrices
  (``borel_oracle.leading``).
* The batched A1 check, ``moment_condition_holds``, against the per-generator
  ``moment_condition_check``, under the frozen conventions and each
  corruption, and on a perturbed omega matrix.
* The lemma-kernel suite's one pairing matrix against sigma and x^R built one
  basis element at a time.
"""

import pytest

from qpslab import campaigns
from qpslab.conventions import CORRUPTIONS, FROZEN, using
from qpslab.dirac import DiracFiber, cartan_dirac
from qpslab.gspringer import (FORCED_STRATA, QuotientChart, action_generators,
                              borel_reduction, chart_transport,
                              gspoint_stream, moment_condition_check,
                              moment_condition_holds, omega_matrix,
                              phi_differential, sample_double, sample_gspoint)
from qpslab.liegroup import (GROUPS, GroupElement, conj_field, context, random_algebra, random_point, read_element,
                             sigma)
from qpslab.linalg import Mat, Subspace, mat_vec
from qpslab.prng import SplitMix64
from qpslab.scalars import QQi

from borel_oracle import leading

# the frozen conventions and each corruption, by their --corrupt names
BY_NAME = {"frozen": FROZEN, **CORRUPTIONS}
KINDS = ("G", "B", "T", "U")


def per_basis_adjoint(ctx, m, minv):
    """Ad_m column by column: the coordinates of m e_k m^-1."""
    return Mat.from_columns([ctx.coords(m @ bk @ minv) for bk in ctx.basis],
                            ctx.dim_g)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_adjoint_matches_the_per_basis_oracle(group):
    ctx = context(group)
    rng = SplitMix64(201)
    for kind in KINDS:
        g = random_point(ctx, kind, rng)
        assert ctx.adjoint(g.m, g.inv) == per_basis_adjoint(ctx, g.m, g.inv), kind
        assert ctx.adjoint(g.inv, g.m) == per_basis_adjoint(ctx, g.inv, g.m), kind
    eye = Mat.identity(ctx.n)
    assert ctx.adjoint(eye, eye) == Mat.identity(ctx.dim_g)


I = QQi(0, 1)
# non-real elements: on sl2 every coordinate reader is one entry; on sl3 the
# torus coordinate readers are partial sums and the functional ones
# differences; gl3 has the GL torus
NON_REAL = (
    ("sl2", [[I, 0], [0, -I]]),                       # a torus element of order four
    ("sl2", [[1, I], [0, 1]]),                        # a non-real unipotent element
    ("sl2", [[1 + I, I], [1, 1]]),                    # a generic one
    ("sl3", [[I, 0, 0], [0, -I, 0], [0, 0, 1]]),
    ("sl3", [[1, I, 0], [0, 1, I], [0, 0, 1]]),
    ("sl3", [[1 + I, I, 0], [1, 1, 0], [I, 2, 1]]),
    ("gl3", [[I, 0, 0], [0, -I, 0], [0, 0, 1]]),
    ("gl3", [[1, I, 0], [0, 1, I], [0, 0, 1]]),
    ("gl3", [[1 + I, I, 3], [1, 1, 0], [I, 2, 2]]),
)


def test_adjoint_on_non_real_sl2_elements():
    """The closed form on the non-real sl2, sl3 and gl3 elements."""
    non_real = False
    for group, rows in NON_REAL:
        ctx = context(group)
        g = GroupElement(ctx, Mat(rows))
        for m, minv in ((g.m, g.inv), (g.inv, g.m)):
            got = ctx.adjoint(m, minv)
            assert got == per_basis_adjoint(ctx, m, minv), rows
            non_real |= any(x.im for r in got.data for x in r)
    assert non_real  # the Gaussian-integer rows gave non-real entries


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_gram_adjoint_matches_the_product_route(group):
    ctx = context(group)
    rng = SplitMix64(202)
    for kind in KINDS:
        g = random_point(ctx, kind, rng)
        for m, minv in ((g.m, g.inv), (g.inv, g.m)):
            assert ctx.gram_adjoint(m, minv) == ctx.gram @ ctx.adjoint(m, minv), kind
    eye = Mat.identity(ctx.n)
    assert ctx.gram_adjoint(eye, eye) == ctx.gram


def test_gram_adjoint_on_non_real_sl2_elements():
    """The closed form on the non-real sl2, sl3 and gl3 elements."""
    non_real = False
    # diag(i, -i) has a real adjoint, taken from Gaussian-integer rows all the same
    for group, rows in NON_REAL:
        ctx = context(group)
        g = GroupElement(ctx, Mat(rows))
        for m, minv in ((g.m, g.inv), (g.inv, g.m)):
            got = ctx.gram_adjoint(m, minv)
            assert got == ctx.gram @ ctx.adjoint(m, minv), rows
            non_real |= any(x.im for r in got.data for x in r)
    assert non_real


def per_basis_phi_differential(ctx, amat, bmat, sub):
    d = ctx.dim_g
    k = len(sub)
    ainv, binv = amat.inverse(), bmat.inverse()
    cols = [ctx.coords(amat @ (binv @ x @ bmat - x) @ ainv) + [QQi(0)] * k
            for x in ctx.basis]
    for i in sub:
        y = ctx.basis[i]
        down = ctx.coords(-(bmat @ y @ binv))
        cols.append(ctx.coords(amat @ y @ ainv) + [down[j] for j in sub])
    return Mat.from_columns(cols, d + k)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_phi_differential_matches_the_per_basis_columns(group):
    ctx = context(group)
    rng = SplitMix64(202)
    for sub, kind in ((range(ctx.dim_g), "G"), (ctx.borel, "B")):
        a, b = random_point(ctx, "G", rng), random_point(ctx, kind, rng)
        want = per_basis_phi_differential(ctx, a.m, b.m, sub)
        got = leading(phi_differential(a, b), ctx.dim_g + len(sub))
        assert got == want, kind


def _a1_both_routes(ctx, a, b, w=None):
    if w is None:
        w = omega_matrix(ctx, ctx.gram_adjoint(b.m, b.inv))
    dphi = phi_differential(a, b)
    zero = Mat.zeros(ctx.n, ctx.n)
    generators = [(x, zero) for x in ctx.basis] + [(zero, x) for x in ctx.basis]
    return (moment_condition_holds(a, b, w, dphi),
            moment_condition_check(a, b, w, dphi, generators))


@pytest.mark.parametrize("conv", sorted(BY_NAME))
@pytest.mark.parametrize("group", ["sl2", "gl2", "sl3"])
def test_batched_a1_gives_the_per_generator_verdict(group, conv):
    ctx = context(group)
    rng = SplitMix64(203)
    with using(BY_NAME[conv]):
        verdicts = []
        for _ in range(3):
            batched, per_generator = _a1_both_routes(ctx, *sample_double(ctx, rng))
            assert batched == per_generator
            verdicts.append(batched)
    # A1 depends on sigma and on the sign of omega, not on the Dorfman twist
    assert all(verdicts) == (conv in ("frozen", "dorfman-eta")), verdicts


@pytest.mark.parametrize("group", ["sl2", "gl2", "sl3"])
def test_batched_a1_sees_a_defect_in_every_block_of_omega(group):
    ctx = context(group)
    a, b = sample_double(ctx, SplitMix64(204))
    w = omega_matrix(ctx, ctx.gram_adjoint(b.m, b.inv))
    assert _a1_both_routes(ctx, a, b, w) == (True, True)
    d = ctx.dim_g
    for r0 in (0, d):
        for c0 in (0, d):
            bad = [list(r) for r in w.data]
            bad[r0 + 1][c0] = bad[r0 + 1][c0] + QQi(1)
            assert _a1_both_routes(ctx, a, b, Mat(bad)) == (False, False), (r0, c0)


def per_basis_cartan_dirac(g):
    ctx = g.ctx
    cols = []
    for xi in ctx.basis:
        cols.append(ctx.coords(conj_field(g, xi)) + ctx.dual_coords(sigma(g, xi)))
    return DiracFiber(2 * ctx.dim_g, Mat.from_columns(cols, 2 * ctx.dim_g))


@pytest.mark.parametrize("conv", ["frozen", "sigma-half", "sigma-ad-flip"])
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_cartan_dirac_spans_the_per_basis_fiber(group, conv):
    ctx = context(group)
    rng = SplitMix64(205)
    with using(BY_NAME[conv]):
        for kind in KINDS:
            g = random_point(ctx, kind, rng)
            got, want = cartan_dirac(g), per_basis_cartan_dirac(g)
            assert got.equals(want), kind
            assert got.basis == want.basis, kind  # the same canonical basis


def per_basis_b_action_directions(b, sub):
    ctx = b.ctx
    cols = []
    for k in sub:
        xi = ctx.basis[k]
        moved = ctx.coords(b.inv @ xi @ b.m - xi)
        cols.append(ctx.coords(-xi) + [moved[i] for i in ctx.borel])
    return Subspace.from_vectors(cols, ctx.dim_g + len(ctx.borel))


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_b_action_directions_span_the_per_basis_generators(group):
    # the closed-form basis is canonical as built: it equals the rref'd span
    # of the generators entry for entry, at random B, T and U points and at
    # the degenerate strata of the quotient stream and a generic point
    ctx = context(group)
    rng = SplitMix64(206)
    stream = gspoint_stream(ctx, SplitMix64(74), len(FORCED_STRATA) + 1)
    points = [(kind, random_point(ctx, kind, rng)) for kind in ("B", "T", "U")]
    points += [(f"stream {i}", pt.b) for i, pt in enumerate(stream)]
    amb = ctx.dim_g + len(ctx.borel)
    for kind, b in points:
        for part, sub in (("b", ctx.borel), ("u", ctx.unipotent)):
            block = leading(action_generators(b), amb, len(sub))
            got = Subspace(amb, block)
            want = per_basis_b_action_directions(b, sub)
            assert got.dim == len(sub)
            assert got.equals(want), (kind, part)
            assert got.basis == want.basis, (kind, part)


def per_basis_chart_transport(chart1, chart2, h):
    ctx = chart1.ctx
    cols = []
    for j in range(chart1.hdim):
        upvec = chart1.inc.col(j)
        xmat = ctx.mat_from_coords(upvec[: ctx.dim_g])
        ycoords = [QQi(0)] * ctx.dim_g
        for i, c in zip(ctx.borel, upvec[ctx.dim_g:], strict=True):
            ycoords[i] = c
        ymoved = ctx.coords(h.m @ ctx.mat_from_coords(ycoords) @ h.inv)
        moved = ctx.coords(h.m @ xmat @ h.inv) + [ymoved[i] for i in ctx.borel]
        cols.append(mat_vec(chart2.proj, moved))
    return Mat.from_columns(cols, chart2.hdim)


@pytest.mark.parametrize("group", ["sl2", "gl2", "sl3", "gl3"])
def test_chart_transport_matches_the_per_basis_columns(group):
    ctx = context(group)
    rng = SplitMix64(207)
    for stratum in ("random", "springer", "identity-b"):
        pt = sample_gspoint(ctx, rng, stratum)
        h = random_point(ctx, "B", rng)
        red = borel_reduction(pt)
        c1, c2 = QuotientChart(red), QuotientChart(red.translate(h))
        assert chart_transport(c1, c2, h) == per_basis_chart_transport(c1, c2, h)


def per_basis_lemma_kernel(cfg, payload):
    """The lemma-kernel check with sigma and x^R built one xi and one e_k at
    a time; the same rng draws as the suite."""
    ctx = context(cfg.group)
    rng = SplitMix64(payload["salt"])
    b = read_element(ctx, payload["b"])
    xis = [(ctx.basis_labels[k], ctx.basis[k]) for k in ctx.borel]
    xis += [("mixed", random_algebra(ctx, rng, indices=ctx.borel)) for _ in range(3)]
    for label, ximat in xis:
        sig = sigma(b, ximat)
        annihilates = not any(ctx.form(sig, b.inv @ ctx.basis[k] @ b.m)
                              for k in ctx.borel)
        coords = ctx.coords(ximat)
        expected = all(not coords[k] for k in ctx.torus)
        if annihilates != expected:
            return (False, {"xi": label, "annihilates": annihilates,
                            "torus_free": expected})
    return (True, None)


@pytest.mark.parametrize("conv", ["frozen", "sigma-half", "sigma-ad-flip"])
@pytest.mark.parametrize("group", ["sl2", "gl2", "sl3", "gl3"])
def test_lemma_kernel_matches_the_per_basis_pairing(group, conv):
    cfg = campaigns.CampaignConfig(suite="lemma-kernel", group=group, samples=4,
                                   seed=208)
    gen, check = campaigns.SUITES["lemma-kernel"]
    verdicts = []
    with using(BY_NAME[conv]):
        for payload in gen(cfg):
            (rec,) = check(cfg, *campaigns.decode_point(cfg, payload))
            want = per_basis_lemma_kernel(cfg, payload)
            assert (rec["passed"], rec.get("witness")) == want
            verdicts.append(rec["passed"])
    # only flipping the sign of Ad in sigma moves the annihilator
    assert all(verdicts) == (conv != "sigma-ad-flip"), verdicts
