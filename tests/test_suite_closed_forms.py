"""The suites' closed forms against the routes they replaced.

The double's A3 ranks w's two off-diagonal blocks where its lower-right
block is zero and w whole elsewhere, and only where w is degenerate the
stack [w^T; dphi], with its kernel witness built only on failure.  Its A4
compares one block of the pulled-back form per draw, with the draws and
verdicts of the four-block pullback, and a wrong adjoint fails both.
cartan-dirac's leaf dimension compares two ranks, one of them from the
group's closed-form commutator matrix, so a wrong adjoint fails it.  The
Dorfman closure rows, read off n x n brackets, equal those of the d x d
matrices R(v) of the structure constants that they replaced,
and a transposed adjoint fails them on SL.  That no suite runs the
dual-number oracles is checked where they live: no product module imports
:mod:`qpslab.diffcalc` (``test_kernel_layout``), and a fresh ``verify`` of
every suite leaves it unloaded (``test_cold_start``).
"""

import pytest

from qpslab import campaigns, dirac
from qpslab.campaigns import (CampaignConfig, _a3_nondegenerate,
                              _check_cartan_dirac, run_suite)
from qpslab.conventions import ACTIVE, CORRUPTIONS, FROZEN, using
from qpslab.dirac import cartan_dirac
from qpslab.gspringer import omega_matrix, phi_differential, sample_double
from qpslab.liegroup import (GROUPS, GroupContext, bracket,
                             conjugation_sections, context, random_algebra,
                             random_point, sigma_average)
from qpslab.linalg import Mat, intersect, kernel, mat_vec, rank
from qpslab.prng import SplitMix64
from qpslab.scalars import QQi

from test_dirac import calibration_grid


def kernel_route(w, dphi):
    """A3 as it was decided before: the kernels of w^T and dphi, intersected."""
    ko, kphi = kernel(w.transpose()), kernel(dphi)
    if intersect(ko, kphi).dim == 0:
        return True, None
    return False, {"ker_omega": ko.dim, "ker_dphi": kphi.dim}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_a3_rank_matches_the_kernel_route_on_real_points(name):
    ctx = context(name)
    rng = SplitMix64(53)
    eye = Mat.identity(ctx.n)
    points = [(eye, eye)] + [sample_double(ctx, rng) for _ in range(2)]
    for conv in (FROZEN, CORRUPTIONS["omega-sign"]):
        with using(conv):
            for a, b in points:
                w = omega_matrix(ctx, ctx.gram_adjoint(b, b.inverse()))
                dphi = phi_differential(ctx, a, b)
                assert _a3_nondegenerate(w, dphi) == kernel_route(w, dphi)


def test_a3_rank_matches_the_kernel_route_on_hand_built_pairs():
    # w is not skew, so w and w^T have different kernels: ker w^T is e_0
    w = Mat([[0, 0, 0, 0], [1, 2, 0, 1], [3, 0, 1, 1], [0, 1, 1, 2]])
    meets = Mat([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 1, 1]])
    misses = Mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 1, 1]])
    assert _a3_nondegenerate(w, meets) == kernel_route(w, meets) == (
        False, {"ker_omega": 1, "ker_dphi": 1})
    assert _a3_nondegenerate(w, misses) == kernel_route(w, misses) == (True, None)


# b = t u with t of a repeated (gl2, sl3) or sign-split (gl3) diagonal:
# there w is degenerate, of the rank given, so A3 ranks the stack
DEGENERATE_T = {"gl2": ((1, -1), 4), "gl3": ((1, -1, 5), 14),
                "sl3": ((1, -1, -1), 12)}


@pytest.mark.parametrize("name", sorted(DEGENERATE_T))
def test_a3_ranks_the_stack_where_omega_is_degenerate(name):
    ctx = context(name)
    diag, rank_w = DEGENERATE_T[name]
    rng = SplitMix64(54)
    a = random_point(ctx, "G", rng)
    u = random_point(ctx, "U", rng)
    b = u.scale_rows([(x, 1) for x in diag])
    w = omega_matrix(ctx, ctx.gram_adjoint(b, b.inverse()))
    assert rank(w) == rank_w < w.rows
    dphi = phi_differential(ctx, a, b)
    assert _a3_nondegenerate(w, dphi) == kernel_route(w, dphi) == (True, None)
    # with dphi zero the kernels meet in ker w^T, and the witness is the
    # kernel route's
    zero = Mat.zeros(dphi.rows, dphi.cols)
    assert _a3_nondegenerate(w, zero) == kernel_route(w, zero) == (
        False, {"ker_omega": w.rows - rank_w, "ker_dphi": dphi.cols})


def block_form(rng, d, singular):
    """[[X, Y], [Z, 0]] with integer d x d blocks drawn from ``rng``; the
    block named by ``singular`` ("Y" or "Z") has its last row the sum of
    the others, and with ``singular`` None every block is redrawn until
    invertible."""
    def block(sing):
        while True:
            rows = [[rng.below(7) - 3 for _ in range(d)] for _ in range(d)]
            if sing:
                rows[-1] = [sum(c) for c in zip(*rows[:-1])]
            if sing or singular or rank(Mat(rows)) == d:
                return rows
    x, y, z = block(False), block(singular == "Y"), block(singular == "Z")
    return Mat([p + q for p, q in zip(x, y)] + [r + [0] * d for r in z]), y, z


@pytest.mark.parametrize("singular", ("Y", "Z", None))
def test_a3_block_route_matches_the_whole_rank(singular):
    # with the lower-right block zero, w has full rank exactly when both
    # off-diagonal blocks do; a singular one makes A3 rank the stack
    rng = SplitMix64(55)
    for d in (2, 3, 4):
        for _ in range(3):
            w, y, z = block_form(rng, d, singular)
            assert (rank(Mat(y)) == d == rank(Mat(z))) is (singular is None)
            assert campaigns._nondegenerate(w) is (rank(w) == w.rows)
            dphi = Mat([[rng.below(5) - 2 for _ in range(2 * d)] for _ in range(d)])
            for phi in (dphi, Mat.zeros(d, 2 * d)):
                assert _a3_nondegenerate(w, phi) == kernel_route(w, phi)


def test_a3_ranks_w_whole_off_the_block_form():
    # both off-diagonal blocks invertible, yet w is singular: its non-zero
    # lower-right block sends it to the whole rank, and so does an odd size
    for w in (Mat([[1, 1], [1, 1]]), Mat([[1, 2, 0, 1], [0, 1, 3, 0],
                                          [1, 3, 3, 1], [0, 1, 1, 1]])):
        assert not campaigns._nondegenerate(w)
        zero = Mat.zeros(1, w.cols)
        assert _a3_nondegenerate(w, zero) == kernel_route(w, zero) == (
            False, {"ker_omega": 1, "ker_dphi": w.cols})
    assert campaigns._nondegenerate(Mat.identity(3))


@pytest.mark.parametrize("name", ("sl2", "sl3"))
def test_a3_ranks_no_whole_omega_at_sampled_points(name, monkeypatch):
    # every sampled omega is nondegenerate, so A3 ranks only its two d x d
    # off-diagonal blocks and never the 2d x 2d form or the stack
    shapes = []

    def recording(m):
        shapes.append(m.shape)
        return rank(m)

    monkeypatch.setattr(campaigns, "rank", recording)
    rep = run_suite(CampaignConfig(suite="double", group=name, samples=4, seed=11))
    assert all(r["passed"] for r in rep.checks)
    d = context(name).dim_g
    assert shapes == [(d, d)] * 8


def four_block_route(ctx, b, w, rng, count):
    """A4 as it was decided before: per draw, the whole form at g2 b g2^-1,
    all four d x d blocks pulled back along Ad (+) Ad and compared with w's."""
    d = ctx.dim_g

    def blocks(m):
        return [m.row_block(r, r + d).col_block(c, c + d)
                for r in (0, d) for c in (0, d)]

    want = blocks(w)
    for _ in range(count):
        g2 = random_point(ctx, "G", rng)
        w2 = omega_matrix(ctx, ctx.gram_adjoint(g2 @ b @ g2.inverse(),
                                                g2 @ b.inverse() @ g2.inverse()))
        ad2 = ctx.adjoint(g2, g2.inverse())
        adt = ad2.transpose()
        if any(adt @ m2 @ ad2 != m for m2, m in zip(blocks(w2), want)):
            return False
    return True


@pytest.mark.parametrize("name", ("sl2", "gl2", "sl3", "gl3"))
def test_a4_one_block_matches_the_four_block_route(name):
    ctx = context(name)
    rng = SplitMix64(61)
    d = ctx.dim_g
    for conv in (FROZEN, CORRUPTIONS["omega-sign"]):
        with using(conv):
            for k in range(5):
                _, b = sample_double(ctx, rng)
                t = ctx.gram_adjoint(b, b.inverse())
                w = omega_matrix(ctx, t)
                # of the block shape, but with a (1,2) block that is not
                # invariant: both routes fail at the first draw
                moved = omega_matrix(ctx, t + Mat.identity(d))
                for form, verdict in ((w, True), (moved, False)):
                    new, old = SplitMix64(k), SplitMix64(k)
                    assert campaigns._a4_sample(ctx, b, form, new) is verdict
                    assert four_block_route(ctx, b, form, old, 10) is verdict
                    assert new.state == old.state
                # not of the block shape: the one-block route fails before it
                # draws, so only the verdicts agree
                bad = [list(r) for r in w.data]
                bad[d][d + 1] = bad[d][d + 1] + QQi(1)
                assert not campaigns._a4_sample(ctx, b, Mat(bad), SplitMix64(k))
                assert not four_block_route(ctx, b, Mat(bad), SplitMix64(k), 10)


@pytest.mark.parametrize("name", ("sl2", "gl2", "sl3", "gl3"))
def test_a4_fails_under_a_transposed_adjoint(name, monkeypatch):
    # with Ad_g replaced by its transpose the form built from it is not
    # invariant under the action, and the sampled draws see that
    ctx = context(name)
    _, b = sample_double(ctx, SplitMix64(62))
    adjoint = GroupContext.adjoint
    monkeypatch.setattr(GroupContext, "adjoint",
                        lambda self, m, minv: adjoint(self, m, minv).transpose())
    # T = G Ad_b has its own closed form; route it through the wrong adjoint
    monkeypatch.setattr(GroupContext, "gram_adjoint",
                        lambda self, m, minv: self.gram @ self.adjoint(m, minv))
    w = omega_matrix(ctx, ctx.gram_adjoint(b, b.inverse()))
    assert not campaigns._a4_sample(ctx, b, w, SplitMix64(63))
    assert not four_block_route(ctx, b, w, SplitMix64(63), 10)


@pytest.mark.parametrize("name", ("sl2", "gl2", "sl3", "gl3"))
def test_leaf_dimension_ranks_match_the_subspace_route(name):
    ctx = context(name)
    rng = SplitMix64(59)
    d = ctx.dim_g
    points = [Mat.identity(ctx.n)] + [
        random_point(ctx, kind, rng) for kind in ("T", "U", "G")]
    for g in points:
        recs = _check_cartan_dirac(ctx, {"g": g}, SplitMix64(7))
        leaf = next(r for r in recs if r["check_id"] == "cartan-dirac/leaf-dimension")
        proj = cartan_dirac(conjugation_sections(ctx, g, g.inverse())).tangent_part().dim
        cent = kernel(ctx.adjoint(g, g.inverse()) - Mat.identity(d)).dim
        assert leaf == {"check_id": "cartan-dirac/leaf-dimension",
                        "passed": proj == d - cent}
        assert leaf["passed"]


def structure_constants(ctx):
    """coords([e_l, e_m]) as row ``l d + m``."""
    return Mat([ctx.coords(bracket(x, y)) for x in ctx.basis for y in ctx.basis])


def r_matrices(ctx, vectors):
    """R(v), the matrix of a -> coords([a, v]), for each column v of
    ``vectors``: column l is sum_m v_m coords([e_l, e_m])."""
    d = ctx.dim_g
    sc = structure_constants(ctx)
    blocks = [sc.row_block(l * d, l * d + d).transpose() for l in range(d)]
    return [Mat.from_columns([mat_vec(b, vectors.col(i)) for b in blocks], d)
            for i in range(vectors.cols)]


def section_rows(ctx, m, x, a, coef=None):
    """M^T, X^T, A^T, (A + c gram X)^T and (gram X)^T, c = eta_coeff * twist,
    each contracted with ``coef`` first when it is given."""
    conv = ACTIVE.get()
    gx = ctx.gram @ x
    mats = (m, x, a, a + gx.scale(conv.eta_coeff * conv.twist), gx)
    if coef is not None:
        mats = (p @ coef for p in mats)
    return tuple(p.transpose() for p in mats)


def closure_terms(ctx, rx, rm, rows):
    """Row j of the first result: the terms of the pair (i, j) that the
    derivatives of section i contribute, rx and rm being R(x_i) and R(M_i);
    row j of the second: those of the pair (j, i)."""
    d, gram = ctx.dim_g, ctx.gram
    mt, xt, at, act, gxt = rows
    rxt = rx.transpose()
    dmt = mt @ rxt  # row j: how M_j moves along x_i
    dt, da = -dmt, sigma_average(Mat.zeros(dmt.rows, d), dmt) @ gram
    # column m: how M_i moves along e_m, R(e_m) M_i = -R(M_i) e_m
    dte, dse = rm, sigma_average(Mat.zeros(d, d), -rm)
    brx, bre = -(xt @ rxt), -rx  # row j: [x_i, x_j]; column m: [x_i, e_m]
    blk = (dt + brx).hstack(da + at @ (dte - bre) + gxt @ dse)
    sw = (-dt).hstack(act @ bre - da)
    return blk, sw


def r_matrix_route(ctx, gmat, ginv):
    """Both sides of the full-basis closure as the d x d matrices R(v) of
    the structure constants built them before the n x n brackets: block i
    of the rows is a product with R(x_i) or R(M_i), and the terms read at
    the pair (j, i) are moved to row i d + j."""
    d = ctx.dim_g
    m, x, a = conjugation_sections(ctx, gmat, ginv)
    rows = section_rows(ctx, m, x, a)
    own, swapped = [], []
    for rx, rm in zip(r_matrices(ctx, x), r_matrices(ctx, m)):
        blk, sw = closure_terms(ctx, rx, rm, rows)
        own.append(blk)
        swapped.append(sw)
    lhs = Mat([r for blk in own for r in blk.data])
    moved = Mat([swapped[j].data[i] for i in range(d) for j in range(d)])
    return lhs + moved, structure_constants(ctx) @ rows[1].hstack(rows[2])


def r_matrix_pair_route(ctx, sections, xi, ze):
    """The one-pair closure rows of the R(v) route: zeta^T blk(xi) +
    xi^T sw(zeta), and the section of [xi, zeta]."""
    d = ctx.dim_g
    m, x, a = sections
    coef = Mat.from_columns([ctx.coords(xi), ctx.coords(ze)], d)
    rows = section_rows(ctx, m, x, a, coef)
    rx_xi, rx_ze, rm_xi, rm_ze = r_matrices(ctx, (x @ coef).hstack(m @ coef))
    blk, _ = closure_terms(ctx, rx_xi, rm_xi, [r.row_block(1, 2) for r in rows])
    _, sw = closure_terms(ctx, rx_ze, rm_ze, [r.row_block(0, 1) for r in rows])
    c = Mat.from_columns([ctx.coords(bracket(xi, ze))], d)
    return blk + sw, (x @ c).transpose().hstack((a @ c).transpose())


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_closure_rows_match_the_r_matrix_route(name, monkeypatch):
    ctx = context(name)
    rng = SplitMix64(64)
    g = random_point(ctx, "G", rng)
    xi, ze = random_algebra(ctx, rng), random_algebra(ctx, rng)
    for conv in [FROZEN, *CORRUPTIONS.values(), *calibration_grid()]:
        with using(conv):
            sections = conjugation_sections(ctx, g, g.inverse())
            assert dirac._closure_sides(ctx, g, g.inverse()) == \
                r_matrix_route(ctx, g, g.inverse()), conv
            assert dirac._pair_sides(ctx, sections, xi, ze) == \
                r_matrix_pair_route(ctx, sections, xi, ze), conv
    # the routes agree on a wrong adjoint too, so they fail alike
    adjoint = GroupContext.adjoint
    monkeypatch.setattr(GroupContext, "adjoint",
                        lambda self, m, minv: adjoint(self, m, minv).transpose())
    sections = conjugation_sections(ctx, g, g.inverse())
    assert dirac._closure_sides(ctx, g, g.inverse()) == \
        r_matrix_route(ctx, g, g.inverse())
    assert dirac._pair_sides(ctx, sections, xi, ze) == \
        r_matrix_pair_route(ctx, sections, xi, ze)


def test_closure_rows_match_the_r_matrix_route_off_the_reals():
    ctx = context("sl2")
    i = QQi(0, 1)
    g = Mat([[1 + i, i], [1, 1]])
    xi, ze = ctx.basis[0], Mat([[i, 1], [2, -i]])
    sections = conjugation_sections(ctx, g, g.inverse())
    assert any(x.im for r in sections[0].data for x in r)
    assert dirac._closure_sides(ctx, g, g.inverse()) == \
        r_matrix_route(ctx, g, g.inverse())
    assert dirac._pair_sides(ctx, sections, xi, ze) == \
        r_matrix_pair_route(ctx, sections, xi, ze)
    assert dirac.cartan_closure_check(ctx, g, g.inverse()) == (True, None)
    assert dirac.closure_sample(ctx, sections, xi, ze)


@pytest.mark.parametrize("name", ("sl2", "sl3"))
def test_closure_fails_under_a_transposed_adjoint(name, monkeypatch):
    # on SL the transpose of Ad_{g^-1} in the basis (E_ij, H_k) is no
    # automorphism of the algebra, and every point sees that
    adjoint = GroupContext.adjoint
    monkeypatch.setattr(GroupContext, "adjoint",
                        lambda self, m, minv: adjoint(self, m, minv).transpose())
    for suite, check in (("dorfman-closure", "dorfman-closure/basis-pairs"),
                         ("cartan-dirac", "cartan-dirac/closure-sample")):
        rep = run_suite(CampaignConfig(suite=suite, group=name, samples=4, seed=11))
        verdicts = [r["passed"] for r in rep.checks if r["check_id"] == check]
        assert verdicts == [False] * 4, suite


def commutator_product_route(ctx, m):
    """The n^2 x d matrix with column k = vec(m e_k - e_k m), from the 2d
    products, as cartan-dirac built it before the closed form."""
    comm = [m @ e - e @ m for e in ctx.basis]
    return Mat([[c.entry(i, j) for c in comm]
                for i in range(ctx.n) for j in range(ctx.n)])


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_commutator_matrix_matches_the_product_route(name):
    ctx = context(name)
    rng = SplitMix64(60)
    n = ctx.n
    # a non-real matrix, with Gaussian-integer numerators
    nonreal = Mat([[QQi(i - j, i * j + 1) for j in range(n)] for i in range(n)])
    mats = [Mat.identity(n), nonreal] + [
        random_point(ctx, kind, rng) for kind in ("T", "U", "B", "G", "G")]
    for m in mats:
        assert ctx.commutator_matrix(m) == commutator_product_route(ctx, m)


@pytest.mark.parametrize("name", ("sl2", "gl2", "sl3", "gl3"))
def test_leaf_dimension_fails_under_a_wrong_adjoint(name, monkeypatch):
    # with Ad the identity the tangent part vanishes, while the centralizer,
    # computed in the group, is that of a generic point
    ctx = context(name)
    g = random_point(ctx, "G", SplitMix64(59))
    monkeypatch.setattr(GroupContext, "adjoint",
                        lambda self, m, minv: Mat.identity(self.dim_g))
    recs = _check_cartan_dirac(ctx, {"g": g}, SplitMix64(7))
    leaf = next(r for r in recs if r["check_id"] == "cartan-dirac/leaf-dimension")
    assert leaf == {"check_id": "cartan-dirac/leaf-dimension", "passed": False,
                    "witness": {"proj": 0, "centralizer": ctx.rank}}
