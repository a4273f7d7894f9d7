"""The suites' closed forms against the routes they replaced.

The double's A3 is one rank of [w^T; dphi], with its kernel witness built
only on failure; its A4 compares one block of the pulled-back form per draw,
with the draws and verdicts of the four-block pullback, and a wrong adjoint
fails both; cartan-dirac's leaf dimension compares two ranks, one of
them from the group's closed-form commutator matrix, so a wrong adjoint
fails it; and no suite runs the dual-number engine or the per-element
sections, which stay in ``src`` as the oracles of the closed forms.
"""

from collections import Counter

import pytest

from qpslab import campaigns, dirac, gspringer
from qpslab.campaigns import (SUITE_NAMES, CampaignConfig, _a3_nondegenerate,
                              _check_cartan_dirac, decode_point, run_suite)
from qpslab.conventions import CORRUPTIONS, FROZEN, using
from qpslab.diffcalc import DualMat, Space
from qpslab.dirac import cartan_dirac, cartan_eta3, cartan_section, dorfman
from qpslab.gspringer import (gram_ad, omega_matrix, phi_differential,
                              sample_double)
from qpslab.liegroup import GROUPS, GroupElement, context, random_point
from qpslab.linalg import Mat, intersect, kernel
from qpslab.matio import mat_to_json
from qpslab.prng import SplitMix64
from qpslab.scalars import QQi


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
    eye = GroupElement(ctx, Mat.identity(ctx.n))
    points = [(eye, eye)] + [sample_double(ctx, rng) for _ in range(2)]
    for conv in (FROZEN, CORRUPTIONS["omega-sign"]):
        with using(conv):
            for a, b in points:
                w = omega_matrix(ctx, gram_ad(ctx, b.m, b.inv))
                dphi = phi_differential(a, b)
                assert _a3_nondegenerate(w, dphi) == kernel_route(w, dphi)


def test_a3_rank_matches_the_kernel_route_on_hand_built_pairs():
    # w is not skew, so w and w^T have different kernels: ker w^T is e_0
    w = Mat([[0, 0, 0, 0], [1, 2, 0, 1], [3, 0, 1, 1], [0, 1, 1, 2]])
    meets = Mat([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 1, 1, 1]])
    misses = Mat([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 1, 1]])
    assert _a3_nondegenerate(w, meets) == kernel_route(w, meets) == (
        False, {"ker_omega": 1, "ker_dphi": 1})
    assert _a3_nondegenerate(w, misses) == kernel_route(w, misses) == (True, None)


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
        w2 = omega_matrix(ctx, gram_ad(ctx, g2.m @ b.m @ g2.inv,
                                       g2.m @ b.inv @ g2.inv))
        ad2 = ctx.adjoint(g2.m, g2.inv)
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
                t = gram_ad(ctx, b.m, b.inv)
                w = omega_matrix(ctx, t)
                # of the block shape, but with a (1,2) block that is not
                # invariant: both routes fail at the first draw
                moved = omega_matrix(ctx, t + Mat.identity(d))
                for form, verdict in ((w, True), (moved, False)):
                    new, old = SplitMix64(k), SplitMix64(k)
                    assert campaigns._a4_sample(ctx, b, form, new, 10) is verdict
                    assert four_block_route(ctx, b, form, old, 10) is verdict
                    assert new.state == old.state
                # not of the block shape: the one-block route fails before it
                # draws, so only the verdicts agree
                bad = [list(r) for r in w.data]
                bad[d][d + 1] = bad[d][d + 1] + QQi(1)
                assert not campaigns._a4_sample(ctx, b, Mat(bad), SplitMix64(k), 10)
                assert not four_block_route(ctx, b, Mat(bad), SplitMix64(k), 10)


@pytest.mark.parametrize("name", ("sl2", "gl2", "sl3", "gl3"))
def test_a4_fails_under_a_transposed_adjoint(name, monkeypatch):
    # with Ad_g replaced by its transpose the form built from it is not
    # invariant under the action, and the sampled draws see that
    ctx = context(name)
    _, b = sample_double(ctx, SplitMix64(62))
    adjoint = ctx.adjoint
    monkeypatch.setattr(ctx, "adjoint",
                        lambda m, minv: adjoint(m, minv).transpose())
    w = omega_matrix(ctx, gram_ad(ctx, b.m, b.inv))
    assert not campaigns._a4_sample(ctx, b, w, SplitMix64(63), 10)
    assert not four_block_route(ctx, b, w, SplitMix64(63), 10)


@pytest.mark.parametrize("name", ("sl2", "gl2", "sl3", "gl3"))
def test_leaf_dimension_ranks_match_the_subspace_route(name):
    ctx = context(name)
    rng = SplitMix64(59)
    d = ctx.dim_g
    points = [GroupElement(ctx, Mat.identity(ctx.n))] + [
        random_point(ctx, kind, rng) for kind in ("T", "U", "G")]
    cfg = CampaignConfig(suite="cartan-dirac", group=name)
    for g in points:
        payload = {"g": mat_to_json(g.m), "salt": 7}
        recs = _check_cartan_dirac(cfg, *decode_point(cfg, payload))
        leaf = next(r for r in recs if r["check_id"] == "cartan-dirac/leaf-dimension")
        proj = cartan_dirac(g).tangent_part().dim
        cent = kernel(ctx.adjoint(g.m, g.inv) - Mat.identity(d)).dim
        assert leaf == {"check_id": "cartan-dirac/leaf-dimension",
                        "passed": proj == d - cent}
        assert leaf["passed"]


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
    # a non-real matrix takes the QQi branch
    nonreal = Mat([[QQi(i - j, i * j + 1) for j in range(n)] for i in range(n)])
    mats = [Mat.identity(n), nonreal] + [
        random_point(ctx, kind, rng).m for kind in ("T", "U", "B", "G", "G")]
    for m in mats:
        assert ctx.commutator_matrix(m) == commutator_product_route(ctx, m)


@pytest.mark.parametrize("name", ("sl2", "gl2", "sl3", "gl3"))
def test_leaf_dimension_fails_under_a_wrong_adjoint(name, monkeypatch):
    # with Ad the identity the tangent part vanishes, while the centralizer,
    # computed in the group, is that of a generic point
    ctx = context(name)
    g = random_point(ctx, "G", SplitMix64(59))
    monkeypatch.setattr(ctx, "adjoint", lambda m, minv: Mat.identity(ctx.dim_g))
    cfg = CampaignConfig(suite="cartan-dirac", group=name)
    payload = {"g": mat_to_json(g.m), "salt": 7}
    recs = _check_cartan_dirac(cfg, *decode_point(cfg, payload))
    leaf = next(r for r in recs if r["check_id"] == "cartan-dirac/leaf-dimension")
    assert leaf == {"check_id": "cartan-dirac/leaf-dimension", "passed": False,
                    "witness": {"proj": 0, "centralizer": ctx.rank}}


def test_no_suite_runs_the_dual_number_oracles(monkeypatch):
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Space, "curve", counting("curve", Space.curve))
    monkeypatch.setattr(DualMat, "__init__", counting("DualMat", DualMat.__init__))
    for name, fn in (("dorfman", dorfman), ("cartan_section", cartan_section)):
        for mod in (dirac, campaigns, gspringer):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name, fn))
    for suite in SUITE_NAMES:
        rep = run_suite(CampaignConfig(suite=suite, group="sl2", samples=3, seed=61))
        assert rep.checks and rep.all_passed, suite
    assert not calls
    # the spies see the oracle route
    ctx = context("sl2")
    G = Space(ctx, ("g",))
    s = dirac.cartan_section(ctx, ctx.basis[0])
    dirac.dorfman(s, s, cartan_eta3(G), G, (random_point(ctx, "G", SplitMix64(1)).m,))
    assert set(calls) == {"curve", "DualMat", "dorfman", "cartan_section"}
