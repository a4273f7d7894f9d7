"""The double, its Borel restriction, the quotient charts, and the theorems."""

import sys
import time
from collections import Counter
from fractions import Fraction

import pytest

from qpslab import campaigns, gspringer, liegroup, linalg
from qpslab.conventions import CORRUPTIONS, FROZEN, using
from qpslab.diffcalc import PointedMap, Space, omega_value, phi_map
from qpslab.dirac import (DiracFiber, cartan_dirac, graph_two_form, is_lagrangian,
                          is_skew, pushforward_linear)
from qpslab.gspringer import (FORCED_STRATA,
                              NotRegularSemisimple, QuotientChart, Reduction,
                              borel_reduction, chart_action_field,
                              chart_transport, gspoint_stream, induced_action,
                              leaf_two_form, moment_condition_check,
                              omega_matrix, phi, phi_differential,
                              point_from_json, point_to_json, quotient_fiber,
                              reconstruct_bivector, regact_check, rho_double,
                              same_class, sample_double, sample_gspoint,
                              steinberg_membership, theorem1_check,
                              theorem2_check, weyl_fiber_enum)
from qpslab.liegroup import (GROUPS, GroupContext, borel_decompose, conjugate,
                             conjugation_sections, context, invariants,
                             random_algebra, random_point, sigma, torus_part,
                             weyl_orders)
from qpslab.linalg import (Mat, Subspace, dot, intersect, kernel, mat_vec,
                           rank)
from qpslab.prng import SplitMix64
from qpslab.scalars import QQi

from borel_oracle import leading

SL2 = context("sl2")
SL3 = context("sl3")
GL2 = context("gl2")
RNG = SplitMix64(61)


def grp(rows):
    return Mat([[QQi(Fraction(x)) for x in r] for r in rows])


def test_phi_examples():
    e = Mat.identity(2)
    b = random_point(SL2, "G", RNG)
    m1, m2 = phi(e, b)
    assert m1 == b and m2 == b.inverse()
    m1, m2 = phi(b, e)
    assert m1 == Mat.identity(2) and m2 == Mat.identity(2)


def test_phi_equivariance():
    rng = SplitMix64(62)
    for _ in range(5):
        a, b = sample_double(SL2, rng)
        g1 = random_point(SL2, "G", rng)
        g2 = random_point(SL2, "G", rng)
        f1, f2 = phi(a, b)
        m1, m2 = phi(g1 @ a @ g2.inverse(), g2 @ b @ g2.inverse())
        assert m1 == g1 @ f1 @ g1.inverse()
        assert m2 == g2 @ f2 @ g2.inverse()


def test_omega_identity_fiber_anchor():
    # the frozen conventions force omega_(e,e)((x1,y1),(x2,y2)) =
    # (x2, y1) - (x1, y2); derived from the moment condition at the identity
    e = Mat.identity(2)
    x1, y1 = random_algebra(SL2, RNG), random_algebra(SL2, RNG)
    x2, y2 = random_algebra(SL2, RNG), random_algebra(SL2, RNG)
    got = omega_value(SL2, e, e, (x1, y1), (x2, y2))
    assert got == SL2.form(x2, y1) - SL2.form(x1, y2)


def omega_at(ctx, b, part):
    """omega's matrix at b on G x ``part``: a leading block of the double's."""
    w = omega_matrix(ctx, ctx.gram_adjoint(b, b.inverse()))
    return leading(w, Space(ctx, ("g", part)).dim)


def test_omega_matrix_against_entrywise_oracle():
    rng = SplitMix64(63)
    for name in sorted(GROUPS):
        ctx = context(name)
        for part, kind in (("g", "G"), ("b", "B")):
            space = Space(ctx, ("g", part))
            a, b = random_point(ctx, "G", rng), random_point(ctx, kind, rng)
            w = omega_at(ctx, b, part)
            assert w.shape == (space.dim, space.dim)
            assert (w + w.transpose()).is_zero()
            mats = [space.matrices(e) for e in space.basis_directions()]
            assert [list(r) for r in w.data] == [
                [omega_value(ctx, a, b, u, v) for v in mats] for u in mats]


def test_omega_double_skew_and_nondegenerate():
    rng = SplitMix64(64)
    for _ in range(5):
        a, b = sample_double(SL2, rng)
        w = omega_at(SL2, b, "g")
        assert is_skew(w)
        ko = kernel(w.transpose())
        kphi = kernel(phi_differential(SL2, a, b))
        assert intersect(ko, kphi).dim == 0


def test_a4_invariance_compares_every_block():
    # the check pulls back omega blockwise along Ad (+) Ad; a defect in any of
    # the four d x d blocks of the reference form must be seen
    _, b = sample_double(SL2, SplitMix64(65))
    w = omega_at(SL2, b, "g")
    assert campaigns._a4_sample(SL2, b, w, SplitMix64(66), count=2)
    d = SL2.dim_g
    for r0 in (0, d):
        for c0 in (0, d):
            bad = [list(r) for r in w.data]
            bad[r0][c0 + 1] = bad[r0][c0 + 1] + QQi(1)
            assert not campaigns._a4_sample(SL2, b, Mat(bad), SplitMix64(66), count=1)


def test_phi_differential_dual_route():
    # the closed form against dual numbers, on the double and on G x B,
    # where the same map (g, b) -> (g b g^-1, b^-1) runs on a Borel factor
    rng = SplitMix64(65)
    for name in GROUPS:
        ctx = context(name)
        a, b = sample_double(ctx, rng)
        closed = phi_differential(ctx, a, b)
        dual = phi_map(ctx).differential_matrix((a, b))
        assert closed == dual, name
        g = random_point(ctx, "G", rng)
        b = random_point(ctx, "B", rng)
        gxb = Space(ctx, ("g", "b"))
        restricted = PointedMap("phi-gxb", gxb, gxb,
                                lambda q: (q[0] @ q[1] @ q[0].inverse(), q[1].inverse()))
        closed = leading(phi_differential(ctx, g, b), gxb.dim)
        assert closed == restricted.differential_matrix((g, b)), name


def test_moment_condition_samples():
    rng = SplitMix64(66)

    def check(a, b, pairs):
        w = omega_at(SL2, b, "g")
        dphi = phi_differential(SL2, a, b)
        return moment_condition_check(SL2, a, b, w, dphi, pairs)

    zero = Mat.zeros(2, 2)
    assert check(*sample_double(SL2, rng), [(zero, zero)])
    for _ in range(5):
        a, b = sample_double(SL2, rng)
        xi1 = random_algebra(SL2, rng)
        xi2 = random_algebra(SL2, rng)
        assert check(a, b, [(xi1, xi2)])


def test_restriction_is_lagrangian_graph():
    # a chart's graph is omega restricted to G x B at the representative
    rng = SplitMix64(67)
    g = random_point(SL2, "G", rng)
    b = random_point(SL2, "B", rng)
    fib = QuotientChart(borel_reduction(SL2, g, b)).graph
    ok, _ = is_lagrangian(fib)
    assert ok
    assert fib.dim == SL2.dim_g + len(SL2.borel)  # 5 for sl2
    assert fib.cotangent_intersection().dim == 0


def test_regact_dimensions():
    rng = SplitMix64(68)
    for ctx, expected in ((SL2, 1), (SL3, 3), (GL2, 1)):
        g = random_point(ctx, "G", rng)
        b = random_point(ctx, "B", rng)
        res = regact_check(borel_reduction(ctx, g, b))
        assert res["passed"] and res["dim"] == expected


def test_vertical_space_is_action_tangent():
    rng = SplitMix64(69)
    g, b = sample_gspoint(SL2, rng)
    v = borel_reduction(SL2, g, b).vertical
    assert v.dim == len(SL2.borel)
    # rho(0, xi) for xi in the Borel basis lies in the vertical space
    for k in SL2.borel:
        vec = rho_double(SL2, g, b, Mat.zeros(2, 2), SL2.basis[k])
        up = vec[: SL2.dim_g] + [vec[SL2.dim_g + i] for i in SL2.borel]
        assert v.contains_vector(up)


def test_quotient_fiber_basics():
    rng = SplitMix64(70)
    pt = sample_gspoint(SL2, rng)
    chart = QuotientChart(borel_reduction(SL2, *pt))
    fib = chart.fiber
    assert fib.dim == SL2.dim_g == 3
    assert quotient_fiber(chart).equals(fib)
    ok, _ = is_lagrangian(fib)
    assert ok


def _greedy_complement(v: Subspace, ambient: int, hdim: int) -> list[int]:
    """Unit vectors that, in order, each raise the rank of the span of V."""
    indices, current, r = [], v.basis, v.dim
    for j in range(ambient):
        if len(indices) == hdim:
            break
        e = [QQi(1) if i == j else QQi(0) for i in range(ambient)]
        cand = current.hstack(Mat.from_columns([e], ambient))
        if rank(cand) > r:
            indices.append(j)
            current, r = cand, r + 1
    return indices


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_chart_complement_matches_the_greedy_choice(group):
    # the degenerate strata of gspoint_stream, then a generic point
    ctx = context(group)
    for pt in gspoint_stream(ctx, SplitMix64(74), len(FORCED_STRATA) + 1):
        chart = QuotientChart(borel_reduction(ctx, *pt))
        want = _greedy_complement(chart.reduction.vertical, chart.ambient, chart.hdim)
        assert list(chart.indices) == want
        assert len(want) == chart.hdim


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_chart_proj_is_the_inverse_route(group):
    # proj is read off one rref of V^T; the route it replaced inverts [inc | V]
    ctx = context(group)
    for pt in gspoint_stream(ctx, SplitMix64(74), len(FORCED_STRATA) + 1):
        chart = QuotientChart(borel_reduction(ctx, *pt))
        inv = chart.inc.hstack(chart.reduction.vertical.basis).inverse()
        assert chart.proj == inv.row_block(0, chart.hdim)
        assert chart.inc == Mat.from_columns(
            [[QQi(int(i == j)) for i in range(chart.ambient)] for j in chart.indices],
            chart.ambient)


@pytest.mark.parametrize("group", ["sl3", "gl3"])
def test_a_chart_runs_one_rref_and_no_inverse(group, monkeypatch):
    # the complement and proj of one chart come from one rref of V^T; the
    # fiber adds one null space of the dim B x ambient V^T w^T and the rref
    # that canonicalizes it, and no rank, inverse or pushforward
    ctx = context(group)
    pt = gspoint_stream(ctx, SplitMix64(74), len(FORCED_STRATA) + 1)[-1]
    pt[0].inverse(), pt[1].inverse()  # the matrices' kept inverses are not the chart's
    calls = []
    real_rref, real_inverse = linalg.rref, Mat.inverse

    def spy(name, fn):
        def wrapper(m, *args):
            calls.append((name, m.shape))
            return fn(m, *args)
        return wrapper

    def computed_inverse(m):
        # a matrix keeps its inverse: only a call that finds none computes one
        if m._inv is None:
            calls.append(("inverse", m.shape))
        return real_inverse(m)

    for mod in (linalg, gspringer):
        monkeypatch.setattr(mod, "rref", spy("rref", real_rref))
    monkeypatch.setattr(Mat, "inverse", computed_inverse)
    monkeypatch.setattr(linalg, "rank", spy("rank", linalg.rank))
    monkeypatch.setattr(gspringer, "pushforward_linear",
                        spy("pushforward", gspringer.pushforward_linear))
    fiber = gspringer.quotient_fiber
    monkeypatch.setattr(gspringer, "quotient_fiber", lambda chart: None)
    chart = QuotientChart(borel_reduction(ctx, *pt))
    amb = ctx.dim_g + len(ctx.borel)
    vertical = (len(ctx.borel), amb)
    assert calls == [("rref", vertical)]
    calls.clear()
    fib = fiber(chart)
    (null, v), (canon, (k, cols)) = calls
    assert (null, v, canon, cols) == ("rref", vertical, "rref", 2 * ctx.dim_g)
    assert fib.dim == ctx.dim_g <= k <= amb


def per_basis_lam_differential(ctx, bmat):
    """d(lambda . q) column by column: the torus coordinates of
    diag(b y) / diag(b) for each Borel basis element y."""
    n = ctx.n
    cols = [[QQi(0)] * ctx.rank for _ in range(ctx.dim_g)]
    for k in ctx.borel:
        by = bmat @ ctx.basis[k]
        diag = ctx.coords(Mat([[by.entry(i, i) / bmat.entry(i, i) if i == j else QQi(0)
                                for j in range(n)] for i in range(n)]))
        cols.append([diag[i] for i in ctx.torus])
    return Mat.from_columns(cols, ctx.rank)


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_lam_differential_matches_the_per_basis_route(group):
    # on the chart, d(lambda . q) is the torus rows of inc
    ctx = context(group)
    for g, b in gspoint_stream(ctx, SplitMix64(74), len(FORCED_STRATA) + 1):
        chart = QuotientChart(borel_reduction(ctx, g, b))
        got = chart.inc.select_rows(chart.reduction.levi)
        assert got == per_basis_lam_differential(ctx, b) @ chart.inc


# a point with non-real entries, which only JSON input produces: its chart
# runs on Gaussian-integer rows of the matrix kernel
NONREAL_POINT = {"group": "sl2",
                 "g": {"rows": 2, "cols": 2, "entries": [1, 0, 2, 1]},
                 "b": {"rows": 2, "cols": 2,
                       "entries": [[0, 1], ["3/2", 0], 0, [0, -1]]}}
NONREAL_LEAF_FORM = {
    "checks": {"d_identity": True, "graphical": True, "moment_identity": True,
               "passed": True, "skew": True},
    "leaf_basis": {"rows": 3, "cols": 2,
                   "entries": [["1", "0"], ["0", "0"], ["0", "0"],
                               ["1", "0"], ["0", "0"], ["0", "0"]]},
    "matrix": {"rows": 2, "cols": 2,
               "entries": [["0", "0"], ["0", "0"], ["0", "0"], ["0", "0"]]},
}


def test_nonreal_chart_and_leaf_form_pinned():
    assert campaigns.eval_command("leaf-form", NONREAL_POINT) == NONREAL_LEAF_FORM
    chart = QuotientChart(borel_reduction(*point_from_json(NONREAL_POINT)))
    assert any(x.im for r in chart.proj.data for x in r)
    assert list(chart.indices) == _greedy_complement(chart.reduction.vertical,
                                                     chart.ambient, chart.hdim)
    # proj is the first h rows of [inc | V]^-1
    inv = chart.inc.hstack(chart.reduction.vertical.basis).inverse()
    assert chart.proj == inv.row_block(0, chart.hdim)


def two_step_route_iv(chart: QuotientChart) -> DiracFiber:
    """Route (iv) as two pushforwards: along d(phi) to the double's target,
    then along the projection [I | 0] onto its first factor."""
    ctx = chart.ctx
    first = Mat.identity(ctx.dim_g).hstack(Mat.zeros(ctx.dim_g, len(ctx.borel)))
    pushed = pushforward_linear(chart.graph, chart.reduction.dphi)
    return pushforward_linear(pushed, first)


def assert_reductions_match_their_routes(chart: QuotientChart) -> None:
    # the fiber by reduction is the pushforward of the graph along proj, and
    # route (iv) along the composite is the two-step route, entry for entry
    ctx = chart.ctx
    fiber = quotient_fiber(chart)
    assert fiber.basis == chart.fiber.basis
    assert fiber.basis == pushforward_linear(chart.graph, chart.proj).basis
    one_step = pushforward_linear(chart.graph,
                                  chart.reduction.dphi.row_block(0, ctx.dim_g))
    two_step = two_step_route_iv(chart)
    assert one_step.basis == two_step.basis


@pytest.mark.parametrize("conv", ["frozen"] + sorted(CORRUPTIONS))
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_quotient_fiber_and_route_iv_match_the_pushforward_routes(group, conv):
    # the forced strata of gspoint_stream, then a random point
    ctx = context(group)
    with using(FROZEN if conv == "frozen" else CORRUPTIONS[conv]):
        for pt in gspoint_stream(ctx, SplitMix64(87), len(FORCED_STRATA) + 1):
            assert_reductions_match_their_routes(
                QuotientChart(borel_reduction(ctx, *pt)))


def test_quotient_fiber_and_route_iv_at_the_nonreal_point():
    chart = QuotientChart(borel_reduction(*point_from_json(NONREAL_POINT)))
    assert any(x.im for r in chart.proj.data for x in r)
    assert_reductions_match_their_routes(chart)
    # and theorem1_check's verdict on route (iv) is the two-step route's
    pushed = pushforward_linear(chart.fiber, chart.dmu)
    assert theorem1_check(chart)["pushforward_commutes"] == \
        pushed.equals(two_step_route_iv(chart))


def test_quotient_fiber_representative_independent():
    rng = SplitMix64(71)
    pt = sample_gspoint(SL2, rng)
    h = random_point(SL2, "B", rng)
    red = borel_reduction(SL2, *pt)
    moved = red.translate(h)
    assert same_class(SL2, pt, (moved.g, moved.p))
    c1, c2 = QuotientChart(red), QuotientChart(moved)
    trans = chart_transport(c1, c2, h)
    f1, f2 = c1.fiber, c2.fiber
    top = trans @ Mat(f1.basis.data[: c1.hdim])
    bot = trans.inverse().transpose() @ Mat(f1.basis.data[c1.hdim:])
    assert Subspace.from_spanning(top.vstack(bot)).equals(f2)


def test_representative_independence_fails_under_a_wrong_transport(monkeypatch):
    # moving the fiber by Ad_{h^-1} in place of Ad_h must be seen, so the
    # record is not one that passes whatever the transport does
    def verdicts(group):
        cfg = campaigns.CampaignConfig(suite="gs-theorem1", group=group,
                                       samples=5, seed=11)
        return [r["passed"] for r in campaigns.run_suite(cfg).checks
                if r["check_id"] == "gs-theorem1/representative-independent"]

    assert all(all(verdicts(group)) for group in ("sl2", "gl2", "sl3", "gl3"))
    transport = gspringer.chart_transport
    monkeypatch.setattr(gspringer, "chart_transport",
                        lambda c1, c2, h: transport(c1, c2, h.inverse()))
    for group in ("sl3", "gl3"):
        got = verdicts(group)
        assert len(got) == 5 and not all(got), group
    # on the rank-1 groups only the forced springer and nonregular points see
    # the wrong transport, so the record there must fail at both
    forced = [FORCED_STRATA.index(s) for s in ("springer", "nonregular")]
    for group in ("sl2", "gl2"):
        got = verdicts(group)
        assert len(got) == 5 and not any(got[i] for i in forced), group


def test_gspoint_equivalence():
    rng = SplitMix64(72)
    pt = sample_gspoint(SL2, rng)
    assert same_class(SL2, pt, pt)
    other = sample_gspoint(SL2, rng)
    assert not same_class(SL2, pt, other)


def test_mu_lambda_well_defined():
    # mu(g, b) = g b g^-1 and lambda(g, b) = the torus part of b are
    # constant on classes
    rng = SplitMix64(73)
    for _ in range(5):
        g, b = sample_gspoint(SL2, rng)
        h = random_point(SL2, "B", rng)
        moved = borel_reduction(SL2, g, b).translate(h)
        assert conjugate(g, b) == conjugate(moved.g, moved.p)
        assert torus_part(b) == torus_part(moved.p)
        assert torus_part(b) == borel_decompose(SL2, b)[0]
    b = grp([[2, 3], [0, Fraction(1, 2)]])
    assert torus_part(b) == grp([[2, 0], [0, Fraction(1, 2)]])
    assert conjugate(Mat.identity(2), b) == b


@pytest.mark.parametrize("group", ["sl2", "gl3"])
def test_exact_diagram_gs_takes_no_inverse_of_b(group, monkeypatch):
    # mu(p) = g b g^-1 inverts g alone: at 6 points, the fresh context's
    # one inverse and two per point, g^-1 for mu and for the conjugated
    # unipotent; building phi's b^-1 for mu as well took 19.  A matrix keeps
    # its inverse, so only the calls that find none kept compute one
    calls = []
    real = Mat.inverse

    def spy(m):
        if m._inv is None:
            calls.append(m.shape)
        return real(m)

    monkeypatch.setattr(liegroup, "_CONTEXTS", {})
    monkeypatch.setattr(Mat, "inverse", spy)
    cfg = campaigns.CampaignConfig(suite="diagram-gs", group=group, samples=6, seed=3)
    assert campaigns.run_suite(cfg).all_passed
    assert len(calls) == 13


def test_kappa_commutes():
    rng = SplitMix64(74)
    for ctx in (SL2, SL3, GL2):
        for _ in range(5):
            g, b = sample_gspoint(ctx, rng)
            assert invariants(ctx, conjugate(g, b)) == invariants(ctx, torus_part(b))


def test_theorem1_all_strata():
    rng = SplitMix64(75)
    for ctx in (SL2, GL2):
        for stratum in ("random", "springer", "nonregular", "identity-b"):
            pt = sample_gspoint(ctx, rng, stratum)
            res = theorem1_check(QuotientChart(borel_reduction(ctx, *pt)))
            assert res["passed"], (ctx.name, stratum, res)


def test_theorem1_identity_mu_target():
    # over b = e the fiber must push to the cotangent space exactly
    rng = SplitMix64(76)
    pt = sample_gspoint(SL2, rng, "identity-b")
    m = conjugate(*pt)
    assert m == Mat.identity(2)
    chart = QuotientChart(borel_reduction(SL2, *pt))
    pushed = pushforward_linear(chart.fiber, chart.dmu)
    cotangent = DiracFiber(6, Mat.zeros(3, 3).vstack(Mat.identity(3)))
    assert pushed.equals(cotangent)
    assert pushed.equals(cartan_dirac(conjugation_sections(SL2, m, m.inverse())))


def test_theorem1_witness_names_a_column_outside_the_other_fiber():
    # sigma-half moves the Cartan-Dirac fiber but not the quotient fiber
    pt = sample_gspoint(SL2, SplitMix64(88))
    res = theorem1_check(QuotientChart(borel_reduction(SL2, *pt)))
    assert not any(k.startswith("witness") for k in res)
    m = conjugate(*pt)
    with using(CORRUPTIONS["sigma-half"]):
        chart = QuotientChart(borel_reduction(SL2, *pt))
        res = theorem1_check(chart)
        fibers = {"pushed": pushforward_linear(chart.fiber, chart.dmu),
                  "cartan": cartan_dirac(conjugation_sections(SL2, m, m.inverse()))}
    assert not res["f_dirac"]
    wit = res["witness_f_dirac"]
    named = fibers.pop(wit["fiber"])
    (other,) = fibers.values()
    assert not other.contains_vector(named.basis.col(wit["column"]))
    assert wit["dims"] == [SL2.dim_g, SL2.dim_g]
    # the name goes with the fiber the column was read from
    def span(*units):
        cols = [[QQi(int(i == k)) for i in range(4)] for k in units]
        return DiracFiber(4, Mat.from_columns(cols, 4))

    assert gspringer._column_outside(span(0), span(0, 1), ("a", "b")) == {
        "fiber": "b", "column": 1, "dims": [1, 2]}


DERIVED = ("omega_matrix", "phi_differential", "conjugate", "conjugation_sections")


def test_quotient_checks_build_each_chart_once(monkeypatch):
    counts = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(QuotientChart, "__init__",
                        counting("chart", QuotientChart.__init__))
    monkeypatch.setattr(Reduction, "__init__",
                        counting("reduction", Reduction.__init__))
    monkeypatch.setattr(GroupContext, "gram_adjoint",
                        counting("gram_adjoint", GroupContext.gram_adjoint))
    monkeypatch.setattr(DiracFiber, "tangent_part",
                        counting("tangent_part", DiracFiber.tangent_part))
    # every module that binds a derivation, so that no route around the
    # chart goes uncounted
    for name in DERIVED:
        fn = getattr(gspringer, name)
        for mod in list(sys.modules.values()):
            if mod is not None and mod.__name__.startswith("qpslab") and \
                    vars(mod).get(name) is fn:
                monkeypatch.setattr(mod, name, counting(name, fn))
    # gs-theorem1 needs the base point's chart and the moved one's, each on
    # its own reduction; the moved reduction derives T and W for the moved
    # chart's fiber, and its p is one more conjugation (mu is the other);
    # nothing else is derived twice.  Only gs-theorem2
    # reads the leaf, once for the leaf check and the leaf form together
    suites = (("gs-theorem1", 2, 0), ("gs-theorem2", 1, 1), ("bivector", 1, 0))
    for group in ("sl2", "sl3"):
        for suite, charts, leaves in suites:
            cfg = campaigns.CampaignConfig(suite=suite, group=group, samples=4, seed=5)
            _, check = campaigns.SUITES[suite]
            ctx = context(group)
            for mats, salt in campaigns._gen_gspoints(cfg):
                counts.clear()
                check(cfg, ctx, mats, SplitMix64(salt))
                want = Counter({name: 1 for name in DERIVED})
                want.update({"chart": charts, "reduction": charts,
                             "gram_adjoint": charts, "omega_matrix": charts - 1,
                             "conjugate": charts - 1, "tangent_part": leaves})
                assert counts == want, (group, suite)


def test_only_route_iv_builds_a_chart_graph(monkeypatch):
    # gs-theorem1's own chart reads its graph for route (iv); the moved chart
    # of representative_independent and the charts of gs-theorem2 and
    # bivector never read it, and so never build it
    charts = []
    init = QuotientChart.__init__

    def recording(self, reduction):
        init(self, reduction)
        charts.append(self)

    monkeypatch.setattr(QuotientChart, "__init__", recording)
    built = (("gs-theorem1", [True, False]), ("gs-theorem2", [False]),
             ("bivector", [False]))
    for group in ("sl3", "gl3"):
        ctx = context(group)
        for suite, want in built:
            cfg = campaigns.CampaignConfig(suite=suite, group=group, samples=2, seed=5)
            _, check = campaigns.SUITES[suite]
            for mats, salt in campaigns._gen_gspoints(cfg):
                charts.clear()
                check(cfg, ctx, mats, SplitMix64(salt))
                assert ["graph" in vars(c) for c in charts] == want, (group, suite)


def test_a_graph_first_read_under_other_conventions_is_the_frozen_graph():
    # the graph only reshapes the reduction's W, so the conventions active
    # when it is first read do not enter it
    ctx = context("sl3")
    with using(FROZEN):
        chart = QuotientChart(borel_reduction(
            ctx, *gspoint_stream(ctx, SplitMix64(87), len(FORCED_STRATA) + 1)[-1]))
        want = graph_two_form(chart.reduction.w)
    assert "graph" not in vars(chart)
    with using(CORRUPTIONS["omega-sign"]):
        got = chart.graph
    assert got.basis == want.basis and got.dim == want.dim


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_induced_action_pairs_match_the_per_basis_formula(group):
    ctx = context(group)
    for pt in gspoint_stream(ctx, SplitMix64(90), len(FORCED_STRATA)):
        chart = QuotientChart(borel_reduction(ctx, *pt))
        dmu = chart.dmu
        m = conjugate(*pt)
        fields, duals = induced_action(chart, conjugation_sections(ctx, m, m.inverse()))
        assert fields.cols == duals.cols == ctx.dim_g
        pairs = [(fields.col(k), duals.col(k)) for k in range(ctx.dim_g)]
        for xi, (vec, alpha) in zip(ctx.basis, pairs):
            assert vec == chart_action_field(chart, xi)
            dual = ctx.dual_coords(sigma(m, xi))
            assert alpha == [dot(dual, dmu.col(j)) for j in range(chart.hdim)]
            assert chart.fiber.contains_vector(vec + alpha)


def test_theorem2_leaf_dimensions():
    rng = SplitMix64(77)
    for ctx, dim in ((SL2, 2), (SL3, 6), (GL2, 2)):
        pt = sample_gspoint(ctx, rng)
        res = theorem2_check(QuotientChart(borel_reduction(ctx, *pt)))
        assert res["passed"] and res["leaf_dim"] == dim


def test_theorem2_on_strata():
    rng = SplitMix64(78)
    for stratum in ("springer", "nonregular", "identity-b"):
        pt = sample_gspoint(SL2, rng, stratum)
        assert theorem2_check(QuotientChart(borel_reduction(SL2, *pt)))["passed"]


def test_leaf_two_form_checks():
    rng = SplitMix64(79)
    for ctx in (SL2, GL2):
        for stratum in ("random", "springer"):
            pt = sample_gspoint(ctx, rng, stratum)
            chart = QuotientChart(borel_reduction(ctx, *pt))
            form, leaf, checks = leaf_two_form(chart, SplitMix64(0x1EAF))
            assert checks["passed"], (ctx.name, stratum, checks)
            assert leaf.dim == ctx.dim_g - ctx.rank


def test_leaf_d_identity_draws_from_the_given_rng(monkeypatch):
    # the d-identity directions are 2 triples of height-3 vectors on the
    # G x tU slice, drawn from the stream passed in
    pt = sample_gspoint(SL2, SplitMix64(81))
    rng, shadow = SplitMix64(1234), SplitMix64(1234)
    _, _, checks = leaf_two_form(QuotientChart(borel_reduction(SL2, *pt)), rng)
    assert checks["d_identity"]
    for _ in range(2 * 3 * (SL2.dim_g + len(SL2.unipotent))):
        shadow.rational(3)
    assert rng.state == shadow.state
    # and a campaign passes each point's salted stream, still unconsumed
    seen = []

    def spy(chart, rng):
        seen.append(rng.state)
        return leaf_two_form(chart, rng)

    monkeypatch.setattr(campaigns, "leaf_two_form", spy)
    cfg = campaigns.CampaignConfig(suite="gs-theorem2", group="sl2", samples=2)
    points = campaigns._gen_gspoints(cfg)
    for mats, salt in points:
        campaigns._check_theorem2(cfg, SL2, mats, SplitMix64(salt))
    assert seen == [SplitMix64(salt).state for _, salt in points]


def test_d_identity_directions_match_the_fraction_column_oracle(monkeypatch):
    # each triple's direction matrix is Mat.from_columns of three columns of
    # rng.rational(3) draws, one column after another, and the stream is
    # where those draws leave it
    seen = []
    d_omega = gspringer.d_omega

    def spy(ctx, t, w, second, v):
        seen.append((v, rng.state))
        return d_omega(ctx, t, w, second, v)

    monkeypatch.setattr(gspringer, "d_omega", spy)
    for name in ("sl2", "gl3"):
        ctx = context(name)
        a, b = sample_double(ctx, SplitMix64(5))
        t = ctx.gram_adjoint(b, b.inverse())
        w = omega_matrix(ctx, t)
        rng, shadow = SplitMix64(77), SplitMix64(77)
        seen.clear()
        assert gspringer.sampled_d_identity(ctx, t, w, range(ctx.dim_g),
                                            phi_differential(ctx, a, b), rng, 3)
        assert len(seen) == 3
        for v, state in seen:
            want = Mat.from_columns(
                [[shadow.rational(3) for _ in range(w.rows)] for _ in range(3)], w.rows)
            assert v == want and v.data == want.data, name
            assert state == shadow.state, name


def test_a2_draws_from_the_salted_stream_before_a4(monkeypatch):
    # the double's d-identity takes 2 triples of height-3 vectors on G x G
    # from the point's salted stream, and A4 draws its 10 elements g2 after
    # them, which no report shows, as A4 is the stream's last reader
    seen, after = [], []
    a4 = campaigns._a4_sample

    def spy(ctx, b, w, rng, count):
        seen.append(rng.state)
        ok = a4(ctx, b, w, rng, count)
        after.append(rng.state)
        return ok

    monkeypatch.setattr(campaigns, "_a4_sample", spy)
    cfg = campaigns.CampaignConfig(suite="double", group="sl2", samples=2)
    want, want_after = [], []
    for mats, salt in campaigns._gen_double_points(cfg):
        recs = campaigns._check_double(cfg, SL2, mats, SplitMix64(salt))
        assert all(r["passed"] for r in recs)
        shadow = SplitMix64(salt)
        for _ in range(2 * 3 * 2 * SL2.dim_g):
            shadow.rational(3)
        want.append(shadow.state)
        for _ in range(10):
            random_point(SL2, "G", shadow)
        want_after.append(shadow.state)
    assert seen == want
    assert after == want_after


def test_bivector_reconstruction():
    rng = SplitMix64(80)
    for ctx in (SL2, GL2):
        pt = sample_gspoint(ctx, rng)
        pi, checks = reconstruct_bivector(QuotientChart(borel_reduction(ctx, *pt)))
        assert checks["passed"], checks
        assert is_skew(pi)


def test_steinberg_examples():
    unip = grp([[1, 1], [0, 1]])
    ident = Mat.identity(2)
    assert steinberg_membership(SL2, unip, ident)
    d2 = grp([[2, 0], [0, Fraction(1, 2)]])
    d3 = grp([[3, 0], [0, Fraction(1, 3)]])
    assert not steinberg_membership(SL2, d2, d3)
    with pytest.raises(ValueError):
        steinberg_membership(SL2, d2, unip)
    # mu of a quotient point lies in the Steinberg fiber of its lambda, at the
    # forced strata and at random points; mu of one point against lambda of
    # another, with other invariants, is refused
    rng = SplitMix64(81)
    for ctx in (SL2, SL3, GL2):
        pts = gspoint_stream(ctx, rng, len(FORCED_STRATA) + 2)
        for g, b in pts:
            assert steinberg_membership(ctx, conjugate(g, b), torus_part(b)), ctx.name
        assert not steinberg_membership(ctx, conjugate(*pts[-2]),
                                        torus_part(pts[-1][1])), ctx.name


def test_weyl_fiber_enum_sl2():
    d2 = grp([[2, 0], [0, Fraction(1, 2)]])
    pts = weyl_fiber_enum(SL2, d2)
    assert len(pts) == 2
    assert all(conjugate(h, b) == d2 for h, b in pts)
    assert not same_class(SL2, pts[0], pts[1])
    # t is the spectrum in ascending order, so the first point is diagonal
    assert pts[0][1] == grp([[Fraction(1, 2), 0], [0, 2]])


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_weyl_fiber_enum(name):
    ctx = context(name)
    rng = SplitMix64(82)
    t = random_point(ctx, "T-regular", rng)
    g = random_point(ctx, "G", rng)
    rs = g @ t @ g.inverse()
    pts = weyl_fiber_enum(ctx, rs)
    assert len(pts) == len(weyl_orders(ctx))
    assert all(conjugate(h, b) == rs for h, b in pts)
    # the identity ordering comes first, with the spectrum in ascending order
    spectrum = [pts[0][1].entry(i, i).re for i in range(ctx.n)]
    assert spectrum == sorted(spectrum)
    assert sorted(spectrum) == sorted(t.entry(i, i).re for i in range(ctx.n))
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert not same_class(ctx, pts[i], pts[j])


@pytest.mark.parametrize("name, spectrum", [
    ("gl2", (2 ** 61 - 1, 1)),
    ("sl3", (2 ** 40, 2 ** 40 + 1, Fraction(1, 2 ** 40 * (2 ** 40 + 1)))),
    ("gl3", (2 ** 40, 2 ** 40 + 1, 2 ** 40 + 2)),
    ("sl3", (Fraction(2 ** 31 - 1, 2 ** 61 - 1), Fraction(2 ** 61 - 1, 8191),
             Fraction(8191, 2 ** 31 - 1))),
], ids=["gl2-61-bit", "sl3-consecutive", "gl3-consecutive", "sl3-large-denominators"])
def test_weyl_fiber_enum_is_fast_on_large_eigenvalues(name, spectrum):
    # the roots come by integer Newton steps, polynomial in the bit size, so
    # eigenvalues and denominators of 40 to 61 bits take well under a second
    ctx = context(name)
    h = random_point(ctx, "G", SplitMix64(87))
    t = Mat([[x if i == j else 0 for j, _ in enumerate(spectrum)]
             for i, x in enumerate(spectrum)])
    rs = h @ t @ h.inverse()
    start = time.perf_counter()
    pts = weyl_fiber_enum(ctx, rs)
    assert time.perf_counter() - start < 1
    assert len(pts) == len(weyl_orders(ctx))
    assert all(conjugate(h, b) == rs for h, b in pts)
    assert [pts[0][1].entry(i, i).re for i in range(ctx.n)] == sorted(spectrum)


def test_weyl_fiber_enum_rejects_non_semisimple():
    unip = grp([[1, 1], [0, 1]])
    with pytest.raises(NotRegularSemisimple):
        weyl_fiber_enum(SL2, unip)
    # a spectrum outside Q: diag(i, -i), the rotation by a quarter turn, the
    # golden ratio's companion and a characteristic polynomial that is not real
    i = QQi(0, 1)
    for ctx, g in ((SL2, Mat([[i, 0], [0, -i]])), (SL2, grp([[0, -1], [1, 0]])),
                   (GL2, grp([[1, 1], [1, 0]])), (GL2, Mat([[i, 0], [0, 1]]))):
        with pytest.raises(ValueError, match="does not split over Q"):
            weyl_fiber_enum(ctx, g)


def test_forced_strata_in_stream():
    rng = SplitMix64(83)
    bs = [b for _, b in gspoint_stream(SL2, rng, 6)]
    t, _ = borel_decompose(SL2, bs[0])
    assert t == Mat.identity(2)  # springer stratum first
    t, _ = borel_decompose(SL2, bs[1])
    d = [t.entry(i, i) for i in range(2)]
    assert d[0] == d[1]  # non-regular torus value
    assert bs[2] == Mat.identity(2)  # then b = identity


def test_lambda_kills_leaf_directions():
    rng = SplitMix64(84)
    pt = sample_gspoint(SL3, rng)
    red = borel_reduction(SL3, *pt)
    chart = QuotientChart(red)
    # q_* of the tangent space of G x tU, and d(lambda . q) on the chart
    leaf = Subspace.from_spanning(chart.proj.select_cols(red.leaf_slice))
    dl = chart.inc.select_rows(red.levi)
    for j in range(leaf.dim):
        assert all(not c for c in mat_vec(dl, leaf.basis.col(j)))


def test_gl3_smoke():
    # the optional fourth group: one full pass through the heavy checks
    ctx = context("gl3")
    rng = SplitMix64(86)
    pt = sample_gspoint(ctx, rng)
    chart = QuotientChart(borel_reduction(ctx, *pt))
    assert theorem1_check(chart)["passed"]
    res = theorem2_check(chart)
    assert res["passed"] and res["leaf_dim"] == ctx.dim_g - ctx.rank == 6
    g = random_point(ctx, "G", rng)
    b = random_point(ctx, "B", rng)
    assert regact_check(borel_reduction(ctx, g, b))["passed"]


def test_gspoint_json_roundtrip():
    # the JSON writer and reader of a point give back its pair
    pt = sample_gspoint(SL2, SplitMix64(85))
    obj = point_to_json(SL2, *pt)
    assert set(obj) == {"g", "b", "group"} and obj["group"] == "sl2"
    assert point_from_json(obj) == (SL2, *pt)
