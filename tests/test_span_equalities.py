"""The quotient checks' span equalities and kernel meet, on their failing side.

Seven records compare a spanning set with a subspace without canonicalizing
the set, by :meth:`~qpslab.linalg.Subspace.spanned_by` (one containment,
then the rank of the set's rows at the subspace's pivot rows): theorem 1's
f-Dirac, on the section columns, and its route (iv), on the raw spanning
set of the upstairs graph's pushforward; theorem 2's leaf projection; the
bivector's graph consistency; and representative independence, on the
moved chart's raw spanning set pulled back to the chart.  Theorem 1's
kernel-clean reads its meet off the pushforward's spanning set, as the
column count less the rank, and regact its intersection off the kernel of
w^T V.  None of them fails at a sampled point, so each is run here on
inputs where it must fail, against the route it replaced: a canonical
subspace of the set and ``equals``, or ``kernel`` and ``intersect``.  The
leaf, read off the fiber's canonical basis, is compared with the rref of
its tangent rows, on quotient fibers and on the Cartan-Dirac fibers whose
pivot count the cartan-dirac suite reads as the rank of I - Ad_{g^-1}; and
the leaf form's unit-column solve with the rref of [top | L].
"""

import pytest

from qpslab.campaigns import CLI_GROUPS
from qpslab.dirac import (DiracFiber, cartan_dirac, pushforward_linear,
                          pushforward_spanning_set)
from qpslab.gspringer import (FORCED_STRATA, QuotientChart, borel_chart,
                              chart_transport, gspoint_stream, leaf_two_form,
                              point_from_json, reconstruct_bivector, regact_check,
                              representative_independent, theorem1_check,
                              theorem2_check)
from qpslab.liegroup import GROUPS, conjugation_sections, context, random_point
from qpslab.linalg import Mat, Subspace, intersect, kernel, solve_columns
from qpslab.prng import SplitMix64
from qpslab.scalars import QQi


def canonical_route(s: Subspace, m: Mat) -> bool:
    """The route the checks took before: canonicalize the set, then compare."""
    return Subspace(m).equals(s)


def outside(s: Subspace) -> list:
    """The first unit vector outside ``s``."""
    for i in range(s.ambient_dim):
        e = [QQi(int(i == j)) for j in range(s.ambient_dim)]
        if not s.contains_vector(e):
            return e
    raise AssertionError("the subspace is the whole space")


def unequal_sets(s: Subspace, m: Mat) -> list[Mat]:
    """``m`` with each column dropped, and with each column moved by a vector
    outside ``s``; then ``s``'s own basis with its last column dropped."""
    e = outside(s)
    cols = [m.col(j) for j in range(m.cols)]
    out = []
    for j, col in enumerate(cols):
        if m.cols > 1:
            out.append(Mat.from_columns(cols[:j] + cols[j + 1:], m.rows))
        moved = [a + b for a, b in zip(col, e)]
        out.append(Mat.from_columns(cols[:j] + [moved] + cols[j + 1:], m.rows))
    if s.dim > 1:
        out.append(s.basis.col_block(0, s.dim - 1))
    return out


def quotient_charts(group: str):
    ctx = context(group)
    points = gspoint_stream(ctx, SplitMix64(311), len(FORCED_STRATA) + 1)
    return [borel_chart(ctx, *p) for p in (points[0], points[-1])]


@pytest.mark.parametrize("group", CLI_GROUPS)
def test_spanned_by_agrees_with_the_canonical_route(group, monkeypatch):
    # the (subspace, set) pairs the four checks compare, each as it passes,
    # then with a column dropped or moved out of the subspace: theorem 1's
    # f-Dirac (the section columns) and route (iv) (the upstairs graph's raw
    # pushforward), theorem 2's leaf projection and the bivector's graph
    pairs = []
    real = Subspace.spanned_by

    def spy(self, m):
        pairs.append((self, m))
        return real(self, m)

    monkeypatch.setattr(Subspace, "spanned_by", spy)
    for chart in quotient_charts(group):
        res = theorem1_check(chart)
        assert res["f_dirac"] and res["pushforward_commutes"]
        assert theorem2_check(chart)["projection_matches"]
        assert reconstruct_bivector(chart)[1]["graph_consistency"]
    monkeypatch.undo()
    assert len(pairs) == 8
    # the first two of each chart are theorem 1's, against the pushforward
    for chart, (f_dirac, route_iv) in zip(quotient_charts(group), (pairs[:2], pairs[4:6])):
        sections = conjugation_sections(chart.ctx, chart.mu)
        assert f_dirac[0].basis == route_iv[0].basis == \
            pushforward_linear(chart.fiber, chart.dmu).basis
        assert f_dirac[1] == sections[1].vstack(sections[2])
        assert cartan_dirac(sections).spanned_by(f_dirac[1])
        assert route_iv[1] == pushforward_spanning_set(chart.graph, chart.dmu_up)
    failed = 0
    for s, m in pairs:
        assert s.spanned_by(m) and canonical_route(s, m)
        for x in unequal_sets(s, m):
            got = s.spanned_by(x)
            assert got == canonical_route(s, x)
            failed += not got
    assert failed


def canonical_representative_independent(chart, h) -> bool:
    """:func:`representative_independent` by a canonical subspace of the
    moved columns and ``equals``."""
    moved_chart = chart.translate(h)
    trans = chart_transport(chart, moved_chart, h)
    basis, hdim = chart.fiber.basis, chart.hdim
    moved = (trans @ basis.row_block(0, hdim)).vstack(
        trans.inverse().transpose() @ basis.row_block(hdim, basis.rows))
    return canonical_route(moved_chart.fiber, moved)


@pytest.mark.parametrize("group", CLI_GROUPS)
def test_representative_independence_fails_on_a_changed_fiber(group):
    # the fiber moved to another representative's chart is compared with the
    # fiber built there; a fiber with a column dropped or moved out of it
    # must fail by both routes
    ctx = context(group)
    rng = SplitMix64(312)
    for chart in quotient_charts(group):
        h = random_point(ctx, "B", rng)
        fib = chart.fiber
        assert representative_independent(chart, h)
        assert canonical_representative_independent(chart, h)
        for x in unequal_sets(fib, fib.basis):
            chart.fiber = DiracFiber(x)
            assert not representative_independent(chart, h)
            assert not canonical_representative_independent(chart, h)


@pytest.mark.parametrize("group, meet", [("sl2", 2), ("gl2", 2), ("sl3", 6), ("gl3", 6)])
def test_kernel_clean_meet_is_the_intersection_dimension(group, meet):
    # at P = T with p = 1 the fiber meets ker d(mu); at a Borel point it
    # does not; the formula and the intersection agree on both
    ctx = context(group)
    g = random_point(ctx, "G", SplitMix64(313))
    torus = QuotientChart(ctx, g, Mat.identity(ctx.n), ctx.torus, ())
    for chart, want in ((torus, meet), (quotient_charts(group)[1], 0)):
        out = theorem1_check(chart)
        assert out["kernel_clean"] == (want == 0)
        assert out.get("witness_kernel", {"dim": 0}) == {"dim": want}
        ker, h = kernel(chart.dmu), chart.hdim
        emb = Subspace(ker.basis.vstack(Mat.zeros(h, ker.dim)))
        assert intersect(emb, chart.fiber).dim == want


def old_regact(chart) -> tuple[int, bool]:
    """regact's (dim, verdict) by ``intersect`` of V with ``kernel`` of w^T,
    compared with the span of V's N columns by ``equals``."""
    gens = Subspace(chart.vertical)
    inter = intersect(gens, kernel(chart.w.transpose()))
    nil = [i for i, k in enumerate(chart.sub) if k in chart.nil]
    expected = (Subspace(gens.basis.select_cols(nil))
                if nil else Subspace.zero(gens.ambient_dim))
    return inter.dim, inter.dim == len(nil) and inter.equals(expected)


@pytest.mark.parametrize("group", CLI_GROUPS)
def test_regact_kernel_agrees_with_the_intersection(group):
    # at Borel points with N = U the check passes; with N a proper part of
    # U it fails on the dimension, and with one of U's coordinates swapped
    # for a torus coordinate, of the same dimension, on w^T V_N != 0
    ctx = context(group)
    unip, torus = ctx.unipotent, ctx.torus
    nils = [unip, unip[1:], (*unip[1:], torus[0])]
    verdicts = []
    for chart in quotient_charts(group):
        for nil in nils:
            moved = QuotientChart(ctx, chart.g, chart.p, ctx.borel, sorted(nil))
            res = regact_check(moved)
            assert (res["dim"], res["passed"]) == old_regact(moved)
            assert res["expected_dim"] == len(nil)
            verdicts.append((res["passed"], res["dim"] == len(nil)))
    assert verdicts == [(True, True), (False, False), (False, True)] * 2


NONREAL_POINT = {"group": "sl2",
                 "g": {"rows": 2, "cols": 2, "entries": [1, 0, 2, 1]},
                 "b": {"rows": 2, "cols": 2,
                       "entries": [[0, 1], ["3/2", 0], 0, [0, -1]]}}


def fibers_with_leaves():
    """Fibers at the stream points of every group, at the non-real point,
    and on the P = G and P = T charts; a fiber whose pivots all lie in the
    tangent rows, and the zero fiber."""
    for group in CLI_GROUPS:
        ctx = context(group)
        rng = SplitMix64(314)
        yield from (borel_chart(ctx, *p).fiber
                    for p in gspoint_stream(ctx, rng, len(FORCED_STRATA) + 1))
        g, p = random_point(ctx, "G", rng), random_point(ctx, "G", rng)
        yield QuotientChart(ctx, g, p, range(ctx.dim_g), ()).fiber
        yield QuotientChart(ctx, g, Mat.identity(ctx.n), ctx.torus, ()).fiber
    yield borel_chart(*point_from_json(NONREAL_POINT)).fiber
    yield DiracFiber(Mat.identity(2).vstack(Mat([[1, 2], [-2, 3]])))
    yield DiracFiber(Mat.zeros(4, 0))


def cartan_dirac_fibers():
    """The Cartan-Dirac fibers at the identity and at a G, B, U and T point
    of every group, and at the non-real diag(i, -i) of SL_2."""
    rng = SplitMix64(318)
    for group in sorted(GROUPS):
        ctx = context(group)
        for g in (Mat.identity(ctx.n), *(random_point(ctx, k, rng) for k in "GBUT")):
            yield cartan_dirac(conjugation_sections(ctx, g))
    i = QQi(0, 1)
    yield cartan_dirac(conjugation_sections(context("sl2"), Mat([[i, 0], [0, -i]])))


def test_the_leaf_read_off_the_pivots_is_the_rref_route():
    # the tangent part read off the canonical basis is the canonical basis
    # of the tangent rows' span, which an rref of them gives; so the count
    # of tangent pivots is the rank of the tangent rows
    dims = set()
    for fib in (*fibers_with_leaves(), *cartan_dirac_fibers()):
        got = fib.tangent_part()
        want = Subspace(fib.basis.row_block(0, fib.d)) if fib.dim else Subspace.zero(fib.d)
        assert got.basis == want.basis and got.dim == want.dim
        assert len(fib.tangent_columns()) == want.dim
        dims.add(0 < got.dim < fib.dim)
    # some fibers have pivots in the covector rows, and some do not
    assert dims == {True, False}


def test_the_leaf_form_reads_the_solve_off_the_pivots():
    # top S = L is solved by the unit columns at the fiber's tangent pivots,
    # the particular solution an rref of [top | L] gives, so the leaf form
    # is (bot S)' L without the rref; a leaf that is not those columns of
    # top is not graphical
    charts = [borel_chart(context(g), *p) for g in CLI_GROUPS
              for p in gspoint_stream(context(g), SplitMix64(316), len(FORCED_STRATA) + 1)]
    charts.append(borel_chart(*point_from_json(NONREAL_POINT)))
    for chart in charts:
        fib, leaf, h = chart.fiber, chart.leaf, chart.hdim
        top, bot = fib.basis.row_block(0, h), fib.basis.row_block(h, 2 * h)
        sols, _, consistent = solve_columns(top, leaf.basis)
        assert consistent
        assert sols == Mat.identity(fib.dim).select_cols(fib.tangent_columns())
        form, _, checks = leaf_two_form(chart, SplitMix64(317))
        assert checks["graphical"] and form == (bot @ sols).transpose() @ leaf.basis
    chart.leaf = Subspace(leaf.basis.col_block(0, 1))
    assert leaf_two_form(chart, SplitMix64(317))[2] == {"graphical": False, "passed": False}
