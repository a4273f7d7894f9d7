"""The quotient checks' span equalities and kernel meet, on their failing side.

Four records compare a spanning set with a subspace without canonicalizing
the set: theorem 2's leaf projection and the bivector's graph consistency
by :meth:`~qpslab.linalg.Subspace.spanned_by` (one containment, then the
rank of the set's rows at the subspace's pivot rows), representative
independence by the column count plus one containment, and
theorem 1's kernel-clean by the dimension formula
dim K + dim F - rank [K; 0 | F].  None of them fails at a sampled point, so
each is run here on inputs where it must fail, against the route it
replaced: a canonical subspace of the set and ``equals``, or ``kernel`` and
``intersect``.
"""

import pytest

from qpslab.campaigns import CLI_GROUPS
from qpslab.dirac import DiracFiber
from qpslab.gspringer import (FORCED_STRATA, QuotientChart, borel_chart,
                              chart_transport, gspoint_stream,
                              reconstruct_bivector, representative_independent,
                              theorem1_check, theorem2_check)
from qpslab.liegroup import context, random_point
from qpslab.linalg import Mat, Subspace, intersect, kernel
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
    # the (subspace, set) pairs the two checks compare, each as it passes,
    # then with a column dropped or moved out of the subspace
    pairs = []
    real = Subspace.spanned_by

    def spy(self, m):
        pairs.append((self, m))
        return real(self, m)

    monkeypatch.setattr(Subspace, "spanned_by", spy)
    for chart in quotient_charts(group):
        assert theorem2_check(chart)["projection_matches"]
        assert reconstruct_bivector(chart)[1]["graph_consistency"]
    monkeypatch.undo()
    assert len(pairs) == 4
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
