"""The fusion double, its restriction to G x B, and the quotient G x_B B.

Everything here is pointwise and exact.  The double G x G carries the
2-form

    omega_(a,b)((x1,y1),(x2,y2)) = -1/2 [ (x1, Ad_b y2) - (x2, Ad_b y1)
                                        + (x2, Ad_b x1) - (x1, Ad_b x2)
                                        + (x1, y2)      - (x2, y1) ]

in left-trivialized coordinates: the standard double form transported to
the coordinates where the group acts by (g1,g2).(a,b) = (g1 a g2^-1,
g2 b g2^-1) with moment map (a,b) -> (a b a^-1, b^-1), with the global sign
chosen so that the moment maps are forward-Dirac onto the conjugation
structure whose tangent part is xi^L - xi^R.  Consistently, action
generators throughout this module are the *negatives* of the naive
derivative of the printed action; the identity-fiber value
(x2,y1) - (x1,y2) is forced by the moment condition and anchors the sign.
The axiom suite (moment condition, d(omega), nondegeneracy, invariance)
plus the forward-Dirac checks are the contract for this formula.

Quotient computations work in per-point charts: the vertical space of the
B-action h.(g,b) = (g h^-1, h b h^-1) is complemented by a deterministic
greedy choice of coordinate directions, and representative independence is
itself one of the verified claims, never an assumption.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .conventions import ACTIVE
from .diffcalc import PointedMap, Space, d_two_form
from .dirac import (DiracFiber, TwoFormFiber, BivectorFiber, cartan_dirac,
                    graph_two_form, is_lagrangian, pushforward_linear)
from .liegroup import (AlgebraElement, Covector, GroupContext, GroupElement,
                       borel_decompose, chevalley, context, random_point,
                       sigma, sigma_adjoint, _mul_frac)
from .linalg import (EXACT, FLOAT, Mat, Subspace, dot, intersect, kernel,
                     mat_vec, rref, solve_unique)
from .matio import mat_from_json, mat_to_json
from .prng import SplitMix64
from .scalars import QQi


class NotRegularSemisimple(ValueError):
    pass


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class DoublePoint:
    a: GroupElement
    b: GroupElement

    def __post_init__(self):
        if self.a.ctx is not self.b.ctx:
            raise ValueError("double point needs one shared context")

    @property
    def ctx(self) -> GroupContext:
        return self.a.ctx

    def to_json(self) -> dict:
        return {"a": mat_to_json(self.a.m), "b": mat_to_json(self.b.m),
                "group": self.ctx.name}

    @classmethod
    def from_json(cls, obj: dict, backend=None) -> "DoublePoint":
        ctx = context(obj["group"])
        return cls(
            GroupElement(ctx, mat_from_json(obj["a"], backend)),
            GroupElement(ctx, mat_from_json(obj["b"], backend)),
        )


class GSPoint:
    """A point [g : b] of G x_B B through a representative pair."""

    __slots__ = ("g", "b", "ctx")

    def __init__(self, g: GroupElement, b: GroupElement):
        if g.ctx is not b.ctx:
            raise ValueError("GSPoint needs one shared context")
        if not g.ctx.in_borel(b.m):
            raise ValueError("second component must be upper triangular")
        self.g = g
        self.b = b
        self.ctx = g.ctx

    def same_class(self, other: "GSPoint", tol: float | None = None) -> bool:
        """Decidable equivalence: h = g2^-1 g1 in B and b2 = h b1 h^-1."""
        if self.ctx is not other.ctx:
            return False
        h = other.g.inv @ self.g.m
        if not self.ctx.in_borel(h, tol):
            return False
        target = h @ self.b.m @ h.inverse()
        if h.backend == EXACT:
            return target == other.b.m
        return target.approx_eq(other.b.m, tol)

    def translate(self, h: GroupElement) -> "GSPoint":
        """The same class through the representative h.(g,b)."""
        return GSPoint(
            GroupElement(self.ctx, self.g.m @ h.inv, check=False),
            GroupElement(self.ctx, h.m @ self.b.m @ h.inv, check=False),
        )

    def to_json(self) -> dict:
        return {"g": mat_to_json(self.g.m), "b": mat_to_json(self.b.m),
                "group": self.ctx.name}

    @classmethod
    def from_json(cls, obj: dict, backend=None) -> "GSPoint":
        ctx = context(obj["group"])
        return cls(
            GroupElement(ctx, mat_from_json(obj["g"], backend)),
            GroupElement(ctx, mat_from_json(obj["b"], backend)),
        )

    def __repr__(self):
        return f"GSPoint({self.ctx.name})"


@dataclass(frozen=True)
class SteinbergFiber:
    """The locus of group elements sharing the invariants of a torus point."""

    t: GroupElement

    @property
    def value(self):
        return chevalley(self.t)

    def contains(self, g: GroupElement) -> bool:
        return chevalley(g) == self.value


def steinberg_membership(g: GroupElement, t: GroupElement) -> bool:
    if not g.ctx.in_borel(t.m) or not g.ctx.in_borel(t.m.transpose()):
        raise ValueError("reference point must be diagonal")
    return SteinbergFiber(t).contains(g)


# ---------------------------------------------------------------------------
# spaces and the maps of the big diagram


def double_space(ctx: GroupContext) -> Space:
    return Space(ctx, ("g", "g"))


def gxb_space(ctx: GroupContext) -> Space:
    return Space(ctx, ("g", "b"))


def phi(p: DoublePoint) -> tuple[GroupElement, GroupElement]:
    """The moment map of the double: (a, b) -> (a b a^-1, b^-1)."""
    ctx = p.ctx
    m1 = p.a.m @ p.b.m @ p.a.inv
    return (GroupElement(ctx, m1, check=False), p.b.inverse())


def phi_map(ctx: GroupContext) -> PointedMap:
    sp = double_space(ctx)

    def fn(q):
        a, b = q
        return (a @ b @ a.inverse(), b.inverse())

    return PointedMap("phi", sp, sp, fn)


def phi_differential(ctx: GroupContext, amat: Mat, bmat: Mat, space: Space) -> Mat:
    """Closed-form differential of (a, b) -> (a b a^-1, b^-1) on the space.

    (x, y) -> (Ad_a(Ad_{b^-1} x + y - x), -Ad_b y); the dual-number route in
    diffcalc is the independent oracle for this formula.  On the double it is
    the differential of the moment map.  On G x B coordinates it is the
    leading principal block of the double's matrix, since the Borel basis is
    a prefix of the algebra basis; its first dim G rows are d(mu . q).
    """
    if space.parts not in (("g", "g"), ("g", "b")):
        raise ValueError("phi differential lives on G x G or G x B coordinates")
    d = ctx.dim_g
    k = space.dim - d  # second-factor block size (d or dim_b)
    ainv, binv = amat.inverse(), bmat.inverse()
    zero = [QQi(0)] * k
    cols = []
    for x in ctx.basis:
        cols.append(ctx.coords(amat @ (binv @ x @ bmat - x) @ ainv) + zero)
    for y in ctx.basis[:k]:
        cols.append(ctx.coords(amat @ y @ ainv) + ctx.coords(-(bmat @ y @ binv))[:k])
    return Mat.from_columns(cols, space.dim, amat.backend)


def rho_double(ctx: GroupContext, amat: Mat, bmat: Mat,
               xi1: Mat, xi2: Mat) -> list:
    """Action generator of (xi1, xi2) on the double, left-trivialized.

    Sign convention: the negative of the derivative of the printed action,
    matching the xi^L - xi^R convention of the conjugation structure (on the
    second factor this is literally xi2^L - xi2^R).
    """
    u1 = xi2 - amat.inverse() @ xi1 @ amat
    u2 = xi2 - bmat.inverse() @ xi2 @ bmat
    return ctx.coords(u1) + ctx.coords(u2)


# ---------------------------------------------------------------------------
# the 2-form of the double


def omega_value(ctx: GroupContext, amat, bmat, u1, u2):
    """omega at (a, b) on two tangent coordinates given as matrix pairs."""
    x1, y1 = u1
    x2, y2 = u2
    binv = bmat.inverse()

    def adb(w):
        return bmat @ w @ binv

    f = ctx.form
    val = (
        f(x1, adb(y2)) - f(x2, adb(y1))
        + f(x2, adb(x1)) - f(x1, adb(x2))
        + f(x1, y2) - f(x2, y1)
    )
    return _mul_frac(val, Fraction(-ACTIVE.get().omega_sign, 2))


def omega_fn(ctx: GroupContext, space: Space):
    """omega as a coordinate-bilinear family usable by d_two_form."""

    def ev(point, u, v):
        a, b = point
        um = space.matrices(u)
        vm = space.matrices(v)
        return omega_value(ctx, a, b, (um[0], um[1]), (vm[0], vm[1]))

    return ev


def omega_matrix(ctx: GroupContext, amat: Mat, bmat: Mat, space: Space) -> Mat:
    """Matrix of omega on the space's tangent basis.

    Uses the closed block form W = -s/2 [[T' - T, T + G], [-(T' + G), 0]]
    with T = G Ad_b on algebra coordinates and G the form's Gram matrix; the
    entrywise evaluator :func:`omega_value` is the independent oracle for
    this in the tests.  Valid for the double space and its G x B coordinate
    restriction (a leading principal submatrix, since the Borel basis is a
    prefix of the algebra basis).
    """
    if space.parts not in (("g", "g"), ("g", "b")):
        raise ValueError("omega matrix lives on G x G or G x B coordinates")
    d = ctx.dim_g
    binv = bmat.inverse()
    admat = Mat.from_columns(
        [ctx.coords(bmat @ bk @ binv) for bk in ctx.basis], d, bmat.backend
    )
    gram = ctx.gram
    t = gram @ admat
    tt = t.transpose()
    w11 = tt - t
    w12 = t + gram
    w21 = -(tt + gram)
    scale = Fraction(-ACTIVE.get().omega_sign, 2)
    k = space.dim - d  # second-factor block size (d or dim_b)
    rows = []
    for i in range(d):
        rows.append(tuple(w11.data[i]) + tuple(w12.data[i][:k]))
    for i in range(k):
        rows.append(tuple(w21.data[i]) + (QQi(0),) * k)
    return Mat(rows, bmat.backend).scale(scale)


def omega_double(p: DoublePoint) -> TwoFormFiber:
    ctx = p.ctx
    return TwoFormFiber(
        (p.a.m, p.b.m),
        omega_matrix(ctx, p.a.m, p.b.m, double_space(ctx)),
    )


def moment_condition_check(p: DoublePoint, xi1: AlgebraElement,
                           xi2: AlgebraElement) -> bool:
    """omega^flat of the action field equals the pulled-back sigma covector."""
    ctx = p.ctx
    w = omega_matrix(ctx, p.a.m, p.b.m, double_space(ctx))
    u = rho_double(ctx, p.a.m, p.b.m, xi1.m, xi2.m)
    lhs = mat_vec(w.transpose(), u)
    g1, g2 = phi(p)
    dual = sigma(g1, xi1).dual_coords() + sigma(g2, xi2).dual_coords()
    dphi = phi_differential(ctx, p.a.m, p.b.m, double_space(ctx))
    rhs = mat_vec(dphi.transpose(), dual)
    return lhs == rhs


# ---------------------------------------------------------------------------
# restriction to G x B and the quotient chart


def restrict_to_GxB(g: GroupElement, b: GroupElement) -> DiracFiber:
    """Graph of the double form restricted to the coordinate subspace T(GxB)."""
    ctx = g.ctx
    if not ctx.in_borel(b.m):
        raise ValueError("second component must lie in the Borel subgroup")
    w = omega_matrix(ctx, g.m, b.m, gxb_space(ctx))
    return graph_two_form(TwoFormFiber((g.m, b.m), w))


def b_action_directions(b: GroupElement, part: str) -> Subspace:
    """Span of the B-action generators at (g, b) of the basis of ``part``.

    The generator of xi is (-xi, Ad_{b^-1} xi - xi) in G x B coordinates; it
    does not depend on g.  ``part`` is "b" (the vertical space) or "u".
    """
    ctx = b.ctx
    cols = []
    for k in ctx.sub_indices(part):
        xi = ctx.basis[k]
        cols.append(ctx.coords(-xi) + ctx.part_coords("b", b.inv @ xi @ b.m - xi))
    return Subspace.from_vectors(cols, ctx.dim_g + ctx.dim_b, EXACT)


def vertical_space(point: GSPoint) -> Subspace:
    """Tangent directions of the B-action through the representative."""
    return b_action_directions(point.b, "b")


class QuotientChart:
    """Pointwise chart on G x_B B: a complement to the vertical space.

    ``proj`` maps upstairs tangent coordinates to chart coordinates, ``inc``
    embeds the chart back; quotient covectors are the functionals that factor
    through ``proj`` (the annihilator of the vertical space).  ``graph`` is
    the restricted graph upstairs and ``fiber`` its pushforward to the chart,
    both under the conventions active when the chart was built.
    """

    __slots__ = ("point", "vertical", "indices", "proj", "inc", "hdim", "ambient",
                 "graph", "fiber")

    def __init__(self, point: GSPoint):
        ctx = point.ctx
        self.point = point
        self.ambient = ctx.dim_g + ctx.dim_b
        self.hdim = ctx.dim_g
        v = vertical_space(point)
        if v.dim != ctx.dim_b:
            raise ValueError("vertical space has wrong dimension")
        self.vertical = v
        # the pivots of rref [V | I] after V's columns are the unit vectors
        # that, taken in order, each leave the span of V and those before
        _, pivots = rref(v.basis.hstack(Mat.identity(self.ambient)))
        indices = [c - v.dim for c in pivots[v.dim:]]
        if len(indices) != self.hdim:
            raise ValueError("failed to complement the vertical space")
        self.indices = tuple(indices)
        self.inc = Mat.from_columns(
            [[QQi(1) if i == j else QQi(0) for i in range(self.ambient)]
             for j in indices],
            self.ambient,
            EXACT,
        )
        full = self.inc.hstack(v.basis)
        inv = full.inverse()
        self.proj = inv.row_block(0, self.hdim)
        self.graph = restrict_to_GxB(point.g, point.b)
        self.fiber = quotient_fiber(self)

    @property
    def ctx(self) -> GroupContext:
        return self.point.ctx


def quotient_fiber(chart: QuotientChart) -> DiracFiber:
    """Pushforward of the restricted graph to the chart; Lagrangian of dim G."""
    return pushforward_linear(chart.graph, chart.proj, base=chart.point.to_json())


def mu(p: GSPoint) -> GroupElement:
    return GroupElement(p.ctx, p.g.m @ p.b.m @ p.g.inv, check=False)


def lam(p: GSPoint) -> GroupElement:
    """The torus component of the fiber coordinate (constant on classes)."""
    t, _ = borel_decompose(p.b)
    return t


def lam_differential_upstairs(ctx: GroupContext, bmat: Mat) -> Mat:
    """d(lambda . q) on T(G x B), valued in torus coordinates."""
    n = ctx.n
    cols = []
    zero_t = [QQi(0)] * ctx.dim_t
    for k in range(ctx.dim_g + ctx.dim_b):
        if k < ctx.dim_g:
            cols.append(list(zero_t))
            continue
        y = ctx.basis[k - ctx.dim_g]
        by = bmat @ y
        diag = [[by.entry(i, i) / bmat.entry(i, i) if i == j else QQi(0)
                 for j in range(n)] for i in range(n)]
        cols.append(ctx.part_coords("t", Mat(diag, bmat.backend)))
    return Mat.from_columns(cols, ctx.dim_t, bmat.backend)


def dmu_chart(chart: QuotientChart) -> Mat:
    ctx = chart.ctx
    up = phi_differential(ctx, chart.point.g.m, chart.point.b.m, gxb_space(ctx))
    return up.row_block(0, ctx.dim_g) @ chart.inc


def dlam_chart(chart: QuotientChart) -> Mat:
    up = lam_differential_upstairs(chart.ctx, chart.point.b.m)
    return up @ chart.inc


def chart_action_field(chart: QuotientChart, ximat: Mat) -> list:
    """The induced action field of xi at the chart point: q_* rho(xi, 0).

    Upstairs rho(xi, 0) = (-Ad_{g^-1} xi, 0) in the frozen generator
    convention.
    """
    ctx = chart.ctx
    up = ctx.coords(-(chart.point.g.inv @ ximat @ chart.point.g.m)) + [QQi(0)] * ctx.dim_b
    return mat_vec(chart.proj, up)


def induced_action_pairs(chart: QuotientChart, dmu: Mat):
    """Yield (q_* rho(e_k), d(mu)^T sigma(mu, e_k)) for each algebra basis e_k.

    ``dmu`` is :func:`dmu_chart` of the chart.  The pairs come one at a time,
    so a caller that stops at the first failing k builds no further pair.
    """
    ctx = chart.ctx
    m = mu(chart.point)
    dmut = dmu.transpose()
    for xi in ctx.basis:
        alpha = sigma(m, AlgebraElement(ctx, xi, check=False)).dual_coords()
        yield chart_action_field(chart, xi), mat_vec(dmut, alpha)


def chart_transport(chart1: QuotientChart, chart2: QuotientChart,
                    h: GroupElement) -> Mat:
    """Identification of chart1 with chart2 when point2 = h . point1.

    The action diffeomorphism has differential Ad_h (+) Ad_h upstairs and
    descends to the identity on the quotient tangent space.
    """
    ctx = chart1.ctx
    cols = []
    for j in range(chart1.hdim):
        upvec = chart1.inc.col(j)
        xmat = ctx.mat_from_coords(upvec[: ctx.dim_g])
        ymat = ctx.mat_from_coords(ctx.embed_part_coords("b", upvec[ctx.dim_g:]))
        adx = h.m @ xmat @ h.inv
        ady = h.m @ ymat @ h.inv
        moved = ctx.coords(adx) + ctx.part_coords("b", ady)
        cols.append(mat_vec(chart2.proj, moved))
    return Mat.from_columns(cols, chart2.hdim, EXACT)


# ---------------------------------------------------------------------------
# the verification computations


def regact_check(g: GroupElement, b: GroupElement) -> dict:
    """Intersection of the B-action directions with the restricted graph.

    Passes when the intersection is exactly the unipotent directions, so its
    dimension is dim U at every point (the regularity making the quotient a
    bundle).
    """
    ctx = g.ctx
    w = omega_matrix(ctx, g.m, b.m, gxb_space(ctx))
    flat_kernel = kernel(w.transpose())
    inter = intersect(vertical_space(GSPoint(g, b)), flat_kernel)
    expected = b_action_directions(b, "u")
    ok = inter.dim == ctx.dim_u and inter.equals(expected)
    return {"dim": inter.dim, "expected_dim": ctx.dim_u, "passed": ok}


def theorem1_check(chart: QuotientChart) -> dict:
    """The moment-map realization checks at the chart's quotient point.

    (i) the fiber pushes forward to the conjugation structure at mu(p);
    (ii) ker d(mu) meets the fiber trivially; (iii) the induced action pairs
    with the pulled-back sigma covectors inside the fiber; (iv) pushing
    forward through the quotient or through the double moment map agree.
    A failing check carries a witness.
    """
    ctx = chart.ctx
    point = chart.point
    fib = chart.fiber
    out = {}

    lag, wit = is_lagrangian(fib)
    out["lagrangian"] = lag and fib.dim == ctx.dim_g
    if not out["lagrangian"]:
        out["witness_lagrangian"] = wit or {"dim": fib.dim}

    m = mu(point)
    # one G x B differential serves d(mu) (its first dim G rows, as in
    # dmu_chart) and route (iv)
    dphi = phi_differential(ctx, point.g.m, point.b.m, gxb_space(ctx))
    dmu = dphi.row_block(0, ctx.dim_g) @ chart.inc
    pushed = pushforward_linear(fib, dmu, base=m.m)
    cd = cartan_dirac(m)
    out["f_dirac"] = pushed.equals(cd)
    if not out["f_dirac"]:
        out["witness_f_dirac"] = _column_outside(pushed, cd, ("pushed", "cartan"))

    # ker d(mu) as tangent vectors with zero covector part
    kerdmu = kernel(dmu)
    meet = 0
    if kerdmu.dim:
        h = chart.hdim
        ker_emb = Subspace(2 * h, kerdmu.basis.vstack(Mat.zeros(h, kerdmu.dim)))
        meet = intersect(ker_emb, fib.subspace()).dim
    out["kernel_clean"] = meet == 0
    if meet:
        out["witness_kernel"] = {"dim": meet}

    out["induced_action"] = True
    for k, (vec, alpha) in enumerate(induced_action_pairs(chart, dmu)):
        if not fib.contains(vec, alpha):
            out["induced_action"] = False
            out["witness_action"] = {"basis_index": k}
            break

    # route (iv): the double's moment map, then the projection to its first factor
    first = Mat.identity(ctx.dim_g).hstack(Mat.zeros(ctx.dim_g, ctx.dim_b))
    route_b = pushforward_linear(pushforward_linear(chart.graph, dphi), first)
    out["pushforward_commutes"] = pushed.equals(route_b)
    if not out["pushforward_commutes"]:
        out["witness_pushforward"] = _column_outside(pushed, route_b,
                                                     ("quotient", "double"))

    out["passed"] = all(
        out[k] for k in
        ("lagrangian", "f_dirac", "kernel_clean", "induced_action",
         "pushforward_commutes")
    )
    return out


def _column_outside(a: DiracFiber, b: DiracFiber, names: tuple[str, str]) -> dict:
    """Witness that two fibers differ: the first basis column of one outside the other."""
    for name, fib, other in ((names[0], a, b), (names[1], b, a)):
        span = other.subspace()
        for j in range(fib.dim):
            if not span.contains_vector(fib.basis.col(j)):
                return {"fiber": name, "column": j, "dims": [a.dim, b.dim]}
    return {"dims": [a.dim, b.dim]}


def leaf_expected(chart: QuotientChart) -> Subspace:
    """q_* of the coordinate subspace tangent to G x tU."""
    ctx = chart.ctx
    upstairs = list(range(ctx.dim_g)) + [ctx.dim_g + k for k in ctx.sub_indices("u")]
    return Subspace.from_vectors([chart.proj.col(k) for k in upstairs], chart.hdim, EXACT)


def theorem2_check(chart: QuotientChart) -> dict:
    """Leaf identification: the chart fiber's tangent image is q_* T(G x tU)."""
    ctx = chart.ctx
    proj = chart.fiber.tangent_part()
    expected = leaf_expected(chart)
    out = {
        "leaf_dim": proj.dim,
        "expected_dim": ctx.dim_g - ctx.rank,
        "projection_matches": proj.equals(expected),
    }
    dlam = dlam_chart(chart)
    killed = all(
        all(not c for c in mat_vec(dlam, proj.basis.col(j)))
        for j in range(proj.dim)
    )
    out["lambda_locally_constant"] = killed
    out["passed"] = (
        out["projection_matches"]
        and proj.dim == out["expected_dim"]
        and killed
    )
    return out


def leaf_two_form(chart: QuotientChart, rng: SplitMix64):
    """The induced presymplectic form on the leaf directions at the chart's point.

    Returns (form, leaf basis, checks).  The form is obtained by inverting
    the graph over the leaf directions; isotropy of the fiber makes the
    matrix well-defined and skew.  Checks: the restricted moment identity
    and the exterior-derivative identity d(omega_leaf) = -mu^* eta, the
    latter evaluated upstairs on the G x tU slice where the leaf is a
    coordinate subspace, on random directions drawn from ``rng`` (a
    campaign passes the point's salted stream).
    """
    point = chart.point
    fib = chart.fiber
    leaf = fib.tangent_part()
    h = chart.hdim
    top = fib.basis.row_block(0, h)
    bot = fib.basis.row_block(h, fib.basis.rows)
    alphas = []
    for j in range(leaf.dim):
        sol, _, consistent = solve_unique(top, leaf.basis.col(j))
        if not consistent:
            return None, leaf, {"graphical": False, "passed": False}
        alphas.append(mat_vec(bot, sol))
    wmat = [
        [dot(alphas[i], leaf.basis.col(j)) for j in range(leaf.dim)]
        for i in range(leaf.dim)
    ]
    form = TwoFormFiber(point.to_json(), Mat(wmat, EXACT) if leaf.dim else Mat([[QQi(0)]]))
    checks = {"graphical": True, "skew": form.is_skew()}

    ok_moment = True
    for v, mudual in induced_action_pairs(chart, dmu_chart(chart)):
        coeff, _, consistent = solve_unique(leaf.basis, v)
        if not consistent:
            ok_moment = False
            break
        for j in range(leaf.dim):
            lhs = dot([form.matrix.entry(i, j) for i in range(leaf.dim)], coeff)
            rhs = dot(mudual, leaf.basis.col(j))
            if lhs != rhs:
                ok_moment = False
                break
        if not ok_moment:
            break
    checks["moment_identity"] = ok_moment

    checks["d_identity"] = _leaf_d_identity(point, rng)
    checks["passed"] = all(checks.values())
    return form, leaf, checks


def _leaf_d_identity(point: GSPoint, rng: SplitMix64, triples: int = 2) -> bool:
    """d of the leaf form against -eta pulled back, computed upstairs."""
    ctx = point.ctx
    tpart, upart = borel_decompose(point.b)
    tmat = tpart.m
    slice_space = Space(ctx, ("g", "u"))

    def omega_slice(q, u, v):
        gq, uq = q
        um = slice_space.matrices(u)
        vm = slice_space.matrices(v)
        b = tmat @ uq
        return omega_value(ctx, gq, b, (um[0], um[1]), (vm[0], vm[1]))

    def conj_map(q):
        gq, uq = q
        b = tmat @ uq
        return (gq @ b @ gq.inverse(),)

    target = Space(ctx, ("g",))
    cmap = PointedMap("mu-on-slice", slice_space, target, conj_map)
    pt = (point.g.m, upart.m)
    dm = cmap.differential_matrix(pt)
    dim = slice_space.dim
    for _ in range(triples):
        dirs = [[QQi(rng.rational(3)) for _ in range(dim)] for _ in range(3)]
        lhs = d_two_form(omega_slice, slice_space, pt, *dirs)
        mats = [ctx.mat_from_coords(mat_vec(dm, v)) for v in dirs]
        rhs = -ctx.eta(mats[0], mats[1], mats[2])
        if lhs != rhs:
            return False
    return True


def reconstruct_bivector(chart: QuotientChart):
    """Rebuild the bivector of the quotient structure from the chart's fiber.

    For each covector the defining pair of conditions (image under d(mu)
    prescribed through the adjoints, membership of (X, C^* alpha) in the
    fiber) has a unique solution; failures are reported.  Returns
    (bivector, checks).
    """
    ctx = chart.ctx
    point = chart.point
    fib = chart.fiber
    h = chart.hdim
    d = ctx.dim_g
    m = mu(point)
    dmu = dmu_chart(chart)
    top = fib.basis.row_block(0, h)
    bot = fib.basis.row_block(h, fib.basis.rows)

    # chart-level action map R: algebra coords -> chart tangent coords, from
    # the pairs that also span the action part of the graph below
    pairs = list(induced_action_pairs(chart, dmu))
    rmat = Mat.from_columns([vec for vec, _ in pairs], h, EXACT)

    # sigma-adjoint of the dual basis covectors at m; column i of gram^-1 is
    # the algebra coordinate of the i-th one
    duals = [AlgebraElement(ctx, ctx.mat_from_coords(ctx.gram_inv.col(i)), check=False)
             for i in range(d)]
    sv = [ctx.coords(sigma_adjoint(Covector(m, a)).m) for a in duals]

    admat = Mat.from_columns(
        [ctx.coords(m.m @ ctx.basis[k] @ m.inv) for k in range(d)], d, EXACT
    )
    rho_adj = Mat.identity(d) - admat           # v -> v - Ad_m v
    cmat = Mat.identity(h) - (rmat @ rho_adj @ dmu).scale(QQi(Fraction(1, 4)))

    # image condition mu_* X = -(sigma-adjoint dual of rho_M^* alpha); the
    # sign is the one consistent with the frozen action-generator flip, and
    # is validated through the moment and graph-consistency checks below
    rsv = [mat_vec(rmat, sv[k]) for k in range(d)]
    system = bot.vstack(dmu @ top)
    pi_cols = []
    for i in range(h):
        # alpha = e_i: C^* alpha is row i of C, and <alpha, R sv_k> entry i
        rhs = list(cmat.data[i]) + [-rsv[k][i] for k in range(d)]
        sol, unique, consistent = solve_unique(system, rhs)
        if not consistent or not unique:
            return None, {"solvable": False, "unique": unique, "passed": False}
        pi_cols.append(mat_vec(top, sol))
    pimat = Mat.from_columns(pi_cols, h, EXACT)
    pi = BivectorFiber(point.to_json(), pimat)

    checks = {"solvable": True, "skew": pi.is_skew()}

    ok_moment = True
    for i in range(d):
        # beta = e_i: d(mu)^T beta is row i of d(mu)
        if mat_vec(pimat, list(dmu.data[i])) != rsv[i]:
            ok_moment = False
            break
    checks["moment_condition"] = ok_moment

    cols = [list(pimat.col(i)) + list(cmat.data[i]) for i in range(h)]
    cols += [vec + alpha for vec, alpha in pairs]
    span = Subspace.from_vectors(cols, 2 * h, EXACT)
    checks["graph_consistency"] = span.equals(fib.subspace())
    checks["passed"] = all(checks.values())
    return pi, checks


# ---------------------------------------------------------------------------
# Weyl fibers over regular semisimple elements (float backend)


def _eigenvalues(mf: Mat, n: int) -> list[complex]:
    """Closed-form eigenvalues for n <= 3, quartic via roots; Newton polish."""
    a = mf.to_numpy()
    coeffs = np.poly(a)  # leading 1
    if n == 2:
        tr = coeffs[1]
        disc = (tr * tr - 4 * coeffs[2]) ** 0.5
        roots = [(-tr + disc) / 2, (-tr - disc) / 2]
    elif n == 3:
        roots = _cardano(coeffs[1], coeffs[2], coeffs[3])
    else:
        roots = list(np.roots(coeffs))
    poly = np.poly1d(coeffs)
    dpoly = poly.deriv()
    polished = []
    for r in roots:
        z = complex(r)
        for _ in range(3):
            dz = dpoly(z)
            if abs(dz) < 1e-300:
                break
            z = z - poly(z) / dz
        polished.append(z)
    return polished


def _cardano(a, b, c) -> list[complex]:
    """Roots of z^3 + a z^2 + b z + c by the classical formula.

    Complex arithmetic throughout: a negative real discriminant (three real
    roots) must take a complex square root.
    """
    a, b, c = complex(a), complex(b), complex(c)
    p = b - a * a / 3
    q = 2 * a**3 / 27 - a * b / 3 + c
    disc = (q / 2) ** 2 + (p / 3) ** 3
    s = disc ** 0.5
    u3 = -q / 2 + s
    if abs(u3) < 1e-30:
        u3 = -q / 2 - s
    u = u3 ** (1 / 3)
    w = complex(-0.5, math.sqrt(3) / 2)
    roots = []
    for k in range(3):
        uk = u * w**k
        y = uk - p / (3 * uk) if abs(uk) > 1e-30 else 0j
        roots.append(y - a / 3)
    return roots


def weyl_fiber_enum(g: GroupElement, tol: float = 1e-8) -> list[GSPoint]:
    """All points of the mu-fiber over a regular semisimple element.

    Built from eigenvector orderings on the float backend; exactly n!
    pairwise-inequivalent points, each reproducing g to the residual
    tolerance.  Raises :class:`NotRegularSemisimple` when eigenvalues
    collide within tolerance.
    """
    ctx = g.ctx
    n = ctx.n
    mf = g.m.to_float()
    lam_ = _eigenvalues(mf, n)
    scale = max(1.0, max(abs(l) for l in lam_))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(lam_[i] - lam_[j]) <= tol * scale:
                raise NotRegularSemisimple("not regular semisimple")
    eye = Mat.identity(n, FLOAT)
    vecs = []
    for l in lam_:
        shifted = mf - eye.scale(complex(l))
        null = kernel(shifted)
        if null.dim != 1:
            raise NotRegularSemisimple("eigenvector extraction failed")
        vecs.append(null.basis.col(0))
    points = []
    for perm in itertools.permutations(range(n)):
        cols = [vecs[perm[j]] for j in range(n)]
        hmat = Mat.from_columns(cols, n, FLOAT)
        det = hmat.det()
        if ctx.family == "SL":
            cols = [[x / det for x in cols[0]]] + cols[1:]
            hmat = Mat.from_columns(cols, n, FLOAT)
        bmat = Mat(
            [[complex(lam_[perm[i]]) if i == j else 0j for j in range(n)]
             for i in range(n)],
            FLOAT,
        )
        points.append(
            GSPoint(
                GroupElement(ctx, hmat, check=False),
                GroupElement(ctx, bmat, check=False),
            )
        )
    return points


def mu_residual(point: GSPoint, g: GroupElement) -> float:
    diff = mu(point).m.to_float() - g.m.to_float()
    return diff.max_abs()


# ---------------------------------------------------------------------------
# seeded sampling


def sample_double(ctx: GroupContext, rng: SplitMix64) -> DoublePoint:
    return DoublePoint(random_point(ctx, "G", rng), random_point(ctx, "G", rng))


def sample_gspoint(ctx: GroupContext, rng: SplitMix64,
                   stratum: str = "random") -> GSPoint:
    """Sample a quotient point; degenerate strata are first-class citizens."""
    g = random_point(ctx, "G", rng)
    if stratum == "identity-b":
        b = GroupElement(ctx, Mat.identity(ctx.n), check=False)
    elif stratum == "springer":
        b = random_point(ctx, "U", rng)
    elif stratum == "nonregular":
        b = GroupElement(ctx, _nonregular_torus(ctx, rng) @ random_point(ctx, "U", rng).m,
                         check=False)
    else:
        b = random_point(ctx, "B", rng)
    return GSPoint(g, b)


FORCED_STRATA = ("springer", "nonregular", "identity-b")


def gspoint_stream(ctx: GroupContext, rng: SplitMix64, samples: int) -> list[GSPoint]:
    """Deterministic stream that always exercises the degenerate strata."""
    out = []
    for i in range(samples):
        stratum = FORCED_STRATA[i] if i < len(FORCED_STRATA) else "random"
        out.append(sample_gspoint(ctx, rng, stratum))
    return out


def _nonregular_torus(ctx: GroupContext, rng: SplitMix64) -> Mat:
    n = ctx.n
    r = rng.rational(6, nonzero=True)
    entries = [r, r]
    while len(entries) < n:
        entries.append(rng.rational(6, nonzero=True))
    if ctx.family == "SL":
        prod = Fraction(1)
        for e in entries[:-1]:
            prod *= e
        entries[-1] = 1 / prod
        if n == 2:
            entries = [Fraction(-1), Fraction(-1)]
    return Mat(
        [[QQi(entries[i]) if i == j else QQi(0) for j in range(n)] for i in range(n)]
    )
