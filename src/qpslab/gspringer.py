"""The fusion double, its restriction to G x B, and the quotient G x_B B.

Everything here is pointwise and exact, apart from the Weyl-fiber
enumeration at the end, which runs on numpy arrays.  The double G x G
carries the 2-form

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

omega depends on the point only through T = G Ad_b, so its matrix
(:func:`omega_matrix`) and its exterior derivative (:func:`d_omega`) are
closed block forms on the integer kernel; the derivative of T along a
direction is a bracket, read from the structure constants.  The suites take
d(omega) on the double and on the leaf slice G x tU from :func:`d_omega`.
The entrywise :func:`omega_value` (with :func:`omega_fn`) and the
dual-number :func:`~qpslab.diffcalc.d_two_form` are kept as the independent
oracles of both closed forms in the tests.

Quotient computations work in per-point charts: the vertical space of the
B-action h.(g,b) = (g h^-1, h b h^-1) is complemented by a deterministic
greedy choice of coordinate directions, and representative independence is
itself one of the verified claims, never an assumption.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .conventions import ACTIVE
from .diffcalc import PointedMap, Space
from .dirac import (DiracFiber, TwoFormFiber, BivectorFiber, cartan_dirac,
                    graph_two_form, is_lagrangian, pushforward_linear)
from .liegroup import (AlgebraElement, GroupContext, GroupElement, chevalley,
                       conjugation_sections, group_of_json, random_point,
                       read_element, sigma, sigma_average, torus_part, _mul_frac)
from .linalg import (Mat, Subspace, intersect, kernel, mat_vec, rank, rref,
                     solve_columns)
from .matio import entry_pairs, mat_to_json
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
    def from_json(cls, obj: dict) -> "DoublePoint":
        ctx = group_of_json(obj)
        return cls(read_element(ctx, obj["a"]), read_element(ctx, obj["b"]))


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

    def same_class(self, other: "GSPoint") -> bool:
        """Decidable equivalence: h = g2^-1 g1 in B and b2 = h b1 h^-1."""
        if self.ctx is not other.ctx:
            return False
        h = other.g.inv @ self.g.m
        if not self.ctx.in_borel(h):
            return False
        return h @ self.b.m @ h.inverse() == other.b.m

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
    def from_json(cls, obj: dict) -> "GSPoint":
        ctx = group_of_json(obj)
        return cls(read_element(ctx, obj["g"]), read_element(ctx, obj["b"]))

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


def phi_differential(a: GroupElement, b: GroupElement, space: Space) -> Mat:
    """Closed-form differential of (a, b) -> (a b a^-1, b^-1) on the space.

    (x, y) -> (Ad_a (Ad_{b^-1} x + y - x), -Ad_b y), so with k the size of
    the second factor the matrix is

        [[Ad_a (Ad_{b^-1} - I), Ad_a|k], [0, -Ad_b|k x k]],

    where Ad_a Ad_{b^-1} = Ad_{a b^-1} and |k keeps the first k columns (and
    rows).  The per-basis columns coords(a (b^-1 x b - x) a^-1) and
    (coords(a y a^-1), -coords(b y b^-1)) are its oracle in the tests, as is
    the dual-number route in diffcalc.  On the double it is the differential
    of the moment map.  On G x B coordinates it is the leading principal
    block of the double's matrix, since the Borel basis is a prefix of the
    algebra basis; its first dim G rows are d(mu . q).  The inverses are the
    elements' cached ones.
    """
    if space.parts not in (("g", "g"), ("g", "b")):
        raise ValueError("phi differential lives on G x G or G x B coordinates")
    ctx = a.ctx
    d = ctx.dim_g
    k = space.dim - d  # second-factor block size (d or dim_b)
    ad_a = ctx.adjoint(a.m, a.inv)
    top = (ctx.adjoint(a.m @ b.inv, b.m @ a.inv) - ad_a).hstack(ad_a.col_block(0, k))
    ad_b = ctx.adjoint(b.m, b.inv).row_block(0, k).col_block(0, k)
    return top.vstack(Mat.zeros(k, d).hstack(-ad_b))


def rho_double(a: GroupElement, b: GroupElement, xi1: Mat, xi2: Mat) -> list:
    """Action generator of (xi1, xi2) on the double at (a, b), left-trivialized.

    Sign convention: the negative of the derivative of the printed action,
    matching the xi^L - xi^R convention of the conjugation structure (on the
    second factor this is literally xi2^L - xi2^R).
    """
    u1 = xi2 - a.inv @ xi1 @ a.m
    u2 = xi2 - b.inv @ xi2 @ b.m
    return a.ctx.coords(u1) + a.ctx.coords(u2)


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
    """omega as a coordinate-bilinear family usable by d_two_form.

    With :func:`~qpslab.diffcalc.d_two_form` it is the oracle of
    :func:`d_omega` in the tests; no suite evaluates it.
    """

    def ev(point, u, v):
        a, b = point
        um = space.matrices(u)
        vm = space.matrices(v)
        return omega_value(ctx, a, b, (um[0], um[1]), (vm[0], vm[1]))

    return ev


def gram_ad(ctx: GroupContext, bmat: Mat, binv: Mat) -> Mat:
    """T = G Ad_b, through which omega depends on the point; ``binv`` is b^-1."""
    return ctx.gram @ ctx.adjoint(bmat, binv)


def omega_matrix(ctx: GroupContext, bmat: Mat, space: Space,
                 t: Mat | None = None) -> Mat:
    """Matrix of omega on the space's tangent basis.

    Uses the closed block form W = -s/2 [[T' - T, T + G], [-(T' + G), 0]]
    with T = G Ad_b on algebra coordinates (:func:`gram_ad`; pass it as
    ``t`` when the caller already has it) and G the form's Gram matrix.
    omega depends on the point (a, b) only through b, so a is not taken; the
    entrywise evaluator :func:`omega_value` is the independent oracle for
    this in the tests.  Valid for the double space and its G x B and G x U
    coordinate restrictions (leading principal submatrices, since the Borel
    and unipotent bases are prefixes of the algebra basis).
    """
    if space.parts not in (("g", "g"), ("g", "b"), ("g", "u")):
        raise ValueError("omega matrix lives on G x G, G x B or G x U coordinates")
    d = ctx.dim_g
    gram = ctx.gram
    if t is None:
        t = gram_ad(ctx, bmat, bmat.inverse())
    tt = t.transpose()
    k = space.dim - d  # second-factor block size (d, dim_b or dim_u)
    w12 = (t + gram).col_block(0, k)
    w21 = (-(tt + gram)).row_block(0, k)
    w = (tt - t).hstack(w12).vstack(w21.hstack(Mat.zeros(k, k)))
    return w.scale(Fraction(-ACTIVE.get().omega_sign, 2))


def _t_derivative(t: Mat, r: Mat) -> Mat:
    """The derivative -T R(y) of T = G Ad_b along b (I + s y), ``r`` being R(y).

    Ad_{b (I + s y)} = Ad_b (I + s ad_y) and ad_y = -R(y).  The product is
    associative, so ``t`` may be any P T and ``r`` any R(y) E.
    """
    return -(t @ r)


def d_omega(ctx: GroupContext, space: Space, t: Mat, w: Mat, x, y, z):
    """d(omega)(x, y, z) from the block form of :func:`omega_matrix`.

    ``t`` is :func:`gram_ad` at the point and ``w`` the omega matrix there,
    on the double or one of its G x B and G x U slices; ``x``, ``y``, ``z``
    are tangent coordinates.  With constant-coordinate fields,

        d(omega)(X, Y, Z) = sum_cyc [ Y' (d_X W) Z - [X, Y]' W Z ].

    W depends on the point only through T, and along (x, y) the matrix T
    moves by -T R(y) (:func:`_t_derivative`), so d_X W is the block form with
    T replaced by D = -T R(y_X) and the constant G blocks dropped.  On the
    directions u_j, that form is -s/2 (K[j, l] - K[l, j]) with K = P' D (Q - P),
    the columns of P and Q being the first- and second-factor parts of the
    directions (the second zero-padded to dim G).  Brackets come from the
    structure constants: coords([a, b]) = R(b) a, blockwise.
    :func:`~qpslab.diffcalc.d_two_form` of :func:`omega_fn` is the oracle
    for this in the tests.
    """
    d = ctx.dim_g
    k = space.dim - d
    v = Mat.from_columns([x, y, z], space.dim)
    first = v.row_block(0, d)
    second = v.row_block(d, space.dim)
    if k < d:
        second = second.vstack(Mat.zeros(d - k, 3))
    rs = ctx.bracket_matrices(first.hstack(second))
    cyc = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    brackets = Mat.from_columns(
        [mat_vec(rs[j], first.col(i)) + mat_vec(rs[3 + j], second.col(i))[:k]
         for i, j, _ in cyc],
        space.dim)
    # entry (c, l): omega of the c-th bracket and the l-th direction
    alg = brackets.transpose() @ w @ v
    # K = P' D (Q - P), associated as (P' T) (R (Q - P)) to keep it 3 wide
    pt, diff = first.transpose() @ t, second - first
    half = Fraction(-ACTIVE.get().omega_sign, 2)
    total = QQi(0)
    for c, (i, j, l) in enumerate(cyc):
        kmat = _t_derivative(pt, rs[3 + i] @ diff)
        total = total + (kmat.entry(j, l) - kmat.entry(l, j)) * half - alg.entry(c, l)
    return total


def omega_double(p: DoublePoint) -> TwoFormFiber:
    ctx = p.ctx
    return TwoFormFiber(
        (p.a.m, p.b.m),
        omega_matrix(ctx, p.b.m, double_space(ctx)),
    )


def moment_condition_holds(p: DoublePoint, w: Mat, dphi: Mat) -> bool:
    """omega^flat of every basis action field equals its pulled-back sigma
    covector (axiom A1), as one matrix equation.

    ``w`` and ``dphi`` are :func:`omega_matrix` and :func:`phi_differential`
    at ``p`` on the double.  The action generator of (xi1, xi2) is
    R (xi1, xi2) with

        R = [[-Ad_{a^-1}, I], [0, I - Ad_{b^-1}]]

    (:func:`rho_double`), and its sigma covector at phi(p) = (g1, b^-1) has
    functional coordinates diag(G sigma(I, Ad_{g1^-1}), G sigma(I, Ad_b)),
    the A blocks of :func:`~qpslab.liegroup.conjugation_sections` at g1 and
    at b^-1.  So A1 on the basis of g (+) g is

        W' R == dphi' diag(G sigma(I, Ad_{g1^-1}), G sigma(I, Ad_b)).

    The per-generator :func:`moment_condition_check` is the oracle for this
    in the tests.
    """
    ctx = p.ctx
    a, b = p.a, p.b
    d = ctx.dim_g
    eye, zero = Mat.identity(d), Mat.zeros(d, d)
    r = (-ctx.adjoint(a.inv, a.m)).hstack(eye).vstack(
        zero.hstack(eye - ctx.adjoint(b.inv, b.m)))
    # g1 = a b a^-1, so g1^-1 = a b^-1 a^-1
    s1 = conjugation_sections(ctx, a.m @ b.m @ a.inv, a.m @ b.inv @ a.inv)[2]
    s2 = conjugation_sections(ctx, b.inv, b.m)[2]
    sig = s1.hstack(zero).vstack(zero.hstack(s2))
    return w.transpose() @ r == dphi.transpose() @ sig


def moment_condition_check(p: DoublePoint, w: Mat, dphi: Mat,
                           generators) -> bool:
    """omega^flat of each action field equals the pulled-back sigma covector.

    ``w`` and ``dphi`` are :func:`omega_matrix` and :func:`phi_differential`
    at ``p`` on the double; ``generators`` holds (xi1, xi2) pairs of algebra
    matrices.  True when the condition holds for every pair.  On the basis
    of g (+) g this is the matrix equation of :func:`moment_condition_holds`,
    which the double suite runs; this per-generator route is its oracle in
    the tests.
    """
    ctx = p.ctx
    wt, dphit = w.transpose(), dphi.transpose()
    g1, g2 = phi(p)
    for xi1, xi2 in generators:
        lhs = mat_vec(wt, rho_double(p.a, p.b, xi1, xi2))
        dual = (sigma(g1, AlgebraElement(ctx, xi1, check=False)).dual_coords()
                + sigma(g2, AlgebraElement(ctx, xi2, check=False)).dual_coords())
        if lhs != mat_vec(dphit, dual):
            return False
    return True


# ---------------------------------------------------------------------------
# restriction to G x B and the quotient chart


def restrict_to_GxB(g: GroupElement, b: GroupElement) -> DiracFiber:
    """Graph of the double form restricted to the coordinate subspace T(GxB)."""
    ctx = g.ctx
    if not ctx.in_borel(b.m):
        raise ValueError("second component must lie in the Borel subgroup")
    w = omega_matrix(ctx, b.m, gxb_space(ctx))
    return graph_two_form(TwoFormFiber((g.m, b.m), w))


def b_action_directions(b: GroupElement, part: str) -> Subspace:
    """Span of the B-action generators at (g, b) of the basis of ``part``.

    The generator of xi is (-xi, Ad_{b^-1} xi - xi) in G x B coordinates; it
    does not depend on g.  So the span is that of the columns of ``part`` in
    [-I; (Ad_{b^-1} - I)|b], |b keeping the Borel rows.  ``part`` is "b"
    (the vertical space) or "u".  The per-basis generators are the oracle for
    this in the tests.
    """
    ctx = b.ctx
    idx = ctx.sub_indices(part)
    eye = Mat.identity(ctx.dim_g)
    moved = (ctx.adjoint(b.inv, b.m) - eye).row_block(0, ctx.dim_b)
    gens = (-eye).vstack(moved).col_block(idx.start, idx.stop)
    return Subspace.from_spanning(gens)


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
    return torus_part(p.b)


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
        cols.append(ctx.part_coords("t", Mat(diag)))
    return Mat.from_columns(cols, ctx.dim_t)


def dmu_chart(chart: QuotientChart) -> Mat:
    ctx = chart.ctx
    up = phi_differential(chart.point.g, chart.point.b, gxb_space(ctx))
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


def induced_action(chart: QuotientChart, dmu: Mat) -> tuple[Mat, Mat]:
    """The h x dim G matrices of q_* rho(e_k) and d(mu)^T sigma(mu, e_k).

    Column k of the first is :func:`chart_action_field` of the algebra basis
    element e_k, and of the second the pulled-back sigma covector; ``dmu`` is
    :func:`dmu_chart` of the chart.  Both are linear in e_k, so each is one
    product: rho(e_k) upstairs is (-Ad_{g^-1} e_k, 0), and the functional
    coordinates of every sigma(mu, e_k) are the columns of the A block of
    :func:`~qpslab.liegroup.conjugation_sections` at mu.
    """
    ctx = chart.ctx
    g = chart.point.g
    d = ctx.dim_g
    fields = -(chart.proj.col_block(0, d) @ ctx.adjoint(g.inv, g.m))
    m = mu(chart.point)
    return fields, dmu.transpose() @ conjugation_sections(ctx, m.m, m.inv)[2]


def chart_transport(chart1: QuotientChart, chart2: QuotientChart,
                    h: GroupElement) -> Mat:
    """Identification of chart1 with chart2 when point2 = h . point1.

    The action diffeomorphism has differential Ad_h (+) Ad_h upstairs and
    descends to the identity on the quotient tangent space, so the matrix is
    proj2 diag(Ad_h, Ad_h|b x b) inc1: h is in B, so Ad_h keeps the Borel
    coordinates among themselves.
    """
    ctx = chart1.ctx
    d, db = ctx.dim_g, ctx.dim_b
    ad = ctx.adjoint(h.m, h.inv)
    move = ad.hstack(Mat.zeros(d, db)).vstack(
        Mat.zeros(db, d).hstack(ad.row_block(0, db).col_block(0, db)))
    return chart2.proj @ move @ chart1.inc


# ---------------------------------------------------------------------------
# the verification computations


def regact_check(g: GroupElement, b: GroupElement) -> dict:
    """Intersection of the B-action directions with the restricted graph.

    Passes when the intersection is exactly the unipotent directions, so its
    dimension is dim U at every point (the regularity making the quotient a
    bundle).
    """
    ctx = g.ctx
    w = omega_matrix(ctx, b.m, gxb_space(ctx))
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
    dphi = phi_differential(point.g, point.b, gxb_space(ctx))
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

    # one rank test for all dim G pairs; only a failure walks them for the
    # first basis index outside the fiber
    fields, duals = induced_action(chart, dmu)
    out["induced_action"] = rank(fib.basis.hstack(fields.vstack(duals))) == fib.dim
    if not out["induced_action"]:
        out["witness_action"] = {"basis_index": next(
            k for k in range(ctx.dim_g)
            if not fib.contains(fields.col(k), duals.col(k)))}

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
    return Subspace.from_vectors([chart.proj.col(k) for k in upstairs], chart.hdim)


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
    the graph over the leaf directions: with the fiber's basis cut into its
    tangent rows ``top`` and covector rows ``bot``, one rref of ``[top | L]``
    gives the coefficients S of every leaf basis vector (the columns of L),
    and the form is (bot S)' L; isotropy of the fiber makes the matrix
    well-defined and skew.  Checks:

    * the restricted moment identity: the action fields V lie in the span of
      L, with coefficients C from one rref of ``[L | V]``, and F' C = L' M
      for the form F and the pulled-back sigma covectors M;
    * the exterior-derivative identity d(omega_leaf) = -mu^* eta, evaluated
      upstairs on the G x tU slice where the leaf is a coordinate subspace
      (:func:`_leaf_d_identity`), on random directions drawn from ``rng`` (a
      campaign passes the point's salted stream).
    """
    ctx = chart.ctx
    point = chart.point
    fib = chart.fiber
    leaf = fib.tangent_part()
    h = chart.hdim
    top = fib.basis.row_block(0, h)
    bot = fib.basis.row_block(h, fib.basis.rows)
    # the leaf has dimension dim G - rank > 0 (theorem2_check)
    sols, _, consistent = solve_columns(top, leaf.basis)
    if not consistent:
        return None, leaf, {"graphical": False, "passed": False}
    form = TwoFormFiber(point.to_json(), (bot @ sols).transpose() @ leaf.basis)
    checks = {"graphical": True, "skew": form.is_skew()}

    # one G x B differential serves d(mu) on the chart and on the slice
    d = ctx.dim_g
    dphi = phi_differential(point.g, point.b, gxb_space(ctx)).row_block(0, d)
    fields, duals = induced_action(chart, dphi @ chart.inc)
    coeffs, _, consistent = solve_columns(leaf.basis, fields)
    checks["moment_identity"] = consistent and (
        form.matrix.transpose() @ coeffs == leaf.basis.transpose() @ duals)

    checks["d_identity"] = _leaf_d_identity(point, dphi.col_block(0, d + ctx.dim_u),
                                            rng)
    checks["passed"] = all(checks.values())
    return form, leaf, checks


def _leaf_d_identity(point: GSPoint, dmu: Mat, rng: SplitMix64,
                     triples: int = 2) -> bool:
    """d of the leaf form against -eta pulled back, computed upstairs.

    On the G x tU slice through (g, u), with b = t u, the leaf form is the
    pullback of omega, whose matrix is the G x U block of
    :func:`omega_matrix` at (g, b): the slice curve u (I + s y) is the curve
    b (I + s y).  So d(omega) comes from :func:`d_omega`, and the
    dual-number route (:func:`~qpslab.diffcalc.d_two_form` of
    :func:`omega_value`) is its oracle in the tests.  ``dmu`` is d(mu) on
    the slice, (g, u) -> g t u g^-1: the first dim G rows and dim G + dim U
    columns of the G x B :func:`phi_differential`.  Each triple is three
    height-3 direction vectors drawn from ``rng``; the first failing triple
    ends the check.
    """
    ctx = point.ctx
    space = Space(ctx, ("g", "u"))
    t = gram_ad(ctx, point.b.m, point.b.inv)
    w = omega_matrix(ctx, point.b.m, space, t=t)
    dim = space.dim
    for _ in range(triples):
        dirs = [[QQi(rng.rational(3)) for _ in range(dim)] for _ in range(3)]
        lhs = d_omega(ctx, space, t, w, *dirs)
        mats = [ctx.mat_from_coords(mat_vec(dmu, v)) for v in dirs]
        rhs = -ctx.eta(mats[0], mats[1], mats[2])
        if lhs != rhs:
            return False
    return True


def reconstruct_bivector(chart: QuotientChart):
    """Rebuild the bivector of the quotient structure from the chart's fiber.

    For each covector the defining pair of conditions (image under d(mu)
    prescribed through the adjoints, membership of (X, C^* alpha) in the
    fiber) has a unique solution; the h covectors e_i are solved together,
    by one rref with h right-hand sides, and failures are reported.  Returns
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
    rmat, duals = induced_action(chart, dmu)

    # sigma-adjoint of the dual basis covectors at m; column i of gram^-1 is
    # the algebra coordinate of the i-th one, so column i of sv is the
    # algebra coordinate of its sigma-adjoint
    adm = ctx.adjoint(m.m, m.inv)
    sv = sigma_average(ctx.gram_inv, adm @ ctx.gram_inv)

    rho_adj = Mat.identity(d) - adm  # v -> v - Ad_m v
    cmat = Mat.identity(h) - (rmat @ rho_adj @ dmu).scale(QQi(Fraction(1, 4)))

    # image condition mu_* X = -(sigma-adjoint dual of rho_M^* alpha); the
    # sign is the one consistent with the frozen action-generator flip, and
    # is validated through the moment and graph-consistency checks below.
    # For alpha = e_i: C^* alpha is row i of C, and <alpha, R sv_k> is entry
    # i of column k of R sv.
    rsv = rmat @ sv
    rhs = cmat.transpose().vstack(-rsv.transpose())
    sols, unique, consistent = solve_columns(bot.vstack(dmu @ top), rhs)
    if not consistent or not unique:
        return None, {"solvable": False, "unique": unique, "passed": False}
    pimat = top @ sols
    pi = BivectorFiber(point.to_json(), pimat)

    checks = {"solvable": True, "skew": pi.is_skew()}
    # beta = e_i: d(mu)^T beta is row i of d(mu)
    checks["moment_condition"] = pimat @ dmu.transpose() == rsv
    span = Subspace.from_spanning(
        pimat.vstack(cmat.transpose()).hstack(rmat.vstack(duals)))
    checks["graph_consistency"] = span.equals(fib.subspace())
    checks["passed"] = all(checks.values())
    return pi, checks


# ---------------------------------------------------------------------------
# Weyl fibers over regular semisimple elements, in floating point
#
# The one float check of the package, and the only numpy code: it runs on
# complex128 arrays.  A float fiber point is a pair (h, b) of n x n arrays,
# the representative h and the diagonal b, read as the class [h : b].


def float_array(m: Mat) -> np.ndarray:
    """The complex128 array of an exact matrix."""
    return np.array([[x.to_complex() for x in r] for r in m.data], dtype=complex)


def float_element_from_json(obj: dict) -> tuple[GroupContext, np.ndarray]:
    """The group and the complex128 matrix of a group element object.

    Entries are fraction strings or plain numbers.  The matrix must be n x n
    for the group and not numerically singular, and on SL its determinant
    must be 1 within 1e-6.
    """
    ctx = group_of_json(obj)
    rows, cols, pairs = entry_pairs(obj)
    if rows != ctx.n or cols != ctx.n:
        raise ValueError(f"matrix size does not match group {ctx.name}")
    g = np.array([complex(_float_part(re), _float_part(im)) for re, im in pairs],
                 dtype=complex).reshape(rows, cols)
    d = np.linalg.det(g)
    if abs(d) < 1e-12:
        raise ValueError("group element numerically singular")
    if ctx.family == "SL" and abs(d - 1) > 1e-6:
        raise ValueError("SL element must have determinant ~1")
    return ctx, g


def _float_part(v) -> float:
    if isinstance(v, str):
        return float(Fraction(v))
    if isinstance(v, (int, float)):
        return float(v)
    raise ValueError(f"bad scalar entry {v!r}")


def weyl_fiber_enum(ctx: GroupContext, g: np.ndarray,
                    tol: float = 1e-8) -> list[tuple[np.ndarray, np.ndarray]]:
    """All points (h, b) of the mu-fiber over a regular semisimple element g.

    One ``np.linalg.eig`` call (LAPACK ``geev``, backward stable) gives the
    eigenvalues and unit eigenvectors; each ordering of the eigenvectors, as
    the columns of h (determinant 1 on SL), with the matching diagonal b is
    one of exactly n! pairwise-inequivalent points, each reproducing g to
    the residual tolerance.  Raises :class:`NotRegularSemisimple` when
    eigenvalues collide within ``tol`` relative to the largest modulus (at
    least 1).
    """
    n = ctx.n
    lam_, evecs = np.linalg.eig(g)
    scale = max(1.0, np.abs(lam_).max())
    for i in range(n):
        for j in range(i + 1, n):
            if abs(lam_[i] - lam_[j]) <= tol * scale:
                raise NotRegularSemisimple("not regular semisimple")
    points = []
    for perm in itertools.permutations(range(n)):
        h = evecs[:, list(perm)]
        if ctx.family == "SL":
            h[:, 0] /= np.linalg.det(h)
        points.append((h, np.diag(lam_[list(perm)])))
    return points


def float_mu(point: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """mu of a float point (h, b): h b h^-1."""
    h, b = point
    return h @ b @ np.linalg.inv(h)


def mu_residual(point: tuple[np.ndarray, np.ndarray], g: np.ndarray) -> float:
    """The largest modulus of an entry of mu(point) - g."""
    return float(np.abs(float_mu(point) - g).max())


def float_same_class(p: tuple, q: tuple, tol: float) -> bool:
    """:meth:`GSPoint.same_class` of two float points, to the tolerance ``tol``.

    h = h_q^-1 h_p is upper triangular when no entry below the diagonal
    exceeds ``tol * max(1, max|h|)``; then h b_p h^-1 - b_q is zero when its
    largest modulus m satisfies ``m <= tol * max(1, m)``.
    """
    h = np.linalg.inv(q[0]) @ p[0]
    if np.abs(np.tril(h, -1)).max() > tol * max(1.0, np.abs(h).max()):
        return False
    diff = float(np.abs(float_mu((h, p[1])) - q[1]).max())
    return diff <= tol * max(1.0, diff)


def float_point_to_json(ctx: GroupContext, point: tuple) -> dict:
    """A float point in the layout of :meth:`GSPoint.to_json`; each entry is
    a ``[real, imaginary]`` pair of numbers."""
    def mat(a):
        return {"rows": ctx.n, "cols": ctx.n,
                "entries": [[x.real, x.imag] for x in a.ravel().tolist()]}

    return {"g": mat(point[0]), "b": mat(point[1]), "group": ctx.name}


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
