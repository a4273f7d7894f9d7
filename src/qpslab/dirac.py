"""Pointwise Dirac linear algebra on tangent (+) cotangent fibers.

A fiber at a point of a d-dimensional model space is a subspace of the
2d-dimensional sum of the tangent space and its dual.  Tangent vectors are
left-trivialized coordinate columns; covectors are *functional* coordinates
on the same basis (so the canonical symmetric pairing is a plain dot-product
flip, and no metric is needed where the restricted trace form would be
degenerate).  Covectors handed over as algebra elements are converted
through the context's Gram matrix.

The twisted Dorfman bracket is evaluated with the forward-mode engine of
:mod:`qpslab.diffcalc`; the sign and scale conventions are frozen by the
calibration suite and recorded in :mod:`qpslab.conventions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from . import hooks
from . import liegroup as lg
from .diffcalc import PointedMap, Space, dot_part
from .liegroup import AlgebraElement, GroupElement, conj_field, sigma
from .liegroup import bracket as mbracket
from .linalg import EXACT, Mat, Subspace, dot, intersect, kernel, mat_vec
from .matio import mat_to_json
from .scalars import QQi

# Sign of the twist term in the Dorfman bracket, relative to the frozen
# 3-form normalization in qpslab.liegroup.CARTAN_COEFF.  The pair is pinned
# jointly by requiring (a) d(omega) = -Phi^*(eta (+) eta) on the double and
# (b) closure of the conjugation-structure sections; the calibration script
# rejects every other combination.  With the frozen eta the twist enters
# with the literal printed sign ([X,Y], L_X beta - i_Y d alpha + i_{XY} eta).
DORFMAN_TWIST_SIGN = 1


class DiracFiber:
    """Subspace of tangent (+) cotangent at one point, stored as a basis."""

    __slots__ = ("base", "d", "basis")

    def __init__(self, base, d: int, basis: Mat, canonical: bool = False):
        if basis.rows != 2 * d:
            raise ValueError("fiber basis must have 2d rows")
        if not canonical:
            basis = Subspace(2 * d, basis).basis
        self.base = base
        self.d = d
        self.basis = basis

    @property
    def dim(self) -> int:
        return self.basis.cols

    def subspace(self) -> Subspace:
        return Subspace(2 * self.d, self.basis, canonical=True)

    def tangent_part(self) -> Subspace:
        top = self.basis.row_block(0, self.d)
        return Subspace.from_spanning(top)

    def cotangent_intersection(self, tol=None) -> Subspace:
        """Intersection with the cotangent coordinate subspace."""
        one = QQi(1) if self.basis.backend == EXACT else 1.0 + 0j
        zero = QQi(0) if self.basis.backend == EXACT else 0.0 + 0j
        lower = Subspace.from_vectors(
            [[one if i == self.d + k else zero for i in range(2 * self.d)]
             for k in range(self.d)],
            2 * self.d,
            self.basis.backend,
        )
        return intersect(self.subspace(), lower, tol)

    def contains(self, xcoords: Sequence, acoords: Sequence, tol=None) -> bool:
        return self.subspace().contains_vector(list(xcoords) + list(acoords), tol)

    def equals(self, other: "DiracFiber", tol=None) -> bool:
        return self.d == other.d and self.subspace().equals(other.subspace(), tol)

    def to_json(self) -> dict:
        base = self.base
        if isinstance(base, (list, tuple)):
            base = [mat_to_json(m) for m in base]
        elif isinstance(base, Mat):
            base = mat_to_json(base)
        return {"base": base, "tangent_dim": self.d, "basis": mat_to_json(self.basis)}

    def __repr__(self):
        return f"DiracFiber(d={self.d}, dim={self.dim})"


@dataclass(frozen=True)
class TwoFormFiber:
    """Skew bilinear form on trivialized tangent coordinates at one point."""

    base: object
    matrix: Mat

    def __post_init__(self):
        m = self.matrix
        if m.rows != m.cols:
            raise ValueError("2-form matrix must be square")

    def is_skew(self, tol=None) -> bool:
        return (self.matrix + self.matrix.transpose()).is_zero(tol)

    def value(self, u: Sequence, v: Sequence):
        return dot(list(u), mat_vec(self.matrix, list(v)))

    def flat(self, u: Sequence) -> list:
        """Dual coordinates of ``omega(u, .)``."""
        return mat_vec(self.matrix.transpose(), list(u))


@dataclass(frozen=True)
class BivectorFiber:
    """The sharp map of a bivector: dual coordinates to tangent coordinates."""

    base: object
    matrix: Mat

    def is_skew(self, tol=None) -> bool:
        return (self.matrix + self.matrix.transpose()).is_zero(tol)

    def sharp(self, acoords: Sequence) -> list:
        return mat_vec(self.matrix, list(acoords))


@dataclass(frozen=True)
class DiracSection:
    """Family p -> (tangent coords, covector dual coords), rational in p."""

    name: str
    fn: Callable

    def tangent(self, point):
        return list(self.fn(tuple(point))[0])

    def covector(self, point):
        return list(self.fn(tuple(point))[1])


# ---------------------------------------------------------------------------
# the symmetric pairing and Lagrangian tests


def pairing(e1, e2, ctx=None):
    """The canonical symmetric pairing <(X,a),(Y,b)> = a(Y) + b(X).

    Arguments are pairs (tangent, covector).  Pairs of algebra elements are
    paired through the invariant form (the metric identification of covector
    coordinates); pairs of coordinate sequences are paired directly, with
    the covector slots holding functional coordinates.
    """
    x, a = e1
    y, b = e2
    if hasattr(x, "m"):
        c = ctx or x.ctx
        return c.form(a.m, y.m) + c.form(b.m, x.m)
    return dot(list(a), list(y)) + dot(list(b), list(x))


def pairing_gram(fiber: DiracFiber) -> Mat:
    b = fiber.basis
    d = fiber.d
    if b.cols == 0:
        return Mat.zeros(1, 1, b.backend)
    top = b.row_block(0, d)
    bot = b.row_block(d, b.rows)
    return top.transpose() @ bot + bot.transpose() @ top


def is_lagrangian(fiber: DiracFiber, tol=None):
    """Isotropy plus half-dimensionality, with a witness on failure."""
    if fiber.dim != fiber.d:
        return False, {"reason": "dimension", "dim": fiber.dim, "expected": fiber.d}
    gram = pairing_gram(fiber)
    if fiber.dim and not gram.is_zero(tol):
        for i in range(gram.rows):
            for j in range(gram.cols):
                x = gram.entry(i, j)
                bad = bool(x) if gram.backend == EXACT else abs(x) > (tol or 1e-9)
                if bad:
                    return False, {
                        "reason": "pairing",
                        "pair": [i, j],
                        "value": repr(x),
                    }
    return True, None


# ---------------------------------------------------------------------------
# graphs of forms and bivectors


def graph_two_form(omega: TwoFormFiber) -> DiracFiber:
    """The fiber {(X, omega^flat X)}; Lagrangian whenever omega is skew."""
    if not omega.is_skew():
        raise ValueError("2-form matrix must be skew")
    d = omega.matrix.rows
    basis = Mat.identity(d, omega.matrix.backend).vstack(omega.matrix.transpose())
    return DiracFiber(omega.base, d, basis, canonical=False)


def graph_bivector(pi: BivectorFiber) -> DiracFiber:
    """The fiber {(pi^sharp a, a)}; Lagrangian whenever pi is skew."""
    if not pi.is_skew():
        raise ValueError("bivector matrix must be skew")
    d = pi.matrix.rows
    basis = pi.matrix.vstack(Mat.identity(d, pi.matrix.backend))
    return DiracFiber(pi.base, d, basis, canonical=False)


# ---------------------------------------------------------------------------
# transport along maps


def pushforward_linear(fiber: DiracFiber, fmat: Mat, base=None,
                       tol=None) -> DiracFiber:
    """Pushforward along a linear tangent map given by its matrix.

    f_* L = {(F X, b) | (X, F^T b) in L}; computed by solving the linear
    incidence system exactly.
    """
    v = fiber.d
    w = fmat.rows
    if fmat.cols != v:
        raise ValueError("tangent map has wrong domain dimension")
    k = fiber.dim
    top = fiber.basis.row_block(0, v)
    bot = fiber.basis.row_block(v, fiber.basis.rows)
    backend = fiber.basis.backend
    # unknowns (x, b, c): x - top c = 0 ; F^T b - bot c = 0
    eye = Mat.identity(v, backend)
    z_vw = Mat.zeros(v, w, backend)
    row1 = eye.hstack(z_vw).hstack(-top if k else Mat.zeros(v, 0, backend))
    ft = fmat.transpose()
    row2 = Mat.zeros(v, v, backend).hstack(ft).hstack(-bot if k else Mat.zeros(v, 0, backend))
    system = row1.vstack(row2)
    null = kernel(system, tol)
    if null.dim:
        # columns (F x, b) for the null vectors (x, b, c)
        x = null.basis.row_block(0, v)
        b = null.basis.row_block(v, v + w)
        basis = (fmat @ x).vstack(b)
    else:
        basis = Mat.zeros(2 * w, 0, backend)
    return DiracFiber(base if base is not None else fiber.base, w, basis)


def pullback_linear(fiber: DiracFiber, fmat: Mat, base=None,
                    tol=None) -> DiracFiber:
    """Pullback along a linear tangent map: {(X, F^T b) | (F X, b) in L}."""
    w = fiber.d
    v = fmat.cols
    if fmat.rows != w:
        raise ValueError("tangent map has wrong codomain dimension")
    k = fiber.dim
    top = fiber.basis.row_block(0, w)
    bot = fiber.basis.row_block(w, fiber.basis.rows)
    backend = fiber.basis.backend
    # unknowns (x, b, c): F x - top c = 0 ; b - bot c = 0
    row1 = fmat.hstack(Mat.zeros(w, w, backend)).hstack(-top if k else Mat.zeros(w, 0, backend))
    row2 = Mat.zeros(w, v, backend).hstack(Mat.identity(w, backend)).hstack(
        -bot if k else Mat.zeros(w, 0, backend))
    system = row1.vstack(row2)
    null = kernel(system, tol)
    if null.dim:
        # columns (x, F^T b) for the null vectors (x, b, c)
        x = null.basis.row_block(0, v)
        b = null.basis.row_block(v, v + w)
        basis = x.vstack(fmat.transpose() @ b)
    else:
        basis = Mat.zeros(2 * v, 0, backend)
    return DiracFiber(base if base is not None else fiber.base, v, basis)


def pushforward(fiber: DiracFiber, f: PointedMap, point) -> DiracFiber:
    fmat = f.differential_matrix(point)
    return pushforward_linear(fiber, fmat, base=tuple(f.value(point)))


def pullback(fiber: DiracFiber, f: PointedMap, point) -> DiracFiber:
    fmat = f.differential_matrix(point)
    return pullback_linear(fiber, fmat, base=tuple(point))


# ---------------------------------------------------------------------------
# the twisted Dorfman bracket


def dorfman(s1: DiracSection, s2: DiracSection, eta3, space: Space, point):
    """Twisted Dorfman bracket of two sections at a point.

    Returns (tangent coords, covector dual coords) of
    ([X, Y], L_X beta - i_Y d(alpha) + twist), where the twist is the frozen
    multiple of eta3(X, Y, .).  ``eta3(point, x, y, z)`` evaluates the
    3-form family on coordinate triples; pass ``None`` for the untwisted
    bracket.

    The three derivative-based terms are fused so that each of the 2 + dim
    needed curve directions evaluates both sections exactly once; the
    generic formulas in :mod:`qpslab.diffcalc` are the independent oracle
    for this fusion in the tests.
    """
    point = tuple(point)
    xp, ap = (list(v) for v in s1.fn(point))
    yp, bp = (list(v) for v in s2.fn(point))

    qx = space.curve(point, xp)
    y_on_x, beta_on_x = s2.fn(qx)
    dx_y = [dot_part(v) for v in y_on_x]
    dx_beta = [dot_part(v) for v in beta_on_x]

    qy = space.curve(point, yp)
    x_on_y, alpha_on_y = s1.fn(qy)
    dy_x = [dot_part(v) for v in x_on_y]
    dy_alpha = [dot_part(v) for v in alpha_on_y]

    corr = space.bracket_coords(xp, yp)
    tangent = [a - b + c for a, b, c in zip(dx_y, dy_x, corr)]

    twist_scale = 0
    if eta3 is not None:
        twist_scale = hooks.CURRENT.dorfman_twist_scale * DORFMAN_TWIST_SIGN

    cov = []
    for j, e in enumerate(space.basis_directions()):
        qe = space.curve(point, e)
        x_on_e, alpha_on_e = s1.fn(qe)
        y_on_e, beta_on_e = s2.fn(qe)
        de_x = [dot_part(v) for v in x_on_e]
        de_y = [dot_part(v) for v in y_on_e]
        de_alpha = [dot_part(v) for v in alpha_on_e]

        brx = space.bracket_coords(xp, e)
        commx = [c - d_ for c, d_ in zip(brx, de_x)]
        lxb = dx_beta[j] - dot(bp, commx)

        e_alpha_y = dot(de_alpha, yp) + dot(ap, de_y)
        bry = space.bracket_coords(yp, e)
        commy = [c - d_ for c, d_ in zip(bry, de_y)]
        iyda = dy_alpha[j] - e_alpha_y - dot(ap, commy)

        val = lxb - iyda
        if twist_scale:
            val = val + eta3(point, xp, yp, e) * QQi(twist_scale)
        cov.append(val)
    return tangent, cov


def cartan_closure_check(ctx, gmat: Mat):
    """Full-basis Dorfman closure of the conjugation sections at one point.

    Equivalent to running :func:`dorfman` on every pair of basis sections
    and comparing against the section of the bracket (which is linear in
    xi, so the targets come from structure constants), but with the
    dual-point section evaluations shared across all pairs.  ``dorfman``
    itself is the independent oracle for this batching in the tests.

    Expanded, the covector of the pair (i, j) at basis direction m is

        dxb[i][j][m] - dxb[j][i][m] + dex[m][i].als[j] + dea[m][i].xs[j]
        - bre[i][m].als[j] + bre[j][m].als[i] + c * gb[j][m].xs[i]

    (``dorfman``'s two ``als[i].dex[m][j]`` terms cancel), so every
    contraction is an entry of a product of a stack of such vectors with
    the matrix whose columns are ``als`` or ``xs``.

    Returns (ok, witness).
    """
    space = Space(ctx, ("g",))
    d = ctx.dim_g
    secs = [cartan_section(ctx, b) for b in ctx.basis]
    p = (gmat,)
    xs, als = [], []
    for s in secs:
        x, a = s.fn(p)
        xs.append(list(x))
        als.append(list(a))

    dxy = [[None] * d for _ in range(d)]
    dxb = [[None] * d for _ in range(d)]
    for i in range(d):
        q = space.curve(p, xs[i])
        for j in range(d):
            y, b = secs[j].fn(q)
            dxy[i][j] = [dot_part(v) for v in y]
            dxb[i][j] = [dot_part(v) for v in b]

    dirs = space.basis_directions()
    dex = [[None] * d for _ in range(d)]
    dea = [[None] * d for _ in range(d)]
    for m in range(d):
        q = space.curve(p, dirs[m])
        for j in range(d):
            y, b = secs[j].fn(q)
            dex[m][j] = [dot_part(v) for v in y]
            dea[m][j] = [dot_part(v) for v in b]

    xmats = [ctx.mat_from_coords(x) for x in xs]
    br = [[ctx.coords(mbracket(xmats[i], xmats[j])) for j in range(d)]
          for i in range(d)]
    bre = [[ctx.coords(mbracket(xmats[i], ctx.basis[m])) for m in range(d)]
           for i in range(d)]
    struct = [[ctx.coords(mbracket(ctx.basis[i], ctx.basis[j]))
               for j in range(d)] for i in range(d)]

    twist = hooks.CURRENT.dorfman_twist_scale * DORFMAN_TWIST_SIGN
    xmat, amat = Mat(xs, EXACT), Mat(als, EXACT)
    xt, at = xmat.transpose(), amat.transpose()
    # gb[j][m] = gram bre[j][m], so c * gb[j][m].xs[i] = bre[j][m].(c gram^T xs[i])
    gx = ctx.gram.transpose().scale(lg.CARTAN_COEFF * twist) @ xt
    # row k d + l of _stack(u) is u[k][l], so
    #   de[m d + i][j] = dex[m][i].als[j] + dea[m][i].xs[j]
    #   ba[i d + m][j] = bre[i][m].als[j]
    #   bag[j d + m][i] = bre[j][m].als[i] + c * gb[j][m].xs[i]
    #   targets[i d + j] = sum_k struct[i][j][k] (xs[k] | als[k])
    de = _stack(dex) @ at + _stack(dea) @ xt
    bres = _stack(bre)
    ba, bag = bres @ at, bres @ (at + gx)
    targets = _stack(struct) @ xmat.hstack(amat)

    for i in range(d):
        for j in range(d):
            tangent = [a - b + c for a, b, c in zip(dxy[i][j], dxy[j][i], br[i][j])]
            cov = [dxb[i][j][m] - dxb[j][i][m] + de.data[m * d + i][j]
                   - ba.data[i * d + m][j] + bag.data[j * d + m][i]
                   for m in range(d)]
            target = targets.data[i * d + j]
            if tuple(tangent) != target[:d] or tuple(cov) != target[d:]:
                return False, {"pair": [ctx.basis_labels[i], ctx.basis_labels[j]]}
    return True, None


def _stack(blocks) -> Mat:
    """The vectors ``blocks[k][l]`` as the rows ``k * len(blocks[k]) + l``."""
    return Mat([v for row in blocks for v in row], EXACT)


def cartan_eta3(space: Space):
    """The invariant 3-form of the group as a constant coordinate family."""
    ctx = space.ctx

    def ev(point, x, y, z):
        mx, my, mz = (space.matrices(c) for c in (x, y, z))
        return ctx.eta(mx[0], my[0], mz[0])

    if space.parts != ("g",):
        raise ValueError("cartan_eta3 lives on the single-group space")
    return ev


# ---------------------------------------------------------------------------
# the conjugation (Cartan-Dirac) structure


def cartan_dirac(g: GroupElement) -> DiracFiber:
    """Fiber spanned by (conjugation field, sigma) over an algebra basis."""
    ctx = g.ctx
    cols = []
    for b in ctx.basis:
        xi = AlgebraElement(ctx, b, check=False)
        rho = conj_field(g, xi)
        sig = sigma(g, xi)
        cols.append(ctx.coords(rho.coord.m) + sig.dual_coords())
    basis = Mat.from_columns(cols, 2 * ctx.dim_g, EXACT)
    return DiracFiber((g.m,), ctx.dim_g, basis)


def cartan_section(ctx, ximat) -> DiracSection:
    """The section g -> (rho(xi), sigma(xi)) as dual-point-generic functions.

    Shares the single Ad computation between the tangent and covector parts
    (this function sits in the innermost loop of the closure suites).
    """

    def fn(point):
        gmat = point[0]
        ad = gmat.inverse() @ ximat @ gmat
        h = hooks.CURRENT
        rho = ximat - ad
        sig = (ximat + (ad if h.sigma_ad_sign == 1 else -ad)).scale(QQi(h.sigma_factor))
        return ctx.coords(rho), mat_vec(ctx.gram, ctx.coords(sig))

    return DiracSection("cd-section", fn)

