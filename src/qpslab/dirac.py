"""Pointwise Dirac linear algebra on tangent (+) cotangent fibers.

A fiber at a point of a d-dimensional model space is a subspace of the
2d-dimensional sum of the tangent space and its dual.  Tangent vectors are
left-trivialized coordinate columns; covectors are *functional* coordinates
on the same basis (so the canonical symmetric pairing is a plain dot-product
flip, and no metric is needed where the restricted trace form would be
degenerate).  Covectors handed over as algebra elements are converted
through the context's Gram matrix.

A fiber stores the canonical basis of its span, so equal fibers print
identically.  The transports :func:`pushforward_linear` and
:func:`pullback_linear` each solve one reduced incidence system with
:func:`~qpslab.linalg.null_vectors` and canonicalize only the result: two
rrefs per call.  Their full systems in the unknowns (x, b, c) are the
oracle in the tests.

The twisted Dorfman bracket, :func:`dorfman`, is evaluated with the
forward-mode engine of :mod:`qpslab.diffcalc`; the sign and scale
conventions are frozen by the calibration suite and recorded in
:mod:`qpslab.conventions`.  The full-basis closure check,
:func:`cartan_closure_check`, needs no dual numbers: along the first-order
curve q = g (I + t v), q^-1 xi q = A + t [A, v] with A = Ad_{g^-1} xi, so
every derivative of a conjugation section is a bracket, read from the
structure constants.  :func:`dorfman` is its oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .conventions import ACTIVE
from .diffcalc import PointedMap, Space, dot_part
from .liegroup import GroupElement, conjugation_sections, sigma_average
from .linalg import Mat, Subspace, dot, intersect, kernel, mat_vec, null_vectors
from .matio import mat_to_json
from .scalars import QQi


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

    def cotangent_intersection(self) -> Subspace:
        """Intersection with the cotangent coordinate subspace."""
        d = self.d
        lower = Subspace.from_spanning(Mat.zeros(d, d).vstack(Mat.identity(d)))
        return intersect(self.subspace(), lower)

    def contains(self, xcoords: Sequence, acoords: Sequence) -> bool:
        return self.subspace().contains_vector(list(xcoords) + list(acoords))

    def equals(self, other: "DiracFiber") -> bool:
        return self.d == other.d and self.subspace().equals(other.subspace())

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

    def is_skew(self) -> bool:
        return (self.matrix + self.matrix.transpose()).is_zero()


@dataclass(frozen=True)
class BivectorFiber:
    """The sharp map of a bivector: dual coordinates to tangent coordinates."""

    base: object
    matrix: Mat

    def is_skew(self) -> bool:
        return (self.matrix + self.matrix.transpose()).is_zero()


@dataclass(frozen=True)
class DiracSection:
    """Family p -> (tangent coords, covector dual coords), rational in p."""

    name: str
    fn: Callable


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
        return Mat.zeros(1, 1)
    top = b.row_block(0, d)
    bot = b.row_block(d, b.rows)
    return top.transpose() @ bot + bot.transpose() @ top


def is_lagrangian(fiber: DiracFiber):
    """Isotropy plus half-dimensionality, with a witness on failure."""
    if fiber.dim != fiber.d:
        return False, {"reason": "dimension", "dim": fiber.dim, "expected": fiber.d}
    gram = pairing_gram(fiber)
    if fiber.dim and not gram.is_zero():
        for i in range(gram.rows):
            for j in range(gram.cols):
                x = gram.entry(i, j)
                if x:
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
    basis = Mat.identity(d).vstack(omega.matrix.transpose())
    # the transpose [I | omega] is already in reduced row echelon form
    return DiracFiber(omega.base, d, basis, canonical=True)


def graph_bivector(pi: BivectorFiber) -> DiracFiber:
    """The fiber {(pi^sharp a, a)}; Lagrangian whenever pi is skew."""
    if not pi.is_skew():
        raise ValueError("bivector matrix must be skew")
    d = pi.matrix.rows
    basis = pi.matrix.vstack(Mat.identity(d))
    return DiracFiber(pi.base, d, basis, canonical=False)


# ---------------------------------------------------------------------------
# transport along maps


def pushforward_linear(fiber: DiracFiber, fmat: Mat, base=None) -> DiracFiber:
    """Pushforward along a linear tangent map given by its matrix.

    f_* L = {(F X, b) | (X, F^T b) in L} (Bursztyn and Crainic, 2005).
    With L spanned by the columns of [top; bot], (X, F^T b) lies in L
    exactly when X = top c and F^T b = bot c for some c, so the result is
    spanned by (F top c, b) over the null vectors (b; c) of [F^T | -bot]:
    one v x (w + k) system, solved by :func:`~qpslab.linalg.null_vectors`,
    whose raw vectors suffice because the fiber canonicalizes its basis.
    """
    v = fiber.d
    w = fmat.rows
    if fmat.cols != v:
        raise ValueError("tangent map has wrong domain dimension")
    if base is None:
        base = fiber.base
    k = fiber.dim
    if not k:
        # f_* 0 = 0 (+) ker F^T, and [0; K] is canonical when K is
        null = kernel(fmat.transpose())
        return DiracFiber(base, w, Mat.zeros(w, null.dim).vstack(null.basis),
                          canonical=True)
    top = fiber.basis.row_block(0, v)
    bot = fiber.basis.row_block(v, 2 * v)
    null = null_vectors(fmat.transpose().hstack(-bot))
    ftop = fmat @ top
    basis = (ftop @ null.row_block(w, w + k)).vstack(null.row_block(0, w))
    return DiracFiber(base, w, basis)


def pullback_linear(fiber: DiracFiber, fmat: Mat, base=None) -> DiracFiber:
    """Pullback along a linear tangent map: {(X, F^T b) | (F X, b) in L}.

    As in :func:`pushforward_linear`, with L spanned by [top; bot], the
    result is spanned by (x, F^T bot c) over the null vectors (x; c) of
    [F | -top], one w x (v + k) system.
    """
    w = fiber.d
    v = fmat.cols
    if fmat.rows != w:
        raise ValueError("tangent map has wrong codomain dimension")
    if base is None:
        base = fiber.base
    k = fiber.dim
    if not k:
        # f^* 0 = ker F (+) 0, and [K; 0] is canonical when K is
        null = kernel(fmat)
        return DiracFiber(base, v, null.basis.vstack(Mat.zeros(v, null.dim)),
                          canonical=True)
    top = fiber.basis.row_block(0, w)
    bot = fiber.basis.row_block(w, 2 * w)
    null = null_vectors(fmat.hstack(-top))
    ftbot = fmat.transpose() @ bot
    basis = null.row_block(0, v).vstack(ftbot @ null.row_block(v, v + k))
    return DiracFiber(base, v, basis)


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
    ([X, Y], L_X beta - i_Y d(alpha) + twist), where the twist is the active
    ``Conventions.twist`` multiple of eta3(X, Y, .).  ``eta3(point, x, y,
    z)`` evaluates the 3-form family on coordinate triples; pass ``None`` for
    the untwisted bracket.

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

    twist_scale = 0 if eta3 is None else ACTIVE.get().twist

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
    and comparing against the section of the bracket (linear in xi, so the
    targets come from structure constants), with every derivative in closed
    form.  ``dorfman``, which differentiates the sections on dual points, is
    the independent oracle for this in the tests.

    The lemma: along the curve q = g (I + t v) of :meth:`Space.curve`,
    q^-1 = g^-1 - t v g^-1 exactly, so q^-1 xi q = A + t [A, v] with
    A = Ad_{g^-1} xi.  In coordinates, with M = Ad_{g^-1} and R(v) the
    matrix of a -> coords([a, v]) (:meth:`GroupContext.bracket_matrices`),
    M moves by R(v) M.  Section j has tangent part x_j, column j of
    X = I - M, and covector part a_j, column j of gram sigma_average(I, M);
    along v they move by -R(v) M and gram sigma_average(0, R(v) M).  Along
    e_m, section i moves through R(e_m) M_i = -R(M_i) e_m.

    Expanded, the covector of the pair (i, j) at basis direction m is

        dxb[i][j][m] - dxb[j][i][m] + dex[m][i].a_j + dea[m][i].x_j
        - [x_i, e_m].a_j + [x_j, e_m].(a_i + c gram x_i)

    where dxb[i][j] is how a_j moves along x_i, dex[m][i] and dea[m][i] how
    x_i and a_i move along e_m, and c = eta_coeff * twist (``dorfman``'s two
    a_i.dex[m][j] terms cancel).  The rows ``i d + j`` of all pairs are
    stacked: block i is a product with R(x_i) or R(M_i), and the terms
    read at the pair (j, i) are moved there by one row swap.  The stack is
    compared with the targets in one integer ``==``; only on a mismatch are
    the rows scanned, pair (i, j) in basis order, for the witness.

    Returns (ok, witness).
    """
    lhs, targets = _closure_sides(ctx, gmat)
    if lhs == targets:
        return True, None
    d = ctx.dim_g
    r = next(r for r in range(d * d)
             if lhs.row_block(r, r + 1) != targets.row_block(r, r + 1))
    i, j = divmod(r, d)
    return False, {"pair": [ctx.basis_labels[i], ctx.basis_labels[j]]}


def _closure_sides(ctx, gmat: Mat) -> tuple[Mat, Mat]:
    """Both sides of closure at g for every pair of basis sections.

    Row ``i d + j`` of the first matrix is (tangent | covector) of the
    Dorfman bracket of sections i and j; of the second, that of the section
    of [e_i, e_j].  See :func:`cartan_closure_check`.
    """
    d = ctx.dim_g
    gram = ctx.gram
    zero = Mat.zeros(d, d)
    conv = ACTIVE.get()
    m, x, a = conjugation_sections(ctx, gmat, gmat.inverse())
    mt, xt, at = m.transpose(), x.transpose(), a.transpose()
    # [x_j, e_m] pairs with a_i + c gram x_i
    act = (a + (gram @ x).scale(conv.eta_coeff * conv.twist)).transpose()

    own = swapped = None
    for rx, rm in zip(ctx.bracket_matrices(x), ctx.bracket_matrices(m)):
        rxt = rx.transpose()
        # row j: how M_j moves along x_i, (R(x_i) M_j)^T, and so section j
        dmt = mt @ rxt
        dt, da = -dmt, sigma_average(zero, dmt) @ gram
        # column m: how M_i moves along e_m, R(e_m) M_i, and so section i
        dme = -rm
        dte, dae = -dme, gram @ sigma_average(zero, dme)
        brx, bre = -(xt @ rxt), -rx  # row j: [x_i, x_j]; column m: [x_i, e_m]
        blk = (dt + brx).hstack(da + at @ (dte - bre) + xt @ dae)
        sw = (-dt).hstack(act @ bre - da)
        own = blk if own is None else own.vstack(blk)
        swapped = sw if swapped is None else swapped.vstack(sw)
    return own + _swap_pairs(swapped, d), ctx.structure_constants @ xt.hstack(at)


def _swap_pairs(rows: Mat, d: int) -> Mat:
    """Row ``i d + j`` of the result is row ``j d + i`` of ``rows``."""
    out = None
    for i in range(d):
        for j in range(d):
            row = rows.row_block(j * d + i, j * d + i + 1)
            out = row if out is None else out.vstack(row)
    return out


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
    """Fiber spanned by (conjugation field, sigma) over an algebra basis.

    Both are linear in xi, so the fiber is the column span of
    [I - M; gram sigma_average(I, M)] with M = Ad_{g^-1}
    (:func:`~qpslab.liegroup.conjugation_sections`, as in
    :func:`cartan_closure_check`).  The per-basis
    (:func:`~qpslab.liegroup.conj_field`, :func:`~qpslab.liegroup.sigma`)
    columns are its oracle in the tests.
    """
    ctx = g.ctx
    _, x, a = conjugation_sections(ctx, g.m, g.inv)
    return DiracFiber((g.m,), ctx.dim_g, x.vstack(a))


def cartan_section(ctx, ximat) -> DiracSection:
    """The section g -> (rho(xi), sigma(xi)) as dual-point-generic functions.

    Shares the single Ad computation between the tangent and covector parts
    (this function sits in the innermost loop of the closure suites).
    """

    def fn(point):
        gmat = point[0]
        ad = gmat.inverse() @ ximat @ gmat
        return (ctx.coords(ximat - ad),
                mat_vec(ctx.gram, ctx.coords(sigma_average(ximat, ad))))

    return DiracSection("cd-section", fn)

