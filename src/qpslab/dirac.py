"""Pointwise Dirac linear algebra on tangent (+) cotangent fibers.

A fiber at a point of a d-dimensional model space is a
:class:`~qpslab.linalg.Subspace` of the 2d-dimensional sum of the tangent
space and its dual (:class:`DiracFiber`); it carries no base point, since
every caller knows where it is.  A 2-form or a bivector is its skew d x d
matrix, and a section is a function of the point.  Tangent vectors are
left-trivialized coordinate columns; covectors are *functional* coordinates
on the same basis (so the canonical symmetric pairing is a plain dot-product
flip, and no metric is needed where the restricted trace form would be
degenerate).  A covector handed over as an algebra matrix is converted
through the context's Gram matrix.

A fiber stores the canonical basis of its span.  The transports
:func:`pushforward_linear` and :func:`pullback_linear` each solve one
reduced incidence system with :func:`~qpslab.linalg.null_vectors` and
canonicalize only the result: at most two rrefs per call, the second
skipped when the result already is canonical.  A caller that only compares
the pushforward with a canonical fiber takes its raw spanning set
(:func:`pushforward_spanning_set`) and skips the second.  Their full
systems in the unknowns (x, b, c) are the oracle in the tests.

The suites decide closure of the conjugation sections under the twisted
Dorfman bracket without differentiating anything, for every basis pair
(:func:`cartan_closure_check`) and for one pair (:func:`closure_sample`):
along the first-order curve q = g (I + t v), q^-1 xi q = A + t [A, v] with
A = Ad_{g^-1} xi, so every derivative of a conjugation section is a
bracket.  Expanded with these derivatives and collected by bilinearity and
the invariance of the trace form, the bracket of two sections is four Lie
brackets of n x n matrices, all read off one stacked product
(:meth:`~qpslab.liegroup.GroupContext.brackets_and_functionals`) as raw
integer rows over one denominator.  Each row of a result is one integer
combination of the bracket rows it reads, canonicalized once.  The
sign and scale conventions are frozen by the calibration suite and
recorded in :mod:`qpslab.conventions`.  The bracket itself,
:func:`qpslab.diffcalc.dorfman`, is evaluated with dual numbers and is the
oracle of both closed forms in the tests; this module does not import it.
"""

from __future__ import annotations

from math import lcm

from .conventions import ACTIVE
from .liegroup import conjugation_sections
from .linalg import LinAlgError, Mat, Subspace, intersect, kernel, null_vectors


class DiracFiber(Subspace):
    """Subspace of tangent (+) cotangent at a point of a d-dimensional space.

    Built as ``DiracFiber(basis)`` from 2d basis rows, refusing an odd count:
    the first d are tangent coordinates, the last d covector coordinates.
    """

    __slots__ = ()

    def __init__(self, basis: Mat):
        if basis.rows % 2:
            raise LinAlgError("a fiber basis needs an even number of rows")
        super().__init__(basis)

    @property
    def d(self) -> int:
        return self.basis.rows // 2

    def tangent_part(self) -> Subspace:
        """The projection onto the tangent coordinates, read off the
        canonical basis with no elimination.

        The basis's transpose is in reduced row echelon form.  A column
        whose pivot row is a covector row is zero in every tangent row, as
        its pivot leads its row of the transpose.  The columns whose pivot
        row is a tangent row, cut to the tangent rows, keep those pivots,
        and every other pivot column of the transpose is zero in them: their
        transpose is in reduced row echelon form, so they are the canonical
        basis of the tangent span, which :class:`~qpslab.linalg.Subspace`
        recognises in one scan.
        """
        d = self.d
        cols = self.tangent_columns()
        if not cols:
            return Subspace.zero(d)
        return Subspace(self.basis.row_block(0, d).select_cols(cols))

    def tangent_columns(self) -> list[int]:
        """The basis columns whose pivot row is a tangent row: their tangent
        rows are the canonical basis of :meth:`tangent_part`."""
        return [j for j, p in enumerate(self._pivots) if p < self.d]

    def cotangent_intersection(self) -> Subspace:
        """Intersection with the cotangent coordinate subspace."""
        d = self.d
        lower = Subspace(Mat.zeros(d, d).vstack(Mat.identity(d)))
        return intersect(self, lower)

    def __repr__(self):
        return f"DiracFiber(d={self.d}, dim={self.dim})"


# ---------------------------------------------------------------------------
# the symmetric pairing and Lagrangian tests


def pairing(ctx, e1, e2):
    """The canonical symmetric pairing <(X,a),(Y,b)> = a(Y) + b(X).

    Arguments are pairs (tangent, covector) of algebra matrices, paired
    through the invariant form (the metric identification of covector
    coordinates).
    """
    x, a = e1
    y, b = e2
    return ctx.form(a, y) + ctx.form(b, x)


def pairing_gram(fiber: DiracFiber) -> Mat:
    """The pairings of the basis columns, of which the fiber has at least
    one: top' bot + bot' top, the second term the transpose of the first."""
    b = fiber.basis
    d = fiber.d
    half = b.row_block(0, d).transpose() @ b.row_block(d, b.rows)
    return half + half.transpose()


def is_lagrangian(fiber: DiracFiber):
    """Isotropy plus half-dimensionality, with a witness on failure."""
    if fiber.dim != fiber.d:
        return False, {"reason": "dimension", "dim": fiber.dim, "expected": fiber.d}
    gram = pairing_gram(fiber)
    if not gram.is_zero():
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


def is_skew(m: Mat) -> bool:
    """Whether ``m`` is the matrix of a 2-form or a bivector: square, m' = -m."""
    return m.rows == m.cols and (m + m.transpose()).is_zero()


def graph_two_form(w: Mat) -> DiracFiber:
    """The fiber {(X, w^flat X)} of a 2-form matrix; Lagrangian as w is skew."""
    if not is_skew(w):
        raise ValueError("2-form matrix must be square and skew")
    d = w.rows
    return DiracFiber(Mat.identity(d).vstack(w.transpose()))


def graph_bivector(p: Mat) -> DiracFiber:
    """The fiber {(p^sharp a, a)} of a bivector matrix; Lagrangian as p is skew."""
    if not is_skew(p):
        raise ValueError("bivector matrix must be square and skew")
    return DiracFiber(p.vstack(Mat.identity(p.rows)))


# ---------------------------------------------------------------------------
# transport along maps


def pushforward_linear(fiber: DiracFiber, fmat: Mat) -> DiracFiber:
    """Pushforward along a linear tangent map given by its matrix: the
    fiber of the columns of :func:`pushforward_spanning_set`."""
    return DiracFiber(pushforward_spanning_set(fiber, fmat))


def pushforward_spanning_set(fiber: DiracFiber, fmat: Mat) -> Mat:
    """Columns that span the pushforward along ``fmat``, not canonicalized:
    one column per null vector of the incidence system below.

    f_* L = {(F X, b) | (X, F^T b) in L} (Bursztyn and Crainic, 2005).
    With L spanned by the columns of [top; bot], (X, F^T b) lies in L
    exactly when X = top c and F^T b = bot c for some c, so the result is
    spanned by (F top c, b) over the null vectors (b; c) of [F^T | -bot]:
    one v x (w + k) system, solved by :func:`~qpslab.linalg.null_vectors`.
    The columns are independent exactly when no null vector has b = 0 and
    F top c = 0, that is when L meets ker F (+) 0 only at 0: the columns
    of [top; bot] are independent, so those null vectors are that meet,
    one to one, and the column count less the span's dimension is its
    dimension.  When top is the identity, as on the graph of a 2-form
    (:func:`graph_two_form`, basis [I; w^T]; every quotient chart's graph
    is one), F top is F and the product is not taken.  The zero fiber
    pushes forward to 0 (+) ker F^T.
    """
    v = fiber.d
    w = fmat.rows
    if fmat.cols != v:
        raise ValueError("tangent map has wrong domain dimension")
    k = fiber.dim
    if not k:
        null = null_vectors(fmat.transpose())
        return Mat.zeros(w, null.cols).vstack(null)
    top = fiber.basis.row_block(0, v)
    bot = fiber.basis.row_block(v, 2 * v)
    null = null_vectors(fmat.transpose().hstack(-bot))
    ftop = fmat if k == v and top == Mat.identity(v) else fmat @ top
    return (ftop @ null.row_block(w, w + k)).vstack(null.row_block(0, w))


def pullback_linear(fiber: DiracFiber, fmat: Mat) -> DiracFiber:
    """Pullback along a linear tangent map: {(X, F^T b) | (F X, b) in L}.

    As in :func:`pushforward_linear`, with L spanned by [top; bot], the
    result is spanned by (x, F^T bot c) over the null vectors (x; c) of
    [F | -top], one w x (v + k) system.
    """
    w = fiber.d
    v = fmat.cols
    if fmat.rows != w:
        raise ValueError("tangent map has wrong codomain dimension")
    k = fiber.dim
    if not k:
        # f^* 0 = ker F (+) 0
        null = kernel(fmat)
        return DiracFiber(null.basis.vstack(Mat.zeros(v, null.dim)))
    top = fiber.basis.row_block(0, w)
    bot = fiber.basis.row_block(w, 2 * w)
    null = null_vectors(fmat.hstack(-top))
    ftbot = fmat.transpose() @ bot
    basis = null.row_block(0, v).vstack(ftbot @ null.row_block(v, v + k))
    return DiracFiber(basis)


# ---------------------------------------------------------------------------
# closure of the conjugation sections under the twisted Dorfman bracket


def cartan_closure_check(ctx, g: Mat):
    """Full-basis Dorfman closure of the conjugation sections at one point.

    Equivalent to running the bracket :func:`qpslab.diffcalc.dorfman` on
    every pair of basis sections and comparing against the section of the
    bracket (linear in xi, so the target of the pair (i, j) is the section
    of c = coords([e_i, e_j])), with every derivative in closed form.
    ``dorfman`` is the oracle for this and for the one-pair
    :func:`closure_sample` in the tests.

    The lemma: along the first-order curve q = g (I + t v),
    q^-1 = g^-1 - t v g^-1 exactly, so q^-1 xi q = A + t [A, v] with
    A = Ad_{g^-1} xi.  Let M_j be the algebra element whose coordinates are
    column j of M = Ad_{g^-1} (the closed form of
    :func:`~qpslab.liegroup.conjugation_sections`), f = sigma_factor,
    c1 = f sigma_ad_sign and c = eta_coeff twist.  Section j is
    (x_j, alpha_j) = (e_j - M_j, f e_j + c1 M_j), its covector paired
    through the trace form B.  Along v, M_j moves by [M_j, v], so x_j moves
    by -[M_j, v] and alpha_j by c1 [M_j, v].

    The tangent part of the bracket of sections i and j is
    d_{x_i} x_j - d_{x_j} x_i + [x_i, x_j] = [e_i, e_j] - [M_i, M_j].  Its
    covector at the basis direction e_m, as ``dorfman`` expands it (its two
    alpha_i(d_m x_j) terms cancel), is

        c1 B(e_m, [M_j, x_i] - [M_i, x_j]) - B([M_i, e_m], alpha_j)
        + c1 B([M_i, e_m], x_j) - B([x_i, e_m], alpha_j)
        + B([x_j, e_m], alpha_i + c x_i).

    By invariance, B([a, e_m], z) = -B(e_m, [a, z]), so it is B(e_m, Z) with

        Z = c1 [M_j, x_i] - 2 c1 [M_i, x_j] + [M_i, alpha_j]
            + [x_i, alpha_j] - [x_j, alpha_i] + c [x_i, x_j],

    and with x and alpha substituted and collected by bilinearity,

        Z = (2f + c) [e_i, e_j] - (f + c) [e_i, M_j]
            + (c1 + c) [e_j, M_i] + (2 c1 + c) [M_i, M_j].

    The covector is then gram coords(Z).  Nothing here uses a property of
    M beyond how it moves.  All four brackets of every pair, and the
    targets' c, are read off one stacked product of the 2d matrices e_1,
    ..., e_d, M_1, ..., M_d
    (:meth:`~qpslab.liegroup.GroupContext.brackets_and_functionals`), as
    raw integer rows over its one denominator.  Row ``i d + j`` is built as
    one integer combination of the four rows of the pair, the coefficients
    f, c and c1 scaled by the lcm of their denominators, and canonicalized
    once; the targets are the section matrices applied to the rows of
    [e_i, e_j] alone.  The rows of all pairs are compared with the targets
    in one integer ``==``; only on a mismatch are the rows scanned, pair
    (i, j) in basis order, for the witness.

    M is read off the inverse g keeps, as in
    :func:`~qpslab.liegroup.conjugation_sections`.  Returns (ok, witness).
    """
    lhs, targets = _closure_sides(ctx, g)
    if lhs == targets:
        return True, None
    d = ctx.dim_g
    r = next(r for r in range(d * d)
             if lhs.row_block(r, r + 1) != targets.row_block(r, r + 1))
    i, j = divmod(r, d)
    return False, {"pair": [ctx.basis_labels[i], ctx.basis_labels[j]]}


def _closure_sides(ctx, g: Mat) -> tuple[Mat, Mat]:
    """Both sides of closure at g for every pair of basis sections.

    Row ``i d + j`` of the first matrix is (tangent | covector) of the
    Dorfman bracket of sections i and j; of the second, that of the section
    of [e_i, e_j].  See :func:`cartan_closure_check`.
    """
    d = ctx.dim_g
    sections = conjugation_sections(ctx, g)
    return _bracket_sides(ctx, Mat.identity(d).hstack(sections[0]), sections,
                          [(i, j) for i in range(d) for j in range(d)])


def closure_sample(ctx, sections: tuple, ximat: Mat, zemat: Mat) -> bool:
    """Dorfman closure of the conjugation sections of xi and zeta at g.

    The row of :func:`cartan_closure_check` with (xi, zeta, Ad_{g^-1} xi,
    Ad_{g^-1} zeta) in place of (e_i, e_j, M_i, M_j), the adjoint images
    read through M, compared with the section of [xi, zeta], (X c; A c)
    with c = coords([xi, zeta]).  ``sections`` is
    :func:`~qpslab.liegroup.conjugation_sections` at g.
    :func:`qpslab.diffcalc.dorfman` is its oracle in the tests.
    """
    row, target = _pair_sides(ctx, sections, ximat, zemat)
    return row == target


def _pair_sides(ctx, sections: tuple, ximat: Mat, zemat: Mat) -> tuple[Mat, Mat]:
    """(tangent | covector) of the bracket of the sections of xi and zeta at
    g, and of the section of [xi, zeta], as 1 x 2d rows; ``sections`` is
    :func:`~qpslab.liegroup.conjugation_sections` at g."""
    coef = Mat.from_columns([ctx.coords(ximat), ctx.coords(zemat)], ctx.dim_g)
    return _bracket_sides(ctx, coef.hstack(sections[0] @ coef), sections, [(0, 1)])


def _bracket_sides(ctx, family: Mat, sections: tuple, pairs: list) -> tuple[Mat, Mat]:
    """The rows of :func:`cartan_closure_check` with u_i, u_j in place of
    e_i, e_j, (i, j) in ``pairs``; ``family`` is [U | M U], the u_i being
    the columns of U and M the first of ``sections``.

    Each output row is one integer combination of the raw bracket rows it
    reads, with the convention coefficients over the lcm of their
    denominators, and is canonicalized once."""
    _, x, a = sections
    coords, dual, den = ctx.brackets_and_functionals(family)
    k, r = family.cols, family.cols // 2  # row p k + q; M u_i is Y_(r + i)
    conv = ACTIVE.get()
    f, c = conv.sigma_factor, conv.eta_coeff * conv.twist
    c1 = f * conv.sigma_ad_sign
    coefs = (2 * f + c, -(f + c), c1 + c, 2 * c1 + c)
    scale = lcm(*(s.denominator for s in coefs))
    coefs = [int(s * scale) for s in coefs]
    uu, rows = [], []
    for i, j in pairs:
        # [u_i, u_j], [u_i, M u_j], [u_j, M u_i] and [M u_i, M u_j]
        reads = (i * k + j, i * k + r + j, j * k + r + i, (r + i) * k + r + j)
        cov = [0] * ctx.dim_g
        for s, p in zip(coefs, reads):
            if s:
                cov = [y + s * z for y, z in zip(cov, dual[p])]
        bracket = coords[reads[0]]
        uu.append(bracket)
        rows.append([scale * (y - z) for y, z in zip(bracket, coords[reads[3]])] + cov)
    targets = Mat.from_int_rows(uu, den) @ x.transpose().hstack(a.transpose())
    return Mat.from_int_rows(rows, den * scale), targets


# ---------------------------------------------------------------------------
# the conjugation (Cartan-Dirac) structure


def cartan_dirac(sections: tuple) -> DiracFiber:
    """Fiber at g spanned by (conjugation field, sigma) over an algebra basis.

    Both are linear in xi, so the fiber is the column span of
    [I - M; gram sigma_average(I, M)] with M = Ad_{g^-1}: the last two of
    ``sections``, :func:`~qpslab.liegroup.conjugation_sections` at g, as in
    :func:`cartan_closure_check`.  The per-basis (``conj_field`` of
    ``tests/oracles.py``, :func:`~qpslab.liegroup.sigma`) columns are its
    oracle in the tests.
    """
    _, x, a = sections
    return DiracFiber(x.vstack(a))
