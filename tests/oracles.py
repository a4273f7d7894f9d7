"""Per-element and per-vector routes: the oracles of the package's closed
forms on whole bases.

The package computes its sections, action fields and moment condition as
matrices on the algebra basis, one product each.  The routes here take one
element, one vector or one generator at a time, as the package once did;
they are written out unchanged, so the tests can compare each closed form
with an independent computation.  Five were methods and are plain functions
of their former instance here: :func:`from_vectors` and
:func:`subspace_sum` of :class:`~qpslab.linalg.Subspace`, :func:`below` and
:func:`rational` of :class:`~qpslab.prng.SplitMix64`, which consume the
stream as :meth:`~qpslab.prng.SplitMix64.rational_pair` does, and
:func:`to_complex` of :class:`~qpslab.scalars.QQi`.
"""

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from qpslab.gspringer import QuotientChart, phi
from qpslab.liegroup import GroupContext, conjugate, sigma, sigma_average
from qpslab.linalg import LinAlgError, Mat, Subspace, _entry, kernel, rank
from qpslab.prng import SplitMix64
from qpslab.scalars import QQi

# ---------------------------------------------------------------------------
# scalars, vectors and subspaces


def to_complex(x: QQi) -> complex:
    """``x`` in floating point, part by part."""
    return complex(x.re) + 1j * complex(x.im)


def scalar_to_json(x: QQi) -> list:
    """A scalar as the ``[re, im]`` fraction strings of a JSON matrix entry."""
    return [str(x.re), str(x.im)]


def below(rng: SplitMix64, n: int) -> int:
    """The next output of ``rng`` modulo ``n``."""
    if n <= 0:
        raise ValueError("below() needs a positive bound")
    return rng.next_u64() % n


def rational(rng: SplitMix64, height: int, nonzero: bool = False) -> Fraction:
    """Numerator ``below(2h+1) - h``, redrawn while zero if ``nonzero``, then
    denominator ``1 + below(h)``: the draws of ``rng.rational_pair(h)``."""
    num = below(rng, 2 * height + 1) - height
    while nonzero and num == 0:
        num = below(rng, 2 * height + 1) - height
    den = 1 + below(rng, height)
    return Fraction(num, den)


def mat_vec(m: Mat, v: Sequence) -> list:
    """``m v``: integer dot products with the rows of ``m`` over their common
    denominator (:meth:`~qpslab.linalg.Mat.int_entries`).  ``v`` is read as
    the one row of a ``Mat``, so an entry that is not exact (``int``,
    ``Fraction`` or :class:`QQi`) raises ``TypeError``, as in ``Mat(...)``."""
    if m.cols != len(v):
        raise LinAlgError("matrix/vector size mismatch")
    rows, den = m.int_entries()
    (cv,), dv = Mat([list(v)]).int_entries()
    return [_entry(sum(map(mul, r, cv)), den * dv) for r in rows]


def from_vectors(vectors: Iterable[Sequence], ambient_dim: int) -> Subspace:
    """The span of ``vectors``, each of ``ambient_dim`` entries."""
    return Subspace(Mat.from_columns([list(v) for v in vectors], ambient_dim))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise LinAlgError("ambient dimension mismatch")
    return Subspace(a.basis.hstack(b.basis))


def annihilator(s: Subspace, pairing: Mat) -> Subspace:
    """``{v : pairing(v, w) = 0 for all w in s}`` for a nondegenerate pairing.

    ``pairing(v, w)`` means ``v^T P w``; dim of the result is
    ambient − dim s.
    """
    if pairing.rows != s.ambient_dim or pairing.cols != s.ambient_dim:
        raise LinAlgError("pairing matrix has wrong shape")
    if rank(pairing) != s.ambient_dim:
        raise LinAlgError("degenerate pairing")
    if s.dim == 0:
        return Subspace(Mat.identity(s.ambient_dim))
    cond = s.basis.transpose() @ pairing.transpose()
    return kernel(cond)


# ---------------------------------------------------------------------------
# the conjugation structure, per element: the oracles of
# liegroup.conjugation_sections


def sigma_adjoint(g: Mat, a: Mat) -> Mat:
    """The adjoint of sigma at g applied to the covector a: 1/2 (a + Ad_g a)."""
    return sigma_average(a, conjugate(g, a))


def conj_field(g: Mat, xi: Mat) -> Mat:
    """Generating vector field of conjugation at g, as xi^L - xi^R.

    Left-trivialized coordinate xi - Ad_{g^-1} xi; the sign convention is the
    one frozen in the conventions note (the opposite sign is the derivative
    of h |-> h g h^-1).
    """
    return xi - g.inverse() @ xi @ g


def rho_adjoint(ctx: GroupContext, g: Mat, v: Mat) -> Mat:
    """Adjoint of the conjugation action at g: solve (zeta, xi) = (v, rho(xi)).

    Solved as a linear system over the algebra basis; the tests compare it
    with the closed form ``v - Ad_g v``.
    """
    rhs = [ctx.form(v, b - g.inverse() @ b @ g) for b in ctx.basis]
    return ctx.mat_from_coords(mat_vec(ctx.gram_inv, rhs))


# ---------------------------------------------------------------------------
# the double and the quotient, per generator: the oracles of
# gspringer.moment_condition_holds and gspringer.induced_action


def rho_double(ctx: GroupContext, a: Mat, b: Mat, xi1: Mat, xi2: Mat) -> list:
    """Action generator of (xi1, xi2) on the double at (a, b), left-trivialized.

    Sign convention: the negative of the derivative of the printed action,
    matching the xi^L - xi^R convention of the conjugation structure (on the
    second factor this is literally xi2^L - xi2^R).
    """
    u1 = xi2 - a.inverse() @ xi1 @ a
    u2 = xi2 - b.inverse() @ xi2 @ b
    return ctx.coords(u1) + ctx.coords(u2)


def moment_condition_check(ctx: GroupContext, a: Mat, b: Mat, w: Mat,
                           dphi: Mat, generators) -> bool:
    """omega^flat of each action field equals the pulled-back sigma covector.

    ``w`` and ``dphi`` are :func:`~qpslab.gspringer.omega_matrix` and
    :func:`~qpslab.gspringer.phi_differential` at (a, b) on the double;
    ``generators`` holds (xi1, xi2) pairs of algebra matrices.  True when
    the condition holds for every pair.  On the basis of g (+) g this is the
    matrix equation of :func:`~qpslab.gspringer.moment_condition_holds`,
    which the double suite runs.
    """
    wt, dphit = w.transpose(), dphi.transpose()
    g1, g2 = phi(a, b)
    for xi1, xi2 in generators:
        lhs = mat_vec(wt, rho_double(ctx, a, b, xi1, xi2))
        dual = ctx.dual_coords(sigma(g1, xi1)) + ctx.dual_coords(sigma(g2, xi2))
        if lhs != mat_vec(dphit, dual):
            return False
    return True


def same_class(ctx: GroupContext, p: tuple[Mat, Mat], q: tuple[Mat, Mat]) -> bool:
    """Whether the pairs p = (g1, b1) and q = (g2, b2) are one point of
    G x_B B: h = g2^-1 g1 lies in B and b2 = h b1 h^-1."""
    (g1, b1), (g2, b2) = p, q
    h = g2.inverse() @ g1
    return ctx.in_borel(h) and conjugate(h, b1) == b2


def chart_action_field(chart: QuotientChart, ximat: Mat) -> list:
    """The induced action field of xi at the chart point: q_* rho(xi, 0).

    Upstairs rho(xi, 0) = (-Ad_{g^-1} xi, 0) in the frozen generator
    convention.
    """
    g = chart.g
    up = chart.ctx.coords(-(g.inverse() @ ximat @ g)) + [QQi(0)] * len(chart.sub)
    return mat_vec(chart.proj, up)
