"""The Weyl fiber in floating point: the oracle of
:func:`qpslab.gspringer.weyl_fiber`.

``eval fiber-enum`` once enumerated the mu-fiber over a regular semisimple
element on numpy's complex128 arrays, through one eigendecomposition.  That
enumeration is written out here, unchanged, with its float view of an exact
matrix and its float test of :func:`oracles.same_class`,
so the tests can compare the exact fiber with an independent float route.
A float fiber point is a pair (h, b) of n x n arrays, the representative h
and the diagonal b, read as the class [h : b].
"""

import itertools

import numpy as np

from qpslab.gspringer import NotRegularSemisimple
from qpslab.liegroup import GroupContext
from qpslab.linalg import Mat


def float_array(m: Mat) -> np.ndarray:
    """The complex128 array of an exact matrix.

    It is read from the integer rows over one denominator
    (:meth:`~qpslab.linalg.Mat.int_entries`), with no :class:`QQi` entry:
    ``a / den`` is the correctly rounded value of the exact rational, as
    ``float(Fraction)`` is, so the array is bit for bit that of the
    entries' ``to_complex``.  A Gaussian numerator takes the formula of
    ``to_complex`` on its two parts.  (That formula adds the zero real part
    of ``1j * 0``, which turns a real negative value that underflows to
    -0.0 into 0.0; the ``+ 0.0`` of a real numerator does the same.)
    """
    nums, den = m.int_entries()
    return np.array([[a / den + 0.0 if type(a) is int else
                      complex(a.re / den) + 1j * complex(a.im / den) for a in r]
                     for r in nums], dtype=complex)


def float_fiber_enum(ctx: GroupContext, g: np.ndarray,
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


def float_same_class(p: tuple, q: tuple, tol: float) -> bool:
    """:func:`oracles.same_class` of two float points, to the
    tolerance ``tol``.

    h = h_q^-1 h_p is upper triangular when no entry below the diagonal
    exceeds ``tol * max(1, max|h|)``; then h b_p h^-1 - b_q is zero when its
    largest modulus m satisfies ``m <= tol * max(1, m)``.
    """
    h = np.linalg.inv(q[0]) @ p[0]
    if np.abs(np.tril(h, -1)).max() > tol * max(1.0, np.abs(h).max()):
        return False
    diff = float(np.abs(float_mu((h, p[1])) - q[1]).max())
    return diff <= tol * max(1.0, diff)
