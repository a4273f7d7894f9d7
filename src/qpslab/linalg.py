"""Matrices and subspaces over the exact and float scalar backends.

All geometric claims verified by this package reduce to rank, kernel and
intersection computations performed here.

Exact backend.  A :class:`Mat` holds :class:`QQi` entries, and every sampler
and suite produces real ones, so the exact kernel runs on Python integers:
:func:`_int_rows` clears each row to integer numerators over one positive row
denominator, the lcm of its entry denominators.

* ``@`` and :func:`mat_vec` take integer dot products and build one
  ``Fraction`` per output entry.
* :func:`rank` and :meth:`Mat.det` run Bareiss fraction-free elimination
  (Bareiss, Math. Comp. 22, 1968) on the integer rows.
* :func:`rref` and :meth:`Mat.inverse` (n > 3) run its Gauss-Jordan form
  (Nakos, Turner and Williams, SIGSAM Bull. 31, 1997), whose divisions are
  exact, and divide each pivot row by its pivot once, at the end.
  :func:`kernel`, :func:`solve_unique`, :class:`Subspace` and
  :func:`intersect` sit on :func:`rref`.

The results are identical, entry for entry and so in every report, to those
of elimination over :class:`QQi`: scaling a row does not change the reduced
row echelon form, products, ranks, determinants, the RREF and the inverse
are unique values, and ``Fraction`` always stores a value in lowest terms.

A matrix with a non-real entry, or an entry that is not a :class:`QQi` (a
``Dual`` can reach :func:`mat_vec`), takes the elimination over :class:`QQi`,
kept as the ``_*_qqi`` functions.  Only JSON input can produce a non-real
entry; the same functions are the oracle of the differential tests.

Float backend: rank decisions are delegated to SVD with a relative
singular-value cutoff.

Conventions: a :class:`Subspace` stores a basis matrix whose *columns* are
the basis vectors, canonicalized by reduced row echelon form of the
transpose, so equal subspaces print identically.  Subspace equality is
nevertheless always decided by mutual-containment rank tests, never by
comparing bases entrywise.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Iterable, Sequence

import numpy as np

from .scalars import QQI_ZERO, QQi

DEFAULT_TOL = 1e-9

EXACT = "exact"
FLOAT = "float"


class LinAlgError(ValueError):
    pass


def _coerce_entry(x, backend):
    if backend == EXACT:
        if isinstance(x, QQi):
            return x
        if isinstance(x, (int, Fraction)):
            return QQi(x)
        raise TypeError(f"exact matrix entry must be rational, got {type(x).__name__}")
    if isinstance(x, complex):
        return x
    if isinstance(x, (int, float, Fraction)):
        return complex(x)
    if isinstance(x, QQi):
        return x.to_complex()
    raise TypeError(f"float matrix entry must be numeric, got {type(x).__name__}")


class Mat:
    """Immutable dense matrix; row-major tuple of row tuples."""

    __slots__ = ("rows", "cols", "data", "backend")

    def __init__(self, data: Sequence[Sequence], backend: str | None = None):
        rows = tuple(tuple(r) for r in data)
        if not rows:
            raise LinAlgError("matrix needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise LinAlgError("ragged rows")
        if backend is None:
            if ncols == 0:
                raise LinAlgError("backend must be given for 0-column matrices")
            probe = rows[0][0]
            backend = EXACT if isinstance(probe, (QQi, int, Fraction)) else FLOAT
        self.backend = backend
        self.rows = len(rows)
        self.cols = ncols
        self.data = tuple(
            tuple(_coerce_entry(x, backend) for x in r) for r in rows
        )

    @classmethod
    def _raw(cls, data: tuple, backend: str) -> "Mat":
        """Internal constructor skipping coercion (entries already clean)."""
        m = object.__new__(cls)
        m.backend = backend
        m.rows = len(data)
        m.cols = len(data[0]) if data else 0
        m.data = data
        return m

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, n: int, backend: str = EXACT) -> "Mat":
        one = QQi(1) if backend == EXACT else 1.0 + 0j
        zero = QQi(0) if backend == EXACT else 0.0 + 0j
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)], backend)

    @classmethod
    def zeros(cls, rows: int, cols: int, backend: str = EXACT) -> "Mat":
        zero = QQi(0) if backend == EXACT else 0.0 + 0j
        return cls([[zero] * cols for _ in range(rows)], backend)

    @classmethod
    def column(cls, entries: Sequence, backend: str | None = None) -> "Mat":
        return cls([[x] for x in entries], backend)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], ambient: int, backend: str) -> "Mat":
        if not columns:
            return cls.zeros(ambient, 0, backend) if ambient else cls([[]], backend)
        return cls([[col[i] for col in columns] for i in range(ambient)], backend)

    # -- basic algebra -------------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise LinAlgError(f"shape mismatch {self.shape} @ {other.shape}")
            if self.backend == EXACT == other.backend and self.cols:
                a = _int_rows(self.data)
                b = _int_rows(zip(*other.data)) if a is not None else None
                if b is not None:
                    return Mat._raw(tuple(
                        tuple(_real(sum(map(mul, ra, cb)), da * db) for cb, db in b)
                        for ra, da in a
                    ), EXACT)
            return _matmul_qqi(self, other)
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, Mat):
            self._same_shape(other)
            return Mat._raw(
                tuple(
                    tuple(a + b for a, b in zip(ra, rb))
                    for ra, rb in zip(self.data, other.data)
                ),
                self.backend,
            )
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Mat):
            self._same_shape(other)
            return Mat._raw(
                tuple(
                    tuple(a - b for a, b in zip(ra, rb))
                    for ra, rb in zip(self.data, other.data)
                ),
                self.backend,
            )
        return NotImplemented

    def __neg__(self):
        return Mat._raw(tuple(tuple(-a for a in r) for r in self.data), self.backend)

    def scale(self, s) -> "Mat":
        if self.backend == EXACT:
            if not isinstance(s, QQi):
                s = QQi(s)
        elif isinstance(s, (Fraction, int)):
            s = complex(s)
        elif isinstance(s, QQi):
            s = s.to_complex()
        return Mat._raw(
            tuple(tuple(a * s for a in r) for r in self.data), self.backend
        )

    def transpose(self) -> "Mat":
        return Mat._raw(tuple(zip(*self.data)), self.backend)

    def trace(self):
        if self.rows != self.cols:
            raise LinAlgError("trace of non-square matrix")
        t = self.data[0][0]
        for i in range(1, self.rows):
            t = t + self.data[i][i]
        return t

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i: int, j: int):
        return self.data[i][j]

    def col(self, j: int) -> list:
        return [self.data[i][j] for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.backend == other.backend
            and self.shape == other.shape
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.backend, self.data))

    def is_zero(self, tol: float | None = None) -> bool:
        if self.backend == EXACT:
            return all(not x for r in self.data for x in r)
        tol = DEFAULT_TOL if tol is None else tol
        scale = max((abs(x) for r in self.data for x in r), default=0.0)
        return scale <= tol or all(
            abs(x) <= tol * max(1.0, scale) for r in self.data for x in r
        )

    def approx_eq(self, other: "Mat", tol: float | None = None) -> bool:
        if self.backend == EXACT and other.backend == EXACT:
            return self == other
        return (self.to_float() - other.to_float()).is_zero(tol)

    def max_abs(self) -> float:
        return max((abs(complex(x.to_complex() if isinstance(x, QQi) else x))
                    for r in self.data for x in r), default=0.0)

    def to_float(self) -> "Mat":
        if self.backend == FLOAT:
            return self
        return Mat([[x.to_complex() for x in r] for r in self.data], FLOAT)

    def to_numpy(self) -> np.ndarray:
        m = self.to_float()
        return np.array(m.data, dtype=complex).reshape(m.rows, m.cols)

    @classmethod
    def from_numpy(cls, a: np.ndarray) -> "Mat":
        return cls([[complex(x) for x in row] for row in np.atleast_2d(a)], FLOAT)

    def _same_shape(self, other):
        if self.shape != other.shape or self.backend != other.backend:
            raise LinAlgError(f"shape/backend mismatch {self.shape} vs {other.shape}")

    # -- elimination-based operations ----------------------------------------

    def det(self):
        if self.rows != self.cols:
            raise LinAlgError("determinant of non-square matrix")
        if self.backend == FLOAT:
            return complex(np.linalg.det(self.to_numpy()))
        ints = _int_rows(self.data)
        if ints is None:
            return _det_qqi(self)
        rk, det = _bareiss([r for r, _ in ints])
        return _real(det if rk == self.rows else 0, prod(d for _, d in ints))

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise LinAlgError("inverse of non-square matrix")
        n = self.rows
        if self.backend == FLOAT:
            return Mat.from_numpy(np.linalg.inv(self.to_numpy()))
        if n <= 3:
            return self._inverse_small()
        ints = _int_rows(self.data)
        if ints is None:
            return _inverse_qqi(self)
        # A = D^-1 N with D the row denominators, so rref [N | D] = [I | A^-1]
        aug = [r + [d if j == i else 0 for j in range(n)]
               for i, (r, d) in enumerate(ints)]
        if _rref_int(aug) != list(range(n)):
            raise LinAlgError("singular matrix")
        return Mat._raw(
            tuple(tuple(_real(a, r[i]) for a in r[n:]) for i, r in enumerate(aug)),
            EXACT,
        )

    def _inverse_small(self) -> "Mat":
        """Closed-form adjugate inverse for n <= 3 (hot path)."""
        d = self.data
        n = self.rows
        if n == 1:
            a = d[0][0]
            if not a:
                raise LinAlgError("singular matrix")
            return Mat._raw(((QQi(1) / a,),), EXACT)
        if n == 2:
            (a, b), (c, e) = d
            det = a * e - b * c
            if not det:
                raise LinAlgError("singular matrix")
            r = QQi(1) / det
            return Mat._raw(((e * r, -b * r), (-c * r, a * r)), EXACT)
        (a, b, c), (e, f, g), (h, i, j) = d
        co00 = f * j - g * i
        co01 = g * h - e * j
        co02 = e * i - f * h
        det = a * co00 + b * co01 + c * co02
        if not det:
            raise LinAlgError("singular matrix")
        r = QQi(1) / det
        return Mat._raw((
            (co00 * r, (c * i - b * j) * r, (b * g - c * f) * r),
            (co01 * r, (a * j - c * h) * r, (c * e - a * g) * r),
            (co02 * r, (b * h - a * i) * r, (a * f - b * e) * r),
        ), EXACT)

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise LinAlgError("row mismatch in hstack")
        if self.backend != other.backend:
            return Mat([a + b for a, b in zip(self.data, other.data)], self.backend)
        return Mat._raw(
            tuple(a + b for a, b in zip(self.data, other.data)), self.backend
        )

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise LinAlgError("col mismatch in vstack")
        if self.backend != other.backend:
            return Mat(self.data + other.data, self.backend)
        return Mat._raw(self.data + other.data, self.backend)

    def __repr__(self):
        body = "; ".join(" ".join(repr(x) for x in r) for r in self.data)
        return f"Mat[{self.rows}x{self.cols}]({body})"


def _dot(row, col):
    acc = row[0] * col[0] if row else None
    if acc is None:
        raise LinAlgError("empty dot product")
    for a, b in zip(row[1:], col[1:]):
        acc = acc + a * b
    return acc


def mat_vec(m: Mat, v: Sequence) -> list:
    if m.cols != len(v):
        raise LinAlgError("matrix/vector size mismatch")
    if m.backend == EXACT and m.cols:
        vi = _int_rows((v,))
        rows = _int_rows(m.data) if vi is not None else None
        if rows is not None:
            cv, dv = vi[0]
            return [_real(sum(map(mul, r, cv)), d * dv) for r, d in rows]
    return _mat_vec_qqi(m, v)


# ---------------------------------------------------------------------------
# the integer kernel


def _int_rows(rows) -> list[tuple[list[int], int]] | None:
    """Each row as (integer numerators, positive row denominator).

    The row denominator is the lcm of the row's entry denominators, so each
    entry is its numerator over it.  Returns None if an entry is not a real
    :class:`QQi`; the caller then runs the ``_*_qqi`` path.
    """
    out = []
    for row in rows:
        den = 1
        for x in row:
            if not isinstance(x, QQi) or x.im:
                return None
            d = x.re.denominator
            if d != 1 and den % d:
                den = lcm(den, d)
        if den == 1:
            out.append(([x.re.numerator for x in row], 1))
        else:
            out.append(([x.re.numerator * (den // x.re.denominator) for x in row], den))
    return out


_FRACTION_ZERO = Fraction(0)


def _real(num: int, den: int) -> QQi:
    """The real :class:`QQi` ``num / den``, in lowest terms."""
    if not num:
        return QQI_ZERO
    return QQi(Fraction(num, den), _FRACTION_ZERO)


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Fraction-free elimination over the integers, in place (exact divisions).

    Returns ``(rank, det)``; ``det`` is the determinant when the matrix is
    square and of full rank.
    """
    nr, nc = len(rows), len(rows[0])
    prev = 1
    sign = 1
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            rows[r], rows[piv] = rows[piv], rows[r]
            sign = -sign
        pr = rows[r]
        pc = pr[c]
        for i in range(r + 1, nr):
            ri = rows[i]
            f = ri[c]
            if f or any(ri[c:]):
                rows[i] = [(pc * a - f * b) // prev for a, b in zip(ri, pr)]
        prev = pc
        r += 1
    return r, sign * prev


def _rref_int(rows: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan elimination, in place; returns the pivots.

    Each step replaces every row but the pivot row by ``(pc * row - f *
    pivot_row) / prev``, ``prev`` being the previous pivot; the division is
    exact, as in Bareiss elimination.  Row ``i`` of the result, divided by its
    entry in pivot column ``i``, is row ``i`` of the reduced row echelon
    form; the rows after the last pivot are zero.
    """
    nr, nc = len(rows), len(rows[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        pc = pr[c]
        for i in range(nr):
            if i == r:
                continue
            ri = rows[i]
            f = ri[c]
            if f:
                rows[i] = [(pc * a - f * b) // prev for a, b in zip(ri, pr)]
            elif pc != prev and any(ri):
                rows[i] = [pc * a // prev for a in ri]
        prev = pc
        pivots.append(c)
        r += 1
    return pivots


# ---------------------------------------------------------------------------
# rank / kernel / reduced echelon form


def rank(m: Mat, tol: float | None = None) -> int:
    """Rank over the scalar field.

    Exact backend: Bareiss fraction-free elimination on the integer rows.
    Float backend: number of singular values above ``tol`` times the largest
    one (relative cutoff, default 1e-9).
    """
    if m.cols == 0 or m.rows == 0:
        return 0
    if m.backend == FLOAT:
        tol = DEFAULT_TOL if tol is None else tol
        s = np.linalg.svd(m.to_numpy(), compute_uv=False)
        if s.size == 0 or s[0] == 0.0:
            return 0
        return int(np.sum(s > tol * s[0]))
    ints = _int_rows(m.data)
    if ints is None:
        return _rank_qqi(m)
    return _bareiss([r for r, _ in ints])[0]


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form with pivot column list (exact backend only)."""
    if m.backend != EXACT:
        raise LinAlgError("rref is exact-only; use SVD helpers for floats")
    ints = _int_rows(m.data)
    if ints is None:
        return _rref_qqi(m)
    rows = [r for r, _ in ints]
    pivots = _rref_int(rows)
    zero = (QQI_ZERO,) * m.cols
    return Mat._raw(tuple(
        tuple(_real(a, rows[i][pivots[i]]) for a in rows[i]) if i < len(pivots)
        else zero
        for i in range(m.rows)
    ), EXACT), pivots


# ---------------------------------------------------------------------------
# elimination over QQi: the path for non-real entries, and the test oracle


def _matmul_qqi(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b.data))
    return Mat._raw(tuple(tuple(_dot(r, c) for c in bt) for r in a.data), a.backend)


def _mat_vec_qqi(m: Mat, v: Sequence) -> list:
    return [_dot(r, v) for r in m.data]


def _rank_qqi(m: Mat) -> int:
    """Bareiss elimination over Gaussian integers after clearing denominators."""
    rows = [_clear_denominators(r) for r in m.data]
    nr, nc = m.rows, m.cols
    prev = QQi(1)
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        for i in range(r + 1, nr):
            ri = rows[i]
            if any(ri[c:]):
                f = ri[c]
                rows[i] = [
                    (pr[c] * ri[j] - f * pr[j]) / prev for j in range(nc)
                ]
        prev = pr[c]
        r += 1
    return r


def _clear_denominators(row):
    """Scale a row of Gaussian rationals to Gaussian integers (rank-safe)."""
    den = 1
    for x in row:
        den = lcm(den, x.re.denominator, x.im.denominator)
    if den == 1:
        return list(row)
    return [x * den for x in row]


def _rref_qqi(m: Mat) -> tuple[Mat, list[int]]:
    rows = [list(r) for r in m.data]
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = QQi(1) / rows[r][c]
        rows[r] = [a * inv for a in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Mat(rows, EXACT), pivots


def _det_qqi(m: Mat) -> QQi:
    rows = [list(r) for r in m.data]
    n = m.rows
    det = QQi(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return QQi(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det = det * rows[c][c]
        inv = QQi(1) / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def _inverse_qqi(m: Mat) -> Mat:
    n = m.rows
    eye = Mat.identity(n).data
    aug = [list(r) + list(eye[i]) for i, r in enumerate(m.data)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            raise LinAlgError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = QQi(1) / aug[c][c]
        aug[c] = [a * inv for a in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return Mat([r[n:] for r in aug], EXACT)


def kernel(m: Mat, tol: float | None = None) -> "Subspace":
    """Basis of the null space; ``dim = cols - rank``."""
    if m.cols == 0:
        return Subspace.zero(0, m.backend)
    if m.backend == FLOAT:
        tol = DEFAULT_TOL if tol is None else tol
        a = m.to_numpy()
        u, s, vh = np.linalg.svd(a)
        if s.size == 0 or s[0] == 0.0:
            rk = 0
        else:
            rk = int(np.sum(s > tol * s[0]))
        null = vh[rk:].conj().T
        if null.shape[1] == 0:
            return Subspace.zero(m.cols, FLOAT)
        return Subspace(m.cols, Mat.from_numpy(null), canonical=True)
    red, pivots = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    cols = []
    for fc in free:
        v = [QQi(0)] * m.cols
        v[fc] = QQi(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red.data[i][fc]
        cols.append(v)
    if not cols:
        return Subspace.zero(m.cols, EXACT)
    return Subspace(m.cols, Mat.from_columns(cols, m.cols, EXACT))


def solve_unique(a: Mat, b: Sequence, tol: float | None = None):
    """Solve ``a @ x = b``.

    Returns ``(solution, unique, consistent)``; ``solution`` is None when the
    system is inconsistent, otherwise one particular solution.
    """
    if a.backend == FLOAT:
        tol = DEFAULT_TOL if tol is None else tol
        an = a.to_numpy()
        bn = np.array([complex(x) for x in b])
        x, *_ = np.linalg.lstsq(an, bn, rcond=None)
        consistent = bool(np.linalg.norm(an @ x - bn) <= tol * max(1.0, np.linalg.norm(bn)))
        unique = rank(a, tol) == a.cols
        return (list(x) if consistent else None), unique, consistent
    aug = a.hstack(Mat.from_columns([list(b)], a.rows, EXACT))
    red, pivots = rref(aug)
    if a.cols in pivots:
        return None, False, False
    x = [QQi(0)] * a.cols
    for i, pc in enumerate(pivots):
        x[pc] = red.data[i][a.cols]
    unique = len(pivots) == a.cols
    return x, unique, True


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """Span of linearly independent column vectors inside an ambient space."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis: Mat, canonical: bool = False):
        if ambient_dim and basis.rows != ambient_dim:
            raise LinAlgError("basis rows must match ambient dimension")
        if not canonical:
            basis = _canonical_basis(basis)
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def zero(cls, ambient_dim: int, backend: str = EXACT) -> "Subspace":
        return cls(ambient_dim, Mat.zeros(max(ambient_dim, 1), 0, backend), canonical=True)

    @classmethod
    def full(cls, ambient_dim: int, backend: str = EXACT) -> "Subspace":
        return cls(ambient_dim, Mat.identity(ambient_dim, backend), canonical=True)

    @classmethod
    def from_spanning(cls, mat: Mat) -> "Subspace":
        return cls(mat.rows, mat)

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence], ambient_dim: int,
                     backend: str = EXACT) -> "Subspace":
        cols = [list(v) for v in vectors]
        return cls(ambient_dim, Mat.from_columns(cols, ambient_dim, backend))

    @property
    def dim(self) -> int:
        return self.basis.cols

    @property
    def backend(self) -> str:
        return self.basis.backend

    def contains_vector(self, v: Sequence, tol: float | None = None) -> bool:
        if all(not _truthy(x) for x in v):
            return True
        stacked = self.basis.hstack(Mat.from_columns([list(v)], self.ambient_dim, self.backend))
        return rank(stacked, tol) == self.dim

    def contains(self, other: "Subspace", tol: float | None = None) -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise LinAlgError("ambient dimension mismatch")
        if other.dim == 0:
            return True
        return rank(self.basis.hstack(other.basis), tol) == self.dim

    def equals(self, other: "Subspace", tol: float | None = None) -> bool:
        # mutual containment through rank tests, never basis comparison
        return (
            self.dim == other.dim
            and self.contains(other, tol)
            and other.contains(self, tol)
        )

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise LinAlgError("ambient dimension mismatch")
        return Subspace(self.ambient_dim, self.basis.hstack(other.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _truthy(x) -> bool:
    if isinstance(x, QQi):
        return bool(x)
    return abs(x) > 0


def _canonical_basis(mat: Mat) -> Mat:
    if mat.cols == 0:
        return mat
    if mat.backend == FLOAT:
        a = mat.to_numpy()
        u, s, _ = np.linalg.svd(a, full_matrices=False)
        if s.size == 0 or s[0] == 0.0:
            return Mat.zeros(mat.rows, 0, FLOAT)
        rk = int(np.sum(s > DEFAULT_TOL * s[0]))
        return Mat.from_numpy(u[:, :rk]) if rk else Mat.zeros(mat.rows, 0, FLOAT)
    red, pivots = rref(mat.transpose())
    if not pivots:
        return Mat.zeros(mat.rows, 0, EXACT)
    return Mat._raw(red.data[:len(pivots)], EXACT).transpose()


def intersect(a: Subspace, b: Subspace, tol: float | None = None) -> Subspace:
    """Basis of ``a ∩ b``; satisfies dim(a∩b) = dim a + dim b − dim(a+b)."""
    if a.ambient_dim != b.ambient_dim:
        raise LinAlgError("ambient dimension mismatch")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim, a.backend)
    stacked = a.basis.hstack(b.basis)
    null = kernel(stacked, tol)
    if null.dim == 0:
        return Subspace.zero(a.ambient_dim, a.backend)
    coeffs = Mat(null.basis.data[: a.dim], a.backend)
    return Subspace(a.ambient_dim, a.basis @ coeffs)


def annihilator(s: Subspace, pairing: Mat, tol: float | None = None) -> Subspace:
    """``{v : pairing(v, w) = 0 for all w in s}`` for a nondegenerate pairing.

    ``pairing(v, w)`` means ``v^T P w``; dim of the result is
    ambient − dim s.
    """
    if pairing.rows != s.ambient_dim or pairing.cols != s.ambient_dim:
        raise LinAlgError("pairing matrix has wrong shape")
    if rank(pairing, tol) != s.ambient_dim:
        raise LinAlgError("degenerate pairing")
    if s.dim == 0:
        return Subspace.full(s.ambient_dim, s.backend)
    cond = s.basis.transpose() @ pairing.transpose()
    return kernel(cond, tol)
