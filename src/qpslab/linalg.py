"""Exact matrices and subspaces over the Gaussian rationals.

All geometric claims verified by this package reduce to rank, kernel and
intersection computations performed here.  A :class:`Mat` holds exact
entries only; a float entry raises ``TypeError``.  The one float check, the
Weyl-fiber enumeration, runs on numpy arrays in :mod:`qpslab.gspringer`.

Every sampler and suite produces real entries, so a real :class:`Mat` is
kept in integer form: for each row, a list of integer numerators and a
positive row denominator with no factor common to all of them
(``gcd(den, *nums) == 1``).  The row denominator is then the lcm of the
row's reduced entry denominators, so the form is canonical and ``==``
compares it.  Rows have their own denominators: one common denominator for
the whole matrix would make every row as long as the lcm over all rows.
The numerator lists are never mutated once stored; they are lists rather
than tuples because CPython keeps up to 2000 freed tuples of each length
below 20 for reuse, and tuple rows would fill those caches and raise the peak
memory of a run.

* The ``QQi`` entries, :attr:`Mat.data`, are built from the integer rows the
  first time some code reads them, and kept.  A matrix built from entries
  (``Mat(...)``, :meth:`Mat._raw`) clears its rows to integers
  (:func:`_int_rows`) the first time a kernel operation needs them, and keeps
  them, so each matrix is converted at most once.  The column form, derived
  from the rows and kept, is the row form of the transpose (and so of every
  basis :class:`Subspace` canonicalizes) and is sliced by
  :meth:`Mat.col_block` when present.  The right operand of ``@`` needs no
  column form: it is read from its integer rows over the lcm of the row
  denominators (:meth:`Mat.int_entries`), since each output row is reduced
  anyway.
* ``@``, ``+``, ``-``, :meth:`Mat.scale`, :meth:`Mat.transpose`,
  :meth:`Mat.hstack`, :meth:`Mat.vstack`, :meth:`Mat.row_block`,
  :meth:`Mat.col_block`, :meth:`Mat.select_rows` and :meth:`Mat.select_cols`
  return integer form
  directly, without building a ``Fraction``; :func:`mat_vec` takes integer
  dot products with the stored rows.
* :func:`rank` and :meth:`Mat.det` run Bareiss fraction-free elimination
  (Bareiss, Math. Comp. 22, 1968) on the integer rows.
* :func:`rref` and :meth:`Mat.inverse`, for every size, run its
  Gauss-Jordan form (Nakos, Turner and Williams, SIGSAM Bull. 31, 1997),
  whose divisions are exact; pivot row ``i`` of the result is that row over
  its pivot, reduced by the row gcd.  :func:`solve_unique`,
  :class:`Subspace` and :func:`null_vectors` sit on :func:`rref` and read
  its integer rows.
* :func:`null_vectors` reads a basis of the null space off one rref,
  without canonicalizing it.  :func:`kernel` is the canonical
  :class:`Subspace` of those vectors (a second rref).  Callers whose result
  is canonicalized anyway, :func:`intersect` and the Dirac transports of
  :mod:`qpslab.dirac`, take the raw vectors and skip that rref.

The results are identical, entry for entry and so in every report, to those
of elimination over :class:`QQi`: scaling a row does not change the reduced
row echelon form, products, ranks, determinants, the RREF and the inverse
are unique values, and ``Fraction`` always stores a value in lowest terms.

A vector of first-order ``Dual`` numbers (a section evaluated at a dual
point) reaches :func:`mat_vec`; it is split into its value and derivative
parts, each a real vector, and both run on the integer kernel, since
``M (v + eps w) = M v + eps M w``.

A matrix with a non-real entry keeps its :class:`QQi` entries and takes the
elimination over :class:`QQi`, kept as the ``_*_qqi`` functions; so does a
vector that is neither real nor split that way (nested duals, non-real
parts).  Only JSON input can produce a non-real entry; the same functions
are the oracle of the differential tests.

Conventions: a :class:`Subspace` stores a basis matrix whose *columns* are
the basis vectors, canonicalized by reduced row echelon form of the
transpose, so equal subspaces print identically.  Containment and equality
are decided by one product against the basis's pivot rows, with no
elimination.  Let A be a canonical basis and p the pivot columns of its
transpose, so that A[p, :] = I.  The span of B lies in the span of A
exactly when ``A @ B[p, :] == B``:

* if B = A C for some C, then B[p, :] = A[p, :] C = C, so A B[p, :] = B;
* if A B[p, :] = B, every column of B is a combination of those of A.

Equality is equal dimensions plus one containment, the other being implied.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, mul, sub
from typing import Iterable, Sequence

from .scalars import QQI_ZERO, Dual, QQi

# the values of a campaign's backend setting; only diagram-gs takes FLOAT
EXACT = "exact"
FLOAT = "float"


class LinAlgError(ValueError):
    pass


def _coerce_entry(x):
    if isinstance(x, QQi):
        return x
    if isinstance(x, (int, Fraction)):
        return QQi(x)
    raise TypeError(f"exact matrix entry must be rational, got {type(x).__name__}")


class Mat:
    """Immutable dense matrix of :class:`QQi` entries; row-major tuple of
    row tuples (:attr:`data`).

    A real matrix also keeps its integer rows and columns (see the module
    docstring); whichever form is missing is derived when first used.
    """

    __slots__ = ("rows", "cols", "_data", "_ints", "_icols")

    def __init__(self, data: Sequence[Sequence]):
        rows = tuple(tuple(_coerce_entry(x) for x in r) for r in data)
        if not rows:
            raise LinAlgError("matrix needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise LinAlgError("ragged rows")
        self._init(len(rows), ncols, rows)

    def _init(self, rows, cols, data=None, ints=None, icols=None):
        self.rows = rows
        self.cols = cols
        self._data = data
        # None: not derived yet; _NOT_INT: a non-real entry
        self._ints = ints
        self._icols = icols

    @classmethod
    def _raw(cls, data: tuple) -> "Mat":
        """Internal constructor skipping coercion (entries already clean)."""
        m = object.__new__(cls)
        m._init(len(data), len(data[0]) if data else 0, data)
        return m

    @classmethod
    def _from_ints(cls, ints: list, cols: int, icols: list | None = None) -> "Mat":
        """Internal constructor from canonical integer rows (and columns)."""
        m = object.__new__(cls)
        m._init(len(ints), cols, None, ints, icols)
        return m

    @property
    def data(self) -> tuple:
        data = self._data
        if data is None:
            self._data = data = tuple(
                tuple(_real(a, d) for a in r) for r, d in self._ints
            )
        return data

    def _int_form(self):
        """The integer rows, or None for a non-real matrix."""
        ints = self._ints
        if ints is None:
            ints = _int_rows(self._data)
            self._ints = ints = _NOT_INT if ints is None else ints
        return None if ints is _NOT_INT else ints

    def _int_columns(self) -> list:
        """The integer form of the columns; only for a real matrix."""
        icols = self._icols
        if icols is None:
            self._icols = icols = _transpose_ints(self._int_form(), self.cols)
        return icols

    # -- constructors --------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Mat":
        if not n:
            raise LinAlgError("matrix needs at least one row")
        return cls._from_ints(
            [([int(i == j) for j in range(n)], 1) for i in range(n)], n
        )

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Mat":
        if not rows:
            raise LinAlgError("matrix needs at least one row")
        return cls._from_ints([([0] * cols, 1)] * rows, cols)

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence], ambient: int) -> "Mat":
        if not columns:
            return cls.zeros(ambient, 0) if ambient else cls([[]])
        return cls([[col[i] for col in columns] for i in range(ambient)])

    @classmethod
    def from_int_columns(cls, columns: Sequence[Sequence[int]], den: int) -> "Mat":
        """The matrix with integer columns ``columns`` over the positive
        common denominator ``den``, kept in both integer forms."""
        return cls._from_ints([_canon(list(r), den) for r in zip(*columns)],
                              len(columns), [_canon(list(c), den) for c in columns])

    def int_entries(self) -> tuple[list[list[int]], int] | None:
        """``(N, den)`` with the matrix equal to ``N / den``: integer rows over
        the lcm of the row denominators.  None for a non-real matrix."""
        ints = self._int_form()
        if ints is None:
            return None
        den = lcm(*(d for _, d in ints))
        return [r if d == den else [a * (den // d) for a in r] for r, d in ints], den

    # -- basic algebra -------------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise LinAlgError(f"shape mismatch {self.shape} @ {other.shape}")
            if self.cols:
                a = self._int_form()
                b = other.int_entries() if a is not None else None
                if b is not None:
                    return Mat._from_ints(_matmul_ints(a, *b), other.cols)
            return _matmul_qqi(self, other)
        return NotImplemented

    def _combine(self, other, op):
        self._same_shape(other)
        a = self._int_form()
        b = other._int_form() if a is not None else None
        if b is not None:
            return Mat._from_ints(_add_ints(a, b, op), self.cols)
        return Mat._raw(
            tuple(
                tuple(map(op, ra, rb)) for ra, rb in zip(self.data, other.data)
        ))

    def __add__(self, other):
        if isinstance(other, Mat):
            return self._combine(other, add)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Mat):
            return self._combine(other, sub)
        return NotImplemented

    def __neg__(self):
        ints = self._int_form()
        if ints is not None:
            return Mat._from_ints(
                [([-a for a in r], d) for r, d in ints], self.cols
            )
        return Mat._raw(tuple(tuple(-a for a in r) for r in self.data))

    def scale(self, s) -> "Mat":
        if not isinstance(s, QQi):
            s = QQi(s)
        ints = self._int_form() if not s.im else None
        if ints is not None:
            p, q = s.re.numerator, s.re.denominator
            if not p:
                return Mat.zeros(self.rows, self.cols)
            return Mat._from_ints(
                [_canon([a * p for a in r], d * q) for r, d in ints], self.cols
            )
        return Mat._raw(tuple(tuple(a * s for a in r) for r in self.data))

    def transpose(self) -> "Mat":
        if self.cols and self._int_form() is not None:
            return Mat._from_ints(self._int_columns(), self.rows, self._ints)
        return Mat._raw(tuple(zip(*self.data)))

    def trace(self):
        if self.rows != self.cols:
            raise LinAlgError("trace of non-square matrix")
        t = self.entry(0, 0)
        for i in range(1, self.rows):
            t = t + self.entry(i, i)
        return t

    @property
    def shape(self):
        return (self.rows, self.cols)

    def entry(self, i: int, j: int):
        """One entry; read from the integer rows if no entry was built yet."""
        if self._data is None:
            r, d = self._ints[i]
            return _real(r[j], d)
        return self._data[i][j]

    def col(self, j: int) -> list:
        return [self.entry(i, j) for i in range(self.rows)]

    def row_block(self, start: int, stop: int) -> "Mat":
        """Rows ``start:stop`` (slice bounds); an empty block is an error."""
        n = len(range(self.rows)[start:stop])
        if not n:
            raise LinAlgError("matrix needs at least one row")
        data, ints = self._data, self._ints
        m = object.__new__(Mat)
        m._init(n, self.cols,
                None if data is None else data[start:stop],
                ints[start:stop] if ints else None)
        return m

    def col_block(self, start: int, stop: int) -> "Mat":
        """Columns ``start:stop`` (slice bounds); an empty block is an error."""
        n = len(range(self.cols)[start:stop])
        if not n:
            raise LinAlgError("matrix needs at least one column")
        ints = self._int_form()
        if ints is None:
            return Mat._raw(tuple(r[start:stop] for r in self.data))
        icols = self._icols
        return Mat._from_ints([_canon(r[start:stop], d) for r, d in ints], n,
                              None if icols is None else icols[start:stop])

    def select_rows(self, order: Sequence[int]) -> "Mat":
        """The rows ``order``, in that order; an empty order is an error."""
        if not order:
            raise LinAlgError("matrix needs at least one row")
        ints = self._int_form()
        if ints is None:
            data = self.data
            return Mat._raw(tuple(data[i] for i in order))
        return Mat._from_ints([ints[i] for i in order], self.cols)

    def select_cols(self, order: Sequence[int]) -> "Mat":
        """The columns ``order``, in that order; an empty order is an error."""
        if not order:
            raise LinAlgError("matrix needs at least one column")
        ints = self._int_form()
        if ints is None:
            return Mat._raw(tuple(tuple(r[c] for c in order) for r in self.data))
        return Mat._from_ints([_canon([r[c] for c in order], d) for r, d in ints],
                              len(order))

    def fold_rows(self, width: int) -> "Mat":
        """Each row cut into consecutive pieces of ``width`` entries, the
        pieces stacked in order: a 1 x (r w) row becomes an r x w matrix."""
        if not width or self.cols % width:
            raise LinAlgError("row length must be a multiple of the width")
        cuts = range(0, self.cols, width)
        ints = self._int_form()
        if ints is None:
            return Mat._raw(tuple(r[k:k + width] for r in self.data for k in cuts))
        return Mat._from_ints(
            [_canon(r[k:k + width], d) for r, d in ints for k in cuts], width
        )

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        if self.shape != other.shape:
            return False
        a, b = self._int_form(), other._int_form()
        if a is not None and b is not None:
            return a == b
        if a is not None or b is not None:
            return False  # a real matrix never equals a non-real one
        return self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def is_zero(self) -> bool:
        ints = self._int_form()
        if ints is not None:
            return not any(any(r) for r, _ in ints)
        return all(not x for r in self.data for x in r)

    def _same_shape(self, other):
        if self.shape != other.shape:
            raise LinAlgError(f"shape mismatch {self.shape} vs {other.shape}")

    # -- elimination-based operations ----------------------------------------

    def det(self):
        if self.rows != self.cols:
            raise LinAlgError("determinant of non-square matrix")
        ints = self._int_form()
        if ints is None:
            return _det_qqi(self)
        rk, det = _bareiss([r for r, _ in ints])
        return _real(det if rk == self.rows else 0, prod(d for _, d in ints))

    def inverse(self) -> "Mat":
        if self.rows != self.cols:
            raise LinAlgError("inverse of non-square matrix")
        n = self.rows
        ints = self._int_form()
        if ints is None:
            return _inverse_qqi(self)
        # A = D^-1 N with D the row denominators, so rref [N | D] = [I | A^-1]
        aug = [r + [d if j == i else 0 for j in range(n)]
               for i, (r, d) in enumerate(ints)]
        if _rref_int(aug) != list(range(n)):
            raise LinAlgError("singular matrix")
        return Mat._from_ints(
            [_canon(r[n:], r[i]) for i, r in enumerate(aug)], n
        )

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise LinAlgError("row mismatch in hstack")
        a = self._int_form()
        b = other._int_form() if a is not None else None
        if b is not None:
            return Mat._from_ints(_hstack_ints(a, b), self.cols + other.cols)
        return Mat._raw(tuple(a + b for a, b in zip(self.data, other.data)))

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise LinAlgError("col mismatch in vstack")
        a = self._int_form()
        b = other._int_form() if a is not None else None
        if b is not None:
            return Mat._from_ints(a + b, self.cols)
        return Mat._raw(self.data + other.data)

    def __repr__(self):
        body = "; ".join(" ".join(repr(x) for x in r) for r in self.data)
        return f"Mat[{self.rows}x{self.cols}]({body})"


def dot(a: Sequence, b: Sequence):
    """``sum(x * y)`` over paired entries of any scalar kind; None if empty."""
    acc = None
    for x, y in zip(a, b):
        t = x * y
        acc = t if acc is None else acc + t
    return acc


def _dot(row, col):
    acc = dot(row, col)
    if acc is None:
        raise LinAlgError("empty dot product")
    return acc


def mat_vec(m: Mat, v: Sequence) -> list:
    if m.cols != len(v):
        raise LinAlgError("matrix/vector size mismatch")
    if m.cols:
        vi = _int_rows((v,))
        if vi is None:
            vi = _dual_parts(v)
        rows = m._int_form() if vi is not None else None
        if rows is not None:
            out = [[_real(sum(map(mul, r, cv)), d * dv) for r, d in rows]
                   for cv, dv in vi]
            return out[0] if len(out) == 1 else [Dual(a, b) for a, b in zip(*out)]
    return _mat_vec_qqi(m, v)


def _dual_parts(v: Sequence):
    """:func:`_int_rows` of the value and derivative parts of a dual vector.

    None unless every entry is a ``Dual`` whose parts are real :class:`QQi`.
    """
    if not all(isinstance(x, Dual) for x in v):
        return None
    return _int_rows(([x.val for x in v], [x.dot for x in v]))


# ---------------------------------------------------------------------------
# the integer kernel

# Mat._ints of a matrix with a non-real entry
_NOT_INT = False


def _int_rows(rows) -> list[tuple[list[int], int]] | None:
    """Each row as (integer numerators, positive row denominator).

    The row denominator is the lcm of the row's entry denominators, so each
    entry is its numerator over it, and no factor divides the denominator
    and every numerator.  Returns None if an entry is not a real
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


def _canon(nums: list[int], den: int) -> tuple[list[int], int]:
    """The integer row ``nums / den`` with the common factor divided out and
    a positive denominator."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return nums, den
    return [a // g for a in nums], den // g


def _transpose_ints(rows: list, ncols: int) -> list:
    """The integer columns of the matrix with integer rows ``rows``."""
    dens = [d for _, d in rows]
    cols = zip(*(r for r, _ in rows)) if rows else ((),) * ncols
    if all(d == 1 for d in dens):
        return [(list(c), 1) for c in cols]
    out = []
    for c in cols:
        den = lcm(*(d for a, d in zip(c, dens) if a))
        out.append((list(c), 1) if den == 1 else
                   _canon([a * (den // d) for a, d in zip(c, dens)], den))
    return out


def _matmul_ints(a: list, b: list[list[int]], den: int) -> list:
    """Integer rows of the product of integer rows ``a`` and ``b / den``.

    ``b / den`` is the right operand as :meth:`Mat.int_entries` gives it: its
    rows over the lcm of its row denominators.  Entry ``(i, j)`` is
    ``a_i . b^j / (da_i den)``; :func:`_canon` reduces each output row.
    """
    cols = list(zip(*b))
    return [_canon([sum(map(mul, r, c)) for c in cols], d * den) for r, d in a]


def _add_ints(a: list, b: list, op) -> list:
    """Integer rows of the entrywise ``op`` (add or sub) of two matrices."""
    out = []
    for (ra, da), (rb, db) in zip(a, b):
        if da == db:
            out.append(_canon(list(map(op, ra, rb)), da))
        else:
            den = lcm(da, db)
            fa, fb = den // da, den // db
            out.append(_canon([op(x * fa, y * fb) for x, y in zip(ra, rb)], den))
    return out


def _hstack_ints(a: list, b: list) -> list:
    """Integer rows of ``[A | B]``.

    Over ``lcm(da, db)`` the joined row needs no gcd: if ``p**k`` is the
    power of a prime ``p`` in the lcm, it divides ``da`` (say), so some entry
    of the canonical row ``ra`` is prime to ``p``, and so is its cofactor
    ``lcm(da, db) // da``.
    """
    out = []
    for (ra, da), (rb, db) in zip(a, b):
        if da == db:
            out.append((ra + rb, da))
            continue
        den = lcm(da, db)
        fa, fb = den // da, den // db
        out.append(((ra if fa == 1 else [x * fa for x in ra])
                    + (rb if fb == 1 else [x * fb for x in rb]), den))
    return out


def _real(num: int, den: int) -> QQi:
    """The real :class:`QQi` ``num / den``, in lowest terms."""
    if not num:
        return QQI_ZERO
    return QQi(Fraction(num, den))


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


def rank(m: Mat) -> int:
    """Rank by Bareiss fraction-free elimination on the integer rows."""
    if m.cols == 0 or m.rows == 0:
        return 0
    ints = m._int_form()
    if ints is None:
        return _rank_qqi(m)
    return _bareiss([r for r, _ in ints])[0]


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form with pivot column list."""
    ints = m._int_form()
    if ints is None:
        return _rref_qqi(m)
    rows = [r for r, _ in ints]
    pivots = _rref_int(rows)
    zero = ([0] * m.cols, 1)
    return Mat._from_ints([
        _canon(rows[i], rows[i][pivots[i]]) if i < len(pivots) else zero
        for i in range(m.rows)
    ], m.cols), pivots


# ---------------------------------------------------------------------------
# elimination over QQi: the path for non-real entries, and the test oracle


def _matmul_qqi(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b.data))
    return Mat._raw(tuple(tuple(_dot(r, c) for c in bt) for r in a.data))


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
    return Mat(rows), pivots


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
    return Mat([r[n:] for r in aug])


def null_vectors(m: Mat) -> Mat:
    """A basis of the null space of ``m``, read off its rref; not canonical.

    Column j of the ``m.cols x nullity`` result is the null vector of the
    j-th free column fc: 1 at fc and minus column fc of the pivot rows at the
    pivots.  Its rows come straight from the rref rows.  :func:`kernel` is
    the canonical :class:`Subspace` of these columns; a caller whose result
    is canonicalized anyway takes them raw and saves that rref.
    """
    red, pivots = rref(m)
    at = {c: i for i, c in enumerate(pivots)}  # pivot column -> its row
    free = [c for c in range(m.cols) if c not in at]
    ints = red._int_form()
    if ints is None:
        one, data = QQi(1), red.data
        return Mat._raw(tuple(
            tuple(-data[at[c]][fc] for fc in free) if c in at else
            tuple(one if fc == c else QQI_ZERO for fc in free)
            for c in range(m.cols)))
    return Mat._from_ints([
        _canon([-ints[at[c]][0][fc] for fc in free], ints[at[c]][1]) if c in at
        else ([int(fc == c) for fc in free], 1)
        for c in range(m.cols)
    ], len(free))


def kernel(m: Mat) -> "Subspace":
    """Canonical basis of the null space; ``dim = cols - rank``."""
    if m.cols == 0:
        return Subspace.zero(0)
    return Subspace(m.cols, null_vectors(m))


def solve_unique(a: Mat, b: Sequence):
    """Solve ``a @ x = b``.

    Returns ``(solution, unique, consistent)``; ``solution`` is None when the
    system is inconsistent, otherwise one particular solution.
    """
    x, unique, consistent = solve_columns(a, Mat.from_columns([list(b)], a.rows))
    return (x.col(0) if consistent else None), unique, consistent


def solve_columns(a: Mat, b: Mat):
    """Solve ``a @ X = b`` for every column of ``b`` with one rref of ``[a | b]``.

    Returns ``(X, unique, consistent)`` like :func:`solve_unique`: ``X`` is
    None and both flags are False when some column is inconsistent;
    otherwise column j of ``X`` is the particular solution with every free
    variable zero, the one :func:`solve_unique` gives for column j.  When
    every column is consistent, the columns of rref ``[a | b]`` that belong
    to ``[a | b_j]`` are rref ``[a | b_j]``.
    """
    n, m = a.cols, b.cols
    red, pivots = rref(a.hstack(b))
    if pivots and pivots[-1] >= n:
        return None, False, False
    values = red.col_block(n, n + m)
    ints = values._int_form()
    if ints is None:
        rows = [(QQI_ZERO,) * m] * n
        for i, pc in enumerate(pivots):
            rows[pc] = values.data[i]
        x = Mat._raw(tuple(rows))
    else:
        rows = [([0] * m, 1)] * n
        for i, pc in enumerate(pivots):
            rows[pc] = ints[i]
        x = Mat._from_ints(rows, m)
    return x, len(pivots) == n, True


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """Span of linearly independent column vectors inside an ambient space.

    The stored basis is canonical: its transpose is in reduced row echelon
    form, so at its pivot rows p (the pivot columns of the transpose) it
    reads ``basis[p, :] == I``, which every containment test relies on (see
    the module docstring).  A spanning set is canonicalized by one rref,
    whose pivots are kept.  ``canonical=True`` is the caller's promise that
    ``basis`` already is that canonical basis, the one the rref would
    return; it is then stored as given, and its pivot rows are read off it
    (each column's first non-zero entry) the first time a test needs them.
    A non-canonical basis passed so gives wrong containment verdicts.
    """

    __slots__ = ("ambient_dim", "basis", "_pivots")

    def __init__(self, ambient_dim: int, basis: Mat, canonical: bool = False):
        if ambient_dim and basis.rows != ambient_dim:
            raise LinAlgError("basis rows must match ambient dimension")
        pivots = None
        if not canonical:
            basis, pivots = _canonical_basis(basis)
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._pivots = pivots

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Mat.zeros(max(ambient_dim, 1), 0), canonical=True)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Mat.identity(ambient_dim), canonical=True)

    @classmethod
    def from_spanning(cls, mat: Mat) -> "Subspace":
        return cls(mat.rows, mat)

    @classmethod
    def from_vectors(cls, vectors: Iterable[Sequence], ambient_dim: int) -> "Subspace":
        cols = [list(v) for v in vectors]
        return cls(ambient_dim, Mat.from_columns(cols, ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def _pivot_rows(self) -> list[int]:
        """The rows p with ``basis[p, :] == I``."""
        if self._pivots is None:
            self._pivots = _leading_rows(self.basis)
        return self._pivots

    def contains_columns(self, mat: Mat) -> bool:
        """Whether every column of ``mat`` lies in the span: one product,
        ``basis @ mat[p, :] == mat`` at the pivot rows p."""
        if mat.rows != self.ambient_dim:
            raise LinAlgError("ambient dimension mismatch")
        if not mat.cols:
            return True
        if not self.dim:
            return mat.is_zero()
        return self.basis @ mat.select_rows(self._pivot_rows()) == mat

    def contains_vector(self, v: Sequence) -> bool:
        if len(v) != self.ambient_dim:
            raise LinAlgError("ambient dimension mismatch")
        if not any(v):
            return True
        return self.contains_columns(Mat.from_columns([list(v)], self.ambient_dim))

    def contains(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise LinAlgError("ambient dimension mismatch")
        if other.dim == 0:
            return True
        return self.contains_columns(other.basis)

    def equals(self, other: "Subspace") -> bool:
        # of equal dimension, either contains the other exactly when they
        # are equal; decided by a product, never by comparing bases
        return self.dim == other.dim and self.contains(other)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise LinAlgError("ambient dimension mismatch")
        return Subspace(self.ambient_dim, self.basis.hstack(other.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _canonical_basis(mat: Mat) -> tuple[Mat, list[int]]:
    """The canonical basis of the column span of ``mat``, with its pivot rows."""
    if mat.cols == 0:
        return mat, []
    return _row_space_basis(mat.transpose())


def _row_space_basis(rows: Mat) -> tuple[Mat, list[int]]:
    """The canonical column basis of the span of the rows of a matrix, and
    the rref's pivots, which are the basis's pivot rows."""
    red, pivots = rref(rows)
    if not pivots:
        return Mat.zeros(rows.cols, 0), pivots
    return red.row_block(0, len(pivots)).transpose(), pivots


def _leading_rows(basis: Mat) -> list[int]:
    """The row of each column's first non-zero entry: the pivot rows of a
    canonical basis, read without elimination."""
    if not basis.cols:
        return []
    if basis._int_form() is not None:
        cols = [c for c, _ in basis._int_columns()]
    else:
        cols = list(zip(*basis.data))
    return [next(i for i, x in enumerate(c) if x) for c in cols]


def intersect(a: Subspace, b: Subspace) -> Subspace:
    """Basis of ``a ∩ b``; satisfies dim(a∩b) = dim a + dim b − dim(a+b)."""
    if a.ambient_dim != b.ambient_dim:
        raise LinAlgError("ambient dimension mismatch")
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.ambient_dim)
    # the null vectors (p; q) of [A | B] map one to one onto A p, since
    # both bases are independent
    null = null_vectors(a.basis.hstack(b.basis))
    if null.cols == 0:
        return Subspace.zero(a.ambient_dim)
    return Subspace(a.ambient_dim, a.basis @ null.row_block(0, a.dim))


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
        return Subspace.full(s.ambient_dim)
    cond = s.basis.transpose() @ pairing.transpose()
    return kernel(cond)
