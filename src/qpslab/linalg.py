"""Exact matrices and subspaces over the Gaussian rationals.

All geometric claims verified by this package reduce to rank, kernel and
intersection computations performed here.  A :class:`Mat` holds exact
entries only; a float entry, or a float passed to :meth:`Mat.scale`, raises
``TypeError``.  Nothing in the package computes in floating point.

Every :class:`Mat` is kept in one form, integer rows: for each row, a list
of numerators over a positive integer row denominator.  A real numerator is
a plain ``int``; a non-real one is a Gaussian integer
(:class:`~qpslab.scalars.ZZi`), whose operations return an ``int`` whenever
the result is real, so a real matrix holds ``int``s alone and its
arithmetic is integer arithmetic.  The form is canonical: no factor divides
the denominator and every real and imaginary part of the numerators
(``gcd(den, *parts) == 1``), so the row denominator is the lcm of the
denominators of the parts of the row's entries, and ``==`` compares rows.
Rows have their own denominators: one common denominator for the whole
matrix would make every row as long as the lcm over all rows.  The
numerator lists are never mutated once stored; they are lists rather than
tuples because CPython keeps up to 2000 freed tuples of each length below
20 for reuse, and tuple rows would fill those caches and raise the peak
memory of a run.

* Integer rows are built without a ``QQi`` entry wherever the values are
  at hand as integers or fractions.  :meth:`Mat.from_pairs` builds them
  from reduced ``(numerator, denominator)`` pairs (:func:`_pair_row`): the
  seeded draws (:meth:`qpslab.prng.SplitMix64.rational_pair`) of the
  samplers of :mod:`qpslab.liegroup`, of the directions of the sampled
  d-identity and of the pairing suite's random form arrive that way, and
  :meth:`Mat.scale_rows` multiplies by a diagonal of such pairs as a row
  scaling.  ``Mat(rows)`` of ``int`` and ``Fraction`` entries builds them
  at once the same way (:func:`_rational_row`): the algebra basis, the Weyl
  representatives and every real JSON matrix
  (:func:`qpslab.matio.mat_from_json`) arrive that way.
  :meth:`Mat.from_int_rows` builds them from integers over a common
  denominator (the Lie brackets, the algebra matrices of coordinate columns,
  the sampled algebra elements, and the closed-form adjoint, T = G Ad_b and
  the commutator matrix, each from the rows of its computed columns), and
  so does every kernel operation below.  Rows of :class:`QQi` entries are
  built by :func:`_pair_row` of their real and imaginary parts
  (:func:`_gaussian_row`).  Going the other way, the JSON writer reads the
  integer rows, not the entries.
* The integer rows are the only form a :class:`Mat` stores.  Its ``QQi``
  entries (:attr:`Mat.data`, :meth:`Mat.entry`) are built from them on each
  read, and its transpose canonicalizes their columns on each call.  Two
  values derived from the rows are kept, because they are read again: the
  right operand of ``@`` needs no column form, it is read from its integer
  rows over the lcm of the row denominators (:meth:`Mat.int_entries`),
  since each output row is reduced anyway, and those rescaled rows are kept,
  so a matrix that is a right operand (or an input of the closed-form
  adjoints, or a transpose) several times is rescaled once; and
  :meth:`Mat.inverse` keeps the inverse, and the inverse keeps the matrix,
  so a function of a group element reads the inverse off it.
* ``@``, ``+``, ``-``, :meth:`Mat.scale`, :meth:`Mat.scale_rows`,
  :meth:`Mat.transpose`, :meth:`Mat.hstack`, :meth:`Mat.vstack`,
  :meth:`Mat.row_block`, :meth:`Mat.col_block`, :meth:`Mat.select_rows` and
  :meth:`Mat.select_cols` return integer form directly, without building a
  ``Fraction``.
* In ``@``, a left row that is at least half zeros (identity blocks, basis
  matrices and basis brackets) is not dotted with every column: its output
  row is the same combination of the right operand's rows at its non-zero
  entries (:func:`_row_combination`).  The other rows keep the dot products.
* One elimination runs on the integer rows: :func:`_rref_int`, the
  Gauss-Jordan form (Nakos, Turner and Williams, SIGSAM Bull. 31, 1997) of
  Bareiss fraction-free elimination (Bareiss, Math. Comp. 22, 1968), whose
  divisions are exact in any integral domain, the Gaussian integers
  included.  A step rewrites only the rows with a non-zero entry in its
  pivot column: eager Bareiss would also rescale every other row by the
  ratio of this pivot to the previous one, and here each row instead keeps
  its level, the pivot it was last written at, which divides its next
  update exactly (see :func:`_rref_int`).  It returns the pivots and the
  determinant, the last pivot signed by the row swaps.  :func:`rank` reads
  the pivot count and :meth:`Mat.det` the determinant; in :func:`rref` and
  :meth:`Mat.inverse` pivot row ``i`` of the result is that row over its
  pivot, reduced by the row gcd.  :func:`solve_unique`, :class:`Subspace`
  and :func:`null_vectors` sit on :func:`rref` and read its integer rows.
* :func:`null_vectors` reads a basis of the null space off one rref,
  without canonicalizing it.  :func:`kernel` is the canonical
  :class:`Subspace` of those vectors (a second rref, unless they already
  are its canonical basis).  Callers whose result is canonicalized anyway,
  :func:`intersect` and the Dirac transports of :mod:`qpslab.dirac`, take
  the raw vectors and skip that rref.

Every row an operation makes is reduced by :func:`_canon`, whose first
statement is ``gcd(den, *nums)``.  ``math.gcd`` takes integers only, so a
Gaussian numerator, or a Gaussian pivot as the denominator, makes it raise
``TypeError``; the row then takes a small Gaussian branch
(:func:`_gaussian_gcd`), which makes a Gaussian denominator real by
multiplying the row by its conjugate and takes the gcd of every real and
imaginary part.  A real row pays only the ``try``.

The results are identical, entry for entry and so in every report, to those
of elimination over :class:`QQi`: scaling a row does not change the reduced
row echelon form, products, ranks, determinants, the RREF and the inverse
are unique values, and ``Fraction`` always stores a value in lowest terms.
That elimination over :class:`QQi`, which non-real matrices once took, is
kept in the tests (``tests/qqi_oracle.py``) as the oracle of the
differential tests.

Conventions: a :class:`Subspace` stores a basis matrix whose *columns* are
the basis vectors, canonicalized by reduced row echelon form of the
transpose, so equal subspaces print identically; no caller vouches for a
basis, which is recognised as canonical or canonicalized by one rref.
Containment and equality are decided by one product against the basis's
pivot rows, with no elimination.  Let A be a canonical basis and p the
pivot columns of its transpose, so that A[p, :] = I.  The span of B lies
in the span of A exactly when ``A @ B[p, :] == B``:

* if B = A C for some C, then B[p, :] = A[p, :] C = C, so A B[p, :] = B;
* if A B[p, :] = B, every column of B is a combination of those of A.

Equality is equal dimensions plus one containment, the other being implied.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, mul, sub
from typing import Sequence

from .scalars import QQI_ZERO, QQi, ZZi, zzi

# the values of a campaign's backend setting; only diagram-gs takes FLOAT, and
# decides its records exactly on either
EXACT = "exact"
FLOAT = "float"


class LinAlgError(ValueError):
    pass


# the entry types Mat(...) builds integer rows from at once
_RATIONAL = (int, Fraction)


def _coerce_entry(x):
    if isinstance(x, QQi):
        return x
    if isinstance(x, _RATIONAL):
        return QQi(x)
    raise TypeError(f"exact matrix entry must be rational, got {type(x).__name__}")


class Mat:
    """Immutable dense matrix over the Gaussian rationals, stored as its
    integer rows (see the module docstring).  Its :class:`QQi` entries
    (:attr:`data`, :meth:`entry`) and its columns (:meth:`transpose`) are
    computed when read; only the rescaled rows of :meth:`int_entries` and
    the inverse are kept once derived.
    """

    __slots__ = ("rows", "cols", "_ints", "_iright", "_inv")

    def __init__(self, data: Sequence[Sequence]):
        """The matrix with these rows of entries, kept as integer rows only.
        A row of ``int`` and ``Fraction`` entries goes straight to integer
        form (:func:`_rational_row`), with no :class:`QQi` entry; any other
        row is coerced to :class:`QQi` entries and built from their parts
        (:func:`_gaussian_row`), and the entries are not kept."""
        if not data:
            raise LinAlgError("matrix needs at least one row")
        ncols = len(data[0])
        if any(len(r) != ncols for r in data):
            raise LinAlgError("ragged rows")
        self._init(len(data), ncols, [
            _rational_row(r) if all(type(x) in _RATIONAL for x in r)
            else _gaussian_row([_coerce_entry(x) for x in r]) for r in data])

    def _init(self, rows, cols, ints):
        self.rows = rows
        self.cols = cols
        self._ints = ints
        self._iright = None  # int_entries, once derived
        self._inv = None  # inverse, once computed

    @classmethod
    def _from_ints(cls, ints: list, cols: int) -> "Mat":
        """Internal constructor from canonical integer rows."""
        m = object.__new__(cls)
        m._init(len(ints), cols, ints)
        return m

    @property
    def data(self) -> tuple:
        """The :class:`QQi` entries, row-major tuples, built from the integer
        rows on each read."""
        return tuple(tuple(_entry(a, d) for a in r) for r, d in self._ints)

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
        if any(len(c) != ambient for c in columns):
            raise LinAlgError(f"column length differs from ambient {ambient}")
        if not columns:
            return cls.zeros(ambient, 0) if ambient else cls([[]])
        return cls([[col[i] for col in columns] for i in range(ambient)])

    @classmethod
    def from_pairs(cls, rows: Sequence[Sequence[tuple[int, int]]]) -> "Mat":
        """The matrix whose entries are the reduced pairs ``(numerator,
        positive denominator)`` in ``rows``, built straight into integer
        rows (:func:`_pair_row`)."""
        return cls._from_ints([_pair_row(r) for r in rows], len(rows[0]))

    @classmethod
    def from_int_rows(cls, rows: Sequence[Sequence[int]], den: int) -> "Mat":
        """The matrix with integer rows ``rows`` over the positive common
        denominator ``den``."""
        ints = [_canon(list(r), den) for r in rows]
        return cls._from_ints(ints, len(ints[0][0]))

    def int_entries(self) -> tuple[list[list[int]], int]:
        """``(N, den)`` with the matrix equal to ``N / den``: integer rows over
        the lcm of the row denominators.

        Derived once and kept, as the inverse is, so a matrix that is the
        right operand of several products is rescaled once; like the integer
        rows, the kept lists are never mutated.  Nothing else derived from
        the rows is kept: entries and columns are computed when read.
        """
        right = self._iright
        if right is None:
            ints = self._ints
            den = lcm(*(d for _, d in ints))
            self._iright = right = (
                [r if d == den else [a * (den // d) for a in r] for r, d in ints], den)
        return right

    # -- basic algebra -------------------------------------------------------

    def __matmul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise LinAlgError(f"shape mismatch {self.shape} @ {other.shape}")
            if not self.cols:
                return Mat.zeros(self.rows, other.cols)
            return Mat._from_ints(_matmul_ints(self._ints, *other.int_entries()),
                                  other.cols)
        return NotImplemented

    def _combine(self, other, op):
        self._same_shape(other)
        return Mat._from_ints(_add_ints(self._ints, other._ints, op), self.cols)

    def __add__(self, other):
        if isinstance(other, Mat):
            return self._combine(other, add)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Mat):
            return self._combine(other, sub)
        return NotImplemented

    def __neg__(self):
        return Mat._from_ints([([-a for a in r], d) for r, d in self._ints], self.cols)

    def scale(self, s) -> "Mat":
        """The matrix times an exact scalar; a float raises ``TypeError``."""
        (p,), q = _gaussian_row((_coerce_entry(s),))
        if not p:
            return Mat.zeros(self.rows, self.cols)
        return Mat._from_ints(
            [_canon([a * p for a in r], d * q) for r, d in self._ints], self.cols
        )

    def scale_rows(self, pairs: Sequence[tuple[int, int]]) -> "Mat":
        """``D @ self``, D the diagonal matrix of the reduced pairs
        ``(numerator, positive denominator)``: row i times pair i, with no
        product."""
        return Mat._from_ints([_canon([a * p for a in r], d * q)
                               for (r, d), (p, q) in zip(self._ints, pairs)],
                              self.cols)

    def transpose(self) -> "Mat":
        """The columns of :meth:`int_entries`, each reduced to canonical form."""
        nums, den = self.int_entries()
        cols = zip(*nums) if nums else ((),) * self.cols
        return Mat._from_ints([_canon(list(c), den) for c in cols], self.rows)

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
        """One :class:`QQi` entry, built from its integer row on each read;
        no entry is kept."""
        r, d = self._ints[i]
        return _entry(r[j], d)

    def col(self, j: int) -> list:
        return [self.entry(i, j) for i in range(self.rows)]

    def row_block(self, start: int, stop: int) -> "Mat":
        """Rows ``start:stop`` (slice bounds); an empty block is an error."""
        n = len(range(self.rows)[start:stop])
        if not n:
            raise LinAlgError("matrix needs at least one row")
        return Mat._from_ints(self._ints[start:stop], self.cols)

    def col_block(self, start: int, stop: int) -> "Mat":
        """Columns ``start:stop`` (slice bounds); an empty block is an error."""
        n = len(range(self.cols)[start:stop])
        if not n:
            raise LinAlgError("matrix needs at least one column")
        return Mat._from_ints([_canon(r[start:stop], d) for r, d in self._ints], n)

    def select_rows(self, order: Sequence[int]) -> "Mat":
        """The rows ``order``, in that order; an empty order is an error."""
        if not order:
            raise LinAlgError("matrix needs at least one row")
        return Mat._from_ints([self._ints[i] for i in order], self.cols)

    def select_cols(self, order: Sequence[int]) -> "Mat":
        """The columns ``order``, in that order; an empty order is an error."""
        if not order:
            raise LinAlgError("matrix needs at least one column")
        return Mat._from_ints([_canon([r[c] for c in order], d) for r, d in self._ints],
                              len(order))

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.shape == other.shape and self._ints == other._ints

    def __hash__(self):
        # equal matrices have equal integer rows
        return hash(tuple((tuple(r), d) for r, d in self._ints))

    def is_zero(self) -> bool:
        return not any(any(r) for r, _ in self._ints)

    def _same_shape(self, other):
        if self.shape != other.shape:
            raise LinAlgError(f"shape mismatch {self.shape} vs {other.shape}")

    # -- elimination-based operations ----------------------------------------

    def det(self):
        if self.rows != self.cols:
            raise LinAlgError("determinant of non-square matrix")
        ints = self._ints
        return _entry(_rref_int([r for r, _ in ints])[1], prod(d for _, d in ints))

    def inverse(self) -> "Mat":
        """The inverse, computed once and kept both ways: ``m.inverse().inverse()
        is m``.  The pair is a reference cycle, left to the cycle collector; on
        2 shared cores it moved the bench's median ``peak_rss_mb`` by -0.16 to
        +0.29 MB (up to +1.3 %)."""
        inv = self._inv
        if inv is not None:
            return inv
        if self.rows != self.cols:
            raise LinAlgError("inverse of non-square matrix")
        n = self.rows
        # A = D^-1 N with D the row denominators, so rref [N | D] = [I | A^-1]
        aug = [r + [d if j == i else 0 for j in range(n)]
               for i, (r, d) in enumerate(self._ints)]
        if _rref_int(aug)[0] != list(range(n)):
            raise LinAlgError("singular matrix")
        inv = self._inv = Mat._from_ints(
            [_canon(r[n:], r[i]) for i, r in enumerate(aug)], n
        )
        inv._inv = self
        return inv

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise LinAlgError("row mismatch in hstack")
        return Mat._from_ints(_hstack_ints(self._ints, other._ints),
                              self.cols + other.cols)

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise LinAlgError("col mismatch in vstack")
        return Mat._from_ints(self._ints + other._ints, self.cols)

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


# ---------------------------------------------------------------------------
# the integer kernel


def _gaussian_row(row) -> tuple[list, int]:
    """A row of :class:`QQi` entries as (numerators, positive row
    denominator): a real row by :func:`_rational_row` of its real parts, any
    other by :func:`_pair_row` of every real and imaginary part, which is
    then canonical by the same argument, each entry's two parts joined into
    one Gaussian numerator."""
    re = [x.re for x in row if not x.im]
    if len(re) == len(row):
        return _rational_row(re)
    parts, den = _pair_row([(f.numerator, f.denominator)
                            for x in row for f in (x.re, x.im)])
    return [zzi(a, b) for a, b in zip(parts[::2], parts[1::2])], den


def _rational_row(row) -> tuple[list[int], int]:
    """A row of ``int`` and ``Fraction`` entries as (integer numerators,
    positive row denominator), by :func:`_pair_row`."""
    return _pair_row([(x.numerator, x.denominator) for x in row])


def _pair_row(row) -> tuple[list[int], int]:
    """A row of reduced pairs ``(numerator, positive denominator)`` as
    (integer numerators, positive row denominator).

    The row denominator is the lcm of the row's entry denominators, so each
    entry is its numerator over it, and no factor divides the denominator
    and every numerator: a prime power that divides the lcm exactly divides
    some entry's denominator, and neither that entry's numerator nor its
    cofactor holds the prime.  So the row is canonical without a gcd.
    """
    den = 1
    for _, d in row:
        if d != 1 and den % d:
            den = lcm(den, d)
    if den == 1:
        return [a for a, _ in row], 1
    return [a * (den // d) for a, d in row], den


def _canon(nums: list, den) -> tuple[list, int]:
    """The row ``nums / den`` with the common factor divided out and a
    positive integer denominator; ``gcd`` refuses a Gaussian numerator or
    denominator, which :func:`_gaussian_gcd` then takes."""
    try:
        g = gcd(den, *nums)
    except TypeError:
        nums, den, g = _gaussian_gcd(nums, den)
    if den < 0:
        g = -g
    if g == 1:
        return nums, den
    return [a // g for a in nums], den // g


def _gaussian_gcd(nums: list, den) -> tuple[list, int, int]:
    """``(nums, den, g)`` for a row with a Gaussian numerator or
    denominator: a Gaussian denominator (an elimination's pivot) is made
    real by multiplying the row by its conjugate, and ``g`` is the gcd of
    the denominator and every real and imaginary part."""
    if type(den) is ZZi:
        c = den.conjugate()
        nums, den = [a * c for a in nums], den.norm()
    parts = [p for a in nums for p in ((a,) if type(a) is int else (a.re, a.im))]
    return nums, den, gcd(den, *parts)


def _matmul_ints(a: list, b: list[list[int]], den: int) -> list:
    """Integer rows of the product of integer rows ``a`` and ``b / den``.

    ``b / den`` is the right operand as :meth:`Mat.int_entries` gives it: its
    rows over the lcm of its row denominators.  Entry ``(i, j)`` is
    ``a_i . b^j / (da_i den)``; :func:`_canon` reduces each output row.  A
    row of ``a`` that is at least half zeros takes the same integers from
    :func:`_row_combination`, without the products by zero.
    """
    cols = list(zip(*b))
    return [_canon(_row_combination(r, b) if 2 * r.count(0) >= len(r)
                   else [sum(map(mul, r, c)) for c in cols], d * den)
            for r, d in a]


def _row_combination(r: list[int], b: list[list[int]]) -> list[int]:
    """``sum_k r[k] b[k]`` over the non-zero ``r[k]``; a unit coefficient
    adds or subtracts its row without a product."""
    acc = [0] * len(b[0])
    for x, row in zip(r, b):
        if x == 1:
            acc = list(map(add, acc, row))
        elif x == -1:
            acc = list(map(sub, acc, row))
        elif x:
            acc = [s + x * y for s, y in zip(acc, row)]
    return acc


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


def _entry(num, den: int) -> QQi:
    """The :class:`QQi` ``num / den``, in lowest terms."""
    if type(num) is int:
        return QQi(Fraction(num, den)) if num else QQI_ZERO
    return QQi(Fraction(num.re, den), Fraction(num.im, den))


def _rref_int(rows: list[list]) -> tuple:
    """Fraction-free Gauss-Jordan elimination, in place; returns the pivots
    and the determinant.

    Eager Bareiss elimination replaces, at each step, every row but the
    pivot row by ``(pc * row - f * pivot_row) / prev``, ``f`` being the
    row's entry in the pivot column and ``prev`` the previous pivot; the
    division is exact.  A row with ``f == 0`` is then only rescaled by
    ``pc / prev``, so here it is left as it is, and each row keeps its
    level, the pivot it was last written at (1 at the start).  The stored
    row is the eager row times ``level / prev``: the skipped factors
    ``pc / prev`` telescope.  So a row with ``f != 0`` becomes ``(pc * row
    - f * pivot_row) / level``, the eager row of this step, and a stale
    pivot row is first brought to the current level, ``row * prev /
    level``, the eager row; both divisions are exact because the eager
    rows are integers.  The pivots are the eager ones.

    Row ``i`` of the result, divided by its entry in pivot column ``i``, is
    row ``i`` of the reduced row echelon form, as every stored row is a
    multiple of its eager row; the rows after the last pivot are zero.  As
    in Bareiss elimination, each pivot is the leading minor of its order of
    the row swapped matrix, so when every row holds a pivot the last one,
    signed by the swaps, is the determinant of a square matrix; it is 0
    otherwise.
    """
    nr, nc = len(rows), len(rows[0]) if rows else 0
    level = [1] * nr
    pivots = []
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
            level[r], level[piv] = level[piv], level[r]
            sign = -sign
        pr = rows[r]
        lr = level[r]
        if lr != prev:
            rows[r] = pr = [a * prev // lr for a in pr]
        pc = pr[c]
        for i in range(nr):
            if i == r:
                continue
            ri = rows[i]
            f = ri[c]
            if f:
                li = level[i]
                rows[i] = [(pc * a - f * b) // li for a, b in zip(ri, pr)]
                level[i] = pc
        level[r] = prev = pc
        pivots.append(c)
        r += 1
    return pivots, sign * prev if r == nr else 0


# ---------------------------------------------------------------------------
# rank / kernel / reduced echelon form


def rank(m: Mat) -> int:
    """Rank: the pivot count of :func:`_rref_int` on the integer rows."""
    return len(_rref_int([r for r, _ in m._ints])[0])


def rref(m: Mat) -> tuple[Mat, list[int]]:
    """Reduced row echelon form with pivot column list."""
    rows = [r for r, _ in m._ints]
    pivots, _ = _rref_int(rows)
    zero = ([0] * m.cols, 1)
    return Mat._from_ints([
        _canon(rows[i], rows[i][pivots[i]]) if i < len(pivots) else zero
        for i in range(m.rows)
    ], m.cols), pivots


def null_vectors(m: Mat) -> Mat:
    """A basis of the null space of ``m``, read off its rref, not canonicalized.

    Column j of the ``m.cols x nullity`` result is the null vector of the
    j-th free column fc: 1 at fc and minus column fc of the pivot rows at the
    pivots.  Its rows come straight from the rref rows.  :func:`kernel` is
    the canonical :class:`Subspace` of these columns; a caller whose result
    is canonicalized anyway takes them raw and saves that rref.
    """
    red, pivots = rref(m)
    at = {c: i for i, c in enumerate(pivots)}  # pivot column -> its row
    free = [c for c in range(m.cols) if c not in at]
    ints = red._ints
    return Mat._from_ints([
        _canon([-ints[at[c]][0][fc] for fc in free], ints[at[c]][1]) if c in at
        else ([int(fc == c) for fc in free], 1)
        for c in range(m.cols)
    ], len(free))


def kernel(m: Mat) -> "Subspace":
    """Canonical basis of the null space; ``dim = cols - rank``."""
    return Subspace(null_vectors(m))


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
    ints = red.col_block(n, n + m)._ints
    rows = [([0] * m, 1)] * n
    for i, pc in enumerate(pivots):
        rows[pc] = ints[i]
    return Mat._from_ints(rows, m), len(pivots) == n, True


# ---------------------------------------------------------------------------
# subspaces


class Subspace:
    """Span of a matrix's columns, in the space of as many dimensions as it has rows.

    The stored basis is canonical: its transpose is in reduced row echelon
    form, so at its pivot rows p (the pivot columns of the transpose) it
    reads ``basis[p, :] == I``, which every containment test relies on (see
    the module docstring).  A canonical basis is recognised by one scan
    (:func:`_echelon_pivots`) and any other by one rref; the rref is
    unique, so both routes keep the same basis and pivot rows.
    """

    __slots__ = ("basis", "_pivots")

    def __init__(self, basis: Mat):
        pivots = _echelon_pivots(basis)
        if pivots is None:
            basis, pivots = _canonical_basis(basis)
        self.basis = basis
        self._pivots = pivots

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(Mat.zeros(ambient_dim, 0))

    @property
    def ambient_dim(self) -> int:
        return self.basis.rows

    @property
    def dim(self) -> int:
        return self.basis.cols

    def contains_columns(self, mat: Mat) -> bool:
        """Whether every column of ``mat`` lies in the span: one product,
        ``basis @ mat[p, :] == mat`` at the pivot rows p."""
        if mat.rows != self.ambient_dim:
            raise LinAlgError("ambient dimension mismatch")
        if not mat.cols:
            return True
        if not self.dim:
            return mat.is_zero()
        return self.basis @ mat.select_rows(self._pivots) == mat

    def coordinates(self, mat: Mat) -> Mat | None:
        """The coefficients C with ``basis @ C == mat``, or None when some
        column of ``mat`` lies outside the span: ``mat``'s rows at the pivot
        rows, which the containment product of :meth:`contains_columns`
        reads, with no elimination.  The basis has full column rank, so C is
        unique; the subspace must not be 0-dimensional."""
        if not self.contains_columns(mat):
            return None
        return mat.select_rows(self._pivots)

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

    def spanned_by(self, mat: Mat) -> bool:
        """Whether the columns of ``mat`` span exactly this subspace: every
        one inside it, and as many independent ones as its dimension.

        Once ``mat`` lies inside, ``mat = basis @ mat[p, :]`` at the pivot
        rows p, and the basis has full column rank, so ``mat`` has the rank
        of ``mat[p, :]``: the elimination runs on ``dim`` rows, not on
        ``ambient_dim``.  A 0-dimensional subspace has no pivot rows; a
        ``mat`` inside it is zero, and spans it.
        """
        if not self.contains_columns(mat):
            return False
        return not self.dim or rank(mat.select_rows(self._pivots)) == self.dim

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


def _echelon_pivots(basis: Mat) -> list[int] | None:
    """The pivot rows of a basis whose transpose is in reduced row echelon
    form, read in one scan of its rows; None for any other basis.  With j
    columns started, a row non-zero in a column from j on must be e_j, the
    pivot row of column j, and every column must start."""
    cols = basis.cols
    pivots = []
    for i, (nums, den) in enumerate(basis._ints):
        j = len(pivots)
        if j == cols or not any(nums[j:]):
            continue
        if den != 1 or nums[j] != 1 or nums.count(0) != cols - 1:
            return None
        pivots.append(i)
    return pivots if len(pivots) == cols else None


def _canonical_basis(mat: Mat) -> tuple[Mat, list[int]]:
    """The canonical basis of the column span of ``mat``, by one rref of its
    transpose, and the rref's pivots, which are the basis's pivot rows."""
    red, pivots = rref(mat.transpose())
    if not pivots:
        return Mat.zeros(mat.rows, 0), pivots
    return red.row_block(0, len(pivots)).transpose(), pivots


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
    return Subspace(a.basis @ null.row_block(0, a.dim))

