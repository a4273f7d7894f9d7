"""Reductive matrix groups with Borel data and the basic invariant calculus.

A :class:`GroupContext` fixes the group (SL_n or GL_n over the sampled
field), the invariant bilinear form ``(x, y) = c * tr(x y)``, an ordered
basis of the Lie algebra, and the upper-triangular Borel subgroup with its
torus/unipotent splitting.  Everything downstream works in left-trivialized
coordinates: a tangent vector at ``g`` is the algebra element ``g^{-1} X``,
a covector is the algebra element pairing against it through the form.

The values are plain data.  A group element is its n x n matrix, which
keeps its inverse once computed, as the inverse keeps it, so no function
takes both; an algebra element, and a tangent vector or a covector in
left-trivialized coordinates, is its n x n matrix too, and nothing carries
a base point; a subalgebra is a tuple of basis indices.  A function that
needs the group takes its context first.  Group membership is checked
once, where a matrix arrives as JSON (:func:`read_element`); the samplers
draw members.

The basis lists the strictly upper entries (the nilpotent radical) first,
then the torus directions, then the strictly lower entries.  It is stated
once, as the tables of ``GroupContext.__init__``: its terms as sums of
matrix units, its coordinate readers and its functional readers, each a
signed sum of entries of vec(X).  Every coordinate read and write, the
closed forms of Ad, G Ad, the commutator and the brackets among them, goes
through those tables.  The same place states the Borel layout once, as the
index tuples ``unipotent``, ``torus`` and ``borel``.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from operator import add, itemgetter, sub

from .conventions import ACTIVE
from .linalg import Mat, _entry
from .matio import entry_pairs, mat_from_json
from .prng import SplitMix64
from .scalars import QQI_ZERO, QQi

GROUPS = {
    "sl2": ("SL", 2),
    "sl3": ("SL", 3),
    "sl4": ("SL", 4),
    "gl2": ("GL", 2),
    "gl3": ("GL", 3),
    "gl4": ("GL", 4),
}


class GroupContext:
    """SL_n or GL_n with its Borel subgroup and trace-form calculus.

    The algebra basis is stated once, in :meth:`__init__`, as tables of
    signed sums over vec(X), whose entry (a, b) sits at ``a n + b``; every
    coordinate read and write below goes through them (:func:`_read`).
    """

    def __init__(self, family: str, n: int):
        if family not in ("SL", "GL"):
            raise ValueError("family must be 'SL' or 'GL'")
        if n < 2:
            raise ValueError("need n >= 2")
        self.family = family
        self.n = n

        upper = [(i, j) for i in range(n) for j in range(n) if i < j]
        lower = [(i, j) for i in range(n) for j in range(n) if i > j]
        self._lower = lower
        diag = [k * (n + 1) for k in range(n)]  # the diagonal's places in vec(X)
        if family == "SL":
            # H_k = E_kk - E_(k+1)(k+1), read back as a partial sum of the diagonal
            torus = [[(diag[k], 1), (diag[k + 1], -1)] for k in range(n - 1)]
            torus_readers = [[(e, 1) for e in diag[:k + 1]] for k in range(n - 1)]
            torus_labels = [f"H{k + 1}" for k in range(n - 1)]
        else:
            torus = torus_readers = [[(e, 1)] for e in diag]
            torus_labels = [f"E{k + 1}{k + 1}" for k in range(n)]
        ups = [[(i * n + j, 1)] for i, j in upper]
        lows = [[(i * n + j, 1)] for i, j in lower]
        # each table row is a sum of (place, sign) terms:
        # the basis terms, e_c = sum s E_ab
        terms = ups + torus + lows
        # the coordinate readers, the inverse of the terms on the algebra
        readers = ups + torus_readers + lows
        # the functional readers tr(e_c X): tr(E_ab X) = X[b][a]
        functionals = [[(e % n * n + e // n, s) for e, s in t] for t in terms]
        # entry (a, b) of sum x_c e_c
        entries = [[(c, s) for c, t in enumerate(terms) for f, s in t if f == e]
                   for e in range(n * n)]
        self._terms = _table(terms, n * n)
        self._readers = _table(readers, n * n)
        self._functionals = _table(functionals, n * n)
        self._entries = _table(entries, len(terms))

        # the Borel layout: U's coordinates, then the torus's, make up B's
        self.unipotent = tuple(range(len(upper)))
        self.torus = tuple(range(len(upper), len(upper) + len(torus)))
        self.borel = self.unipotent + self.torus
        self.dim_g = len(terms)
        self.rank = len(torus)
        self.basis = tuple(Mat(self._entry_rows([int(k == c) for k in range(self.dim_g)]))
                           for c in range(self.dim_g))
        self.basis_labels = tuple(
            [f"E{i + 1}{j + 1}" for i, j in upper] + torus_labels
            + [f"E{i + 1}{j + 1}" for i, j in lower])

        self.identity = Mat.identity(n)
        # the Gram matrix (tr(e_c e_k))_(c, k) is T = G Ad_I
        self.gram = self.gram_adjoint(self.identity)
        self.gram_inv = self.gram.inverse()

    # -- names ---------------------------------------------------------------

    @property
    def name(self) -> str:
        return f"{self.family.lower()}{self.n}"

    def __repr__(self):
        return f"GroupContext({self.name})"

    # -- coordinates ---------------------------------------------------------

    def coords(self, m) -> list:
        """Coordinates of an algebra matrix in the fixed basis, by the
        coordinate readers.

        Works entrywise, over any ring of scalars, as :meth:`_entry_rows`
        does.  On SL the representation is faithful exactly on trace-free
        matrices.
        """
        return list(_read(self._readers, self._vec(m)))

    def _vec(self, m) -> list:
        """vec(m): entry (a, b) of the matrix ``m`` at ``a n + b``, read by
        ``m.entry``."""
        n = self.n
        return [m.entry(a, b) for a in range(n) for b in range(n)]

    def mat_from_coords(self, coords) -> Mat:
        """The algebra matrix with these coordinates; the inverse of :meth:`coords`."""
        if len(coords) != self.dim_g:
            raise ValueError("coordinate length mismatch")
        return Mat(self._entry_rows([x if isinstance(x, QQi) else QQi(x)
                                     for x in coords]))

    def algebra_matrices(self, v: Mat) -> list[Mat]:
        """The algebra matrices whose coordinates are the columns of ``v``.

        They are integer rows over the common denominator of the columns,
        with no :class:`QQi` entry.  Per-column :meth:`mat_from_coords` is
        the oracle in the tests.
        """
        ys, den = self._column_entry_rows(v)
        return [Mat.from_int_rows(y, den) for y in ys]

    def _column_entry_rows(self, v: Mat) -> tuple[list, int]:
        """The integer entry rows of the algebra matrices with coordinates
        the columns of ``v``, over one common denominator."""
        coords, den = v.transpose().int_entries()
        return [self._entry_rows(c) for c in coords], den

    def _entry_rows(self, c) -> list:
        """The entry rows of the algebra matrix sum c_k e_k, over any ring of
        scalars."""
        n = self.n
        x = _read(self._entries, c)
        return [x[a * n:a * n + n] for a in range(n)]

    def adjoint(self, m: Mat) -> Mat:
        """Ad_m in algebra coordinates: column j holds the coordinates of
        ``m e_j m^-1``; Ad_{m^-1} is ``adjoint(m.inverse())``.
        :meth:`_conjugation_columns` with the coordinate readers; the
        per-basis ``coords(m e_j m^-1)`` is the oracle for this in the tests
        (``per_basis_adjoint`` in ``tests/test_adjoint_oracles.py``).
        """
        return self._conjugation_columns(m, self._readers)

    def gram_adjoint(self, m: Mat) -> Mat:
        """T = G Ad_m, G the Gram matrix: column j holds the functional
        coordinates ``(tr(e_c m e_j m^-1))_c`` of ``m e_j m^-1``.
        :meth:`_conjugation_columns` with the functional readers, without
        the d x d product ``gram @ adjoint(m)``, which is the oracle for this
        in the tests.
        """
        return self._conjugation_columns(m, self._functionals)

    def _conjugation_columns(self, m: Mat, readers) -> Mat:
        """The matrix whose column j holds ``readers`` of ``m e_j m^-1``.

        Entry (a, b) of ``m E_ij m^-1`` is ``m[a][i] m^-1[j][b]``, so vec of
        it is the outer product of column i of m and row j of m^-1, and the
        column of e_j combines those of its terms E_ij.  Both, m^-1 the inverse
        m keeps, run on their integer rows, each over one common denominator.
        """
        (rows, p), (inv, q) = m.int_entries(), m.inverse().int_entries()
        units = [_read(readers, [x * y for x in u for y in v])
                 for u in zip(*rows) for v in inv]
        return Mat.from_int_rows(zip(*_read(self._terms, units, _column_sum)), p * q)

    def commutator_matrix(self, m: Mat) -> Mat:
        """The n^2 x d matrix of x -> m x - x m on the algebra basis: column k
        is vec(m e_k - e_k m), entry (a, b) in row ``a n + b``.

        Closed form, not through :meth:`adjoint`: m E_ij - E_ij m =
        m[:, i] e_j^T - e_i m[j, :], so the column of E_ij holds column i of m
        at the entries (a, j) less row j of m at the entries (i, b), and the
        column of e_k combines those of its terms.  It runs on the integer
        rows of m over one denominator.  The per-basis products are its
        oracle in the tests.
        """
        n = self.n
        rows, den = m.int_entries()

        def unit(i, j):  # vec(m E_ij - E_ij m)
            col = [0] * (n * n)
            for a in range(n):
                col[a * n + j] = rows[a][i]
            for b in range(n):
                col[i * n + b] -= rows[j][b]
            return col

        units = [unit(i, j) for i in range(n) for j in range(n)]
        return Mat.from_int_rows(zip(*_read(self._terms, units, _column_sum)), den)

    # -- invariant form and brackets ------------------------------------------

    def brackets(self, v: Mat, pairs) -> tuple[list, int]:
        """coords([Y_p, Y_q]) for the algebra elements Y_p with coordinates
        column p of ``v``, for the (p, q) in the list ``pairs`` only: row i
        holds that of ``pairs[i]``.

        One product [Y_1; ...; Y_k] [Y_1 | ... | Y_k] holds Y_p Y_q as its
        n x n block (p, q), so [Y_p, Y_q] is block (p, q) less block (q, p)
        (:meth:`_bracket_rows`).  The rows are returned raw, as ``(rows,
        den)``: fresh integer lists over the one common denominator of that
        product, with no per-row gcd.  The callers combine the rows, so each
        row they build is canonicalized once, by
        :meth:`~qpslab.linalg.Mat.from_int_rows`.  Per-pair
        ``coords(bracket(...))`` is the oracle in the tests.
        """
        return self._bracket_rows(v, pairs, self._readers)

    def brackets_and_functionals(self, v: Mat) -> tuple[list, list, int]:
        """:meth:`brackets` of every pair (p, q), in row ``p k + q``, and
        the functional coordinates gram coords([Y_p, Y_q]) =
        (tr(e_c [Y_p, Y_q]))_c, both read off the same product and raw over
        its one denominator: ``(coords, dual, den)``.
        Per-pair ``dual_coords(bracket(...))`` is the oracle in the tests.
        """
        k = v.cols
        pairs = [(p, q) for p in range(k) for q in range(k)]
        return self._bracket_rows(v, pairs, self._readers, self._functionals)

    def _bracket_rows(self, v: Mat, pairs, *tables) -> tuple:
        """For each table, the integer rows of its readers of the
        [Y_p, Y_q] with (p, q) in ``pairs``, in their order, from one stacked
        product, and last the product's common denominator."""
        n = self.n
        ys, den = self._column_entry_rows(v)
        # [Y_1; ...; Y_k] and [Y_1 | ... | Y_k], row by row
        stack = Mat.from_int_rows([r for y in ys for r in y], den)
        side = Mat.from_int_rows([[x for y in ys for x in y[a]] for a in range(n)], den)
        prod, den = (stack @ side).int_entries()

        def entry(a, b):  # entry (a, b) of each [Y_p, Y_q], in row order
            left = [r[b::n] for r in prod[a::n]]  # left[p][q] = (Y_p Y_q)[a][b]
            return [left[p][q] - left[q][p] for p, q in pairs]

        cols = [entry(a, b) for a in range(n) for b in range(n)]
        # each table's columns, transposed to rows
        return (*([list(r) for r in zip(*_read(t, cols, _column_sum))]
                  for t in tables), den)

    def form(self, x: Mat, y: Mat):
        """The invariant bilinear form ``tr(x y)``."""
        return (x @ y).trace()

    def eta(self, x: Mat, y: Mat, z: Mat):
        """The invariant alternating 3-form ``eta_coeff * (x, [y, z])``.

        The coefficient is the active ``Conventions.eta_coeff``.
        """
        return _mul_frac(self.form(x, bracket(y, z)), ACTIVE.get().eta_coeff)

    def dual_coords(self, a) -> list:
        """Functional coordinates ``(tr(e_c a))_c`` of the covector with
        algebra coordinate a, by the functional readers; entrywise, as
        :meth:`coords`.  On the algebra they are ``gram @ coords(a)``."""
        return list(_read(self._functionals, self._vec(a)))

    # -- membership helpers ----------------------------------------------------

    def in_borel(self, m: Mat) -> bool:
        """Whether ``m`` is upper triangular: an entry is zero exactly when
        its numerator in :meth:`~qpslab.linalg.Mat.int_entries` is."""
        nums, _ = m.int_entries()
        return not any(nums[i][j] for i, j in self._lower)


def _sum(terms, x):
    """sum s x[i] over the (i, s) terms of one table row."""
    (i, s), *rest = terms
    acc = x[i] if s == 1 else -x[i]
    for i, s in rest:
        acc = acc + x[i] if s == 1 else acc - x[i]
    return acc


def _column_sum(terms, cols) -> list:
    """:func:`_sum` of columns, entrywise."""
    (i, s), *rest = terms
    acc = cols[i] if s == 1 else [-y for y in cols[i]]
    for i, s in rest:
        acc = list(map(add if s == 1 else sub, acc, cols[i]))
    return acc


def _table(rows, width: int) -> tuple:
    """A table of sums over vectors of ``width`` entries, set up for
    :func:`_read`: a row that is one positive term reads its place in the
    vector, any other row a place past its end, where :func:`_read` appends
    the row's sum.  Most rows are one positive term, and a plain index keeps
    them as cheap as a hand-written read."""
    places, sums = [], []
    for terms in rows:
        if len(terms) == 1 and terms[0][1] == 1:
            places.append(terms[0][0])
        else:
            places.append(width + len(sums))
            sums.append(terms)
    return itemgetter(*places), sums


def _read(table, x, total=_sum) -> tuple:
    """Every row of ``table`` (:func:`_table`) summed over the vector ``x``:
    a vector of scalars, or with :func:`_column_sum` of columns."""
    get, sums = table
    if sums:
        x = [*x, *[total(terms, x) for terms in sums]]
    return get(x)


def _mul_frac(t, frac: Fraction):
    return t if frac == 1 else t * frac


def bracket(x: Mat, y: Mat) -> Mat:
    return x @ y - y @ x


_CONTEXTS: dict[str, GroupContext] = {}


def context(name: str) -> GroupContext:
    """Get the shared context for a group tag such as ``'sl2'``."""
    if name not in _CONTEXTS:
        if name not in GROUPS:
            raise ValueError(f"unknown group {name!r}")
        _CONTEXTS[name] = GroupContext(*GROUPS[name])
    return _CONTEXTS[name]


# ---------------------------------------------------------------------------
# group elements from JSON


def group_of_json(obj: dict) -> GroupContext:
    """The context named by the ``"group"`` tag of a JSON object."""
    try:
        name = obj["group"]
    except (KeyError, TypeError):
        raise ValueError("group element JSON needs a 'group' tag") from None
    if not isinstance(name, str):
        raise ValueError(f"group tag must be a string, got {name!r}")
    return context(name)


def read_element(ctx: GroupContext, obj: dict) -> Mat:
    """The group element of a matrix object, the one membership check: the
    size must match the group and the determinant be non-zero, 1 on SL.
    Every group matrix that arrives as JSON, in an eval input or a JSON
    point, is read here; campaign points never arrive as JSON, as their
    checks receive them as drawn.  The size is read off the header first, so
    a mis-sized header builds no row, however many it claims."""
    rows, cols, _ = entry_pairs(obj)
    if rows != ctx.n or cols != ctx.n:
        raise ValueError(f"matrix size does not match group {ctx.name}")
    m = mat_from_json(obj)
    d = m.det()
    if not d:
        raise ValueError("group element must be invertible")
    if ctx.family == "SL" and d != QQi(1):
        raise ValueError("SL element must have determinant 1")
    return m


# ---------------------------------------------------------------------------
# the basic operations, on algebra matrices


def conjugate(g: Mat, x: Mat) -> Mat:
    """g x g^-1, for a group or an algebra element x; it inverts g alone.
    Per element, the oracle of :meth:`GroupContext.adjoint`."""
    return g @ x @ g.inverse()


def sigma_average(a, ad_a):
    """``factor * (a + sign * ad_a)``: the averaging in sigma and its adjoint.

    ``ad_a`` is the adjoint image of ``a`` the caller already has (Ad_{g^-1} a
    for sigma, Ad_g a for its adjoint); factor and sign are the active
    ``sigma_factor`` and ``sigma_ad_sign``.  Works on any matrix type with
    ``+``, ``-`` and ``scale``.
    """
    conv = ACTIVE.get()
    both = a + ad_a if conv.sigma_ad_sign == 1 else a - ad_a
    return both.scale(QQi(conv.sigma_factor))


def sigma(g: Mat, xi: Mat) -> Mat:
    """The averaged covector attached to xi at g, as its algebra matrix.

    1/2 (xi + Ad_{g^-1} xi) under the frozen conventions; see
    :func:`sigma_average`.
    """
    return sigma_average(xi, g.inverse() @ xi @ g)


def conjugation_sections(ctx: GroupContext, g: Mat) -> tuple[Mat, Mat, Mat]:
    """M = Ad_{g^-1}, X = I - M and A = gram sigma_average(I, M) at g.

    Both parts of the conjugation structure are linear in xi, so column j of
    X is ``conj_field`` of the basis element e_j and column j of A the
    functional coordinates of :func:`sigma` of e_j: [X; A] holds every basis
    section at g.  M is read off the inverse g keeps.  The per-element
    ``conj_field`` (``tests/oracles.py``) and :func:`sigma` are its oracles
    in the tests.
    """
    eye = Mat.identity(ctx.dim_g)
    m = ctx.adjoint(g.inverse())
    return m, eye - m, ctx.gram @ sigma_average(eye, m)


def torus_part(b: Mat) -> Mat:
    """The torus factor t of an upper-triangular b = t u: the diagonal of b."""
    n = b.rows
    return Mat([[b.entry(i, i) if i == j else QQI_ZERO for j in range(n)]
                for i in range(n)])


def invariants(ctx: GroupContext, m: Mat) -> tuple:
    """The elementary symmetric functions of the eigenvalues of ``m``.

    n-1 of them for SL_n (the determinant is pinned to 1), all n for GL_n,
    from the power sums by Newton's identities.  With m = N / den over its
    integer rows (:meth:`~qpslab.linalg.Mat.int_entries`), e_k(m) =
    e_k(N) / den^k, and the identities run on the power sums tr(N^i) in
    (Gaussian) integers: k divides the right side of
    k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i exactly.
    """
    n = ctx.n
    nums, den = m.int_entries()
    big = Mat.from_int_rows(nums, 1)
    powers, acc = [], big
    for k in range(n):
        if k:
            acc = acc @ big
        rows, _ = acc.int_entries()
        powers.append(sum(rows[i][i] for i in range(n)))
    es = [1]
    for k in range(1, n + 1):
        s = 0
        for i in range(1, k + 1):
            term = es[k - i] * powers[i - 1]
            s = s + term if i % 2 == 1 else s - term
        es.append(s // k)
    values = tuple(_entry(e, den ** k) for k, e in enumerate(es) if k)
    return values[:n - 1] if ctx.family == "SL" else values


# the reduced pairs of zero and one
_ZERO, _ONE = (0, 1), (1, 1)

# the height h of every sampled entry: numerator in [-h, h], denominator in
# [1, h] (the sampling note of the conventions)
HEIGHT = 10


def random_point(ctx: GroupContext, kind: str, rng: SplitMix64) -> Mat:
    """Exact-rational sample from the requested subgroup.

    ``G`` samples are built as (unit lower) * (diagonal) * (unit upper) with
    rational entries of height :data:`HEIGHT` and determinant fixed by the
    family; ``T-regular`` forces pairwise distinct diagonal entries.  Each
    entry is drawn as its reduced integer pair
    (:meth:`SplitMix64.rational_pair`) and the factors go straight into
    integer rows (:meth:`Mat.from_pairs`), with no ``Fraction`` and no
    :class:`QQi` entry.  The diagonal factor is a row scaling
    (:meth:`Mat.scale_rows`): B = T U takes no product, and G = L (D U)
    one.  The draws, their order and so the matrices are those of building
    the factors entry by entry over :class:`QQi`, the oracle in the tests.
    """
    n = ctx.n
    if kind == "G":
        low = _unitriangular(n, rng, lower=True)
        up = _unitriangular(n, rng, lower=False)
        return low @ up.scale_rows(_torus_entries(ctx, rng))
    if kind == "B":
        t = _torus_entries(ctx, rng)
        return _unitriangular(n, rng, lower=False).scale_rows(t)
    if kind in ("T", "T-regular"):
        t = _torus_entries(ctx, rng, regular=kind == "T-regular")
        return Mat.identity(n).scale_rows(t)
    if kind == "U":
        return _unitriangular(n, rng, lower=False)
    raise ValueError(f"unknown sample kind {kind!r}")


def random_algebra(ctx: GroupContext, rng: SplitMix64, indices=None) -> Mat:
    """An algebra matrix with drawn coordinates at ``indices`` (all of g by
    default) and zero elsewhere, built as integer rows over the coordinates'
    common denominator."""
    pairs = [_ZERO] * ctx.dim_g
    for i in range(ctx.dim_g) if indices is None else indices:
        pairs[i] = rng.rational_pair(HEIGHT)
    den = lcm(*(q for _, q in pairs))
    nums = [p * (den // q) for p, q in pairs]
    return Mat.from_int_rows(ctx._entry_rows(nums), den)


def _unitriangular(n: int, rng: SplitMix64, lower: bool) -> Mat:
    """A unit lower or upper triangular matrix, its entries drawn row by row."""
    return Mat.from_pairs([[_ONE if i == j else rng.rational_pair(HEIGHT)
                            if (i > j if lower else i < j) else _ZERO
                            for j in range(n)] for i in range(n)])


def _torus_entries(ctx: GroupContext, rng: SplitMix64,
                   regular: bool = False) -> list[tuple[int, int]]:
    """The diagonal of a torus sample as reduced pairs: nonzero draws, the
    SL one's last entry fixing the determinant at one; ``regular`` redraws
    the whole diagonal until its entries are pairwise distinct."""
    n = ctx.n
    sl = ctx.family == "SL"
    while True:
        entries = [rng.rational_pair(HEIGHT, nonzero=True) for _ in range(n - sl)]
        if sl:
            entries.append(reciprocal_product(entries))
        if not regular or len(set(entries)) == n:
            return entries


def reciprocal_product(pairs) -> tuple[int, int]:
    """1 / (the product of the nonzero reduced pairs), as a reduced pair."""
    num = den = 1
    for p, q in pairs:
        num *= p
        den *= q
    g = gcd(num, den)
    if num < 0:
        g = -g
    return den // g, num // g


# ---------------------------------------------------------------------------
# the Weyl group


def weyl_orders(ctx: GroupContext) -> list[list[int]]:
    """The representatives W_w of N(T)/T, stated once: one signed column
    order per permutation w of range(n), in :func:`itertools.permutations`
    order.

    Column j of W_w is the unit vector e_w(j), with column 0 negated for an
    odd w on SL, so that det W_w = 1 there.  So X W_w is the columns of
    [X | -X] in w's order, entry j being w(j), or w(0) + n for the negated
    column; and W_w^-1 X is the rows of [X; -X] in the same order.
    """
    n, sl = ctx.n, ctx.family == "SL"
    return [[w[0] + n if sl and _parity(w) == -1 else w[0], *w[1:]]
            for w in itertools.permutations(range(n))]


def _parity(perm) -> int:
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1
