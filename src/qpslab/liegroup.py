"""Reductive matrix groups with Borel data and the basic invariant calculus.

A :class:`GroupContext` fixes the group (SL_n or GL_n over the sampled
field), the invariant bilinear form ``(x, y) = c * tr(x y)``, an ordered
basis of the Lie algebra, and the upper-triangular Borel subgroup with its
torus/unipotent splitting.  Everything downstream works in left-trivialized
coordinates: a tangent vector at ``g`` is the algebra element ``g^{-1} X``,
a covector is the algebra element pairing against it through the form.

Basis order matters and is relied on throughout: first the strictly upper
entries (the nilpotent radical), then the torus directions, then the
strictly lower entries, so that the Borel subalgebra occupies a coordinate
prefix of the algebra coordinates.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from operator import sub

from .conventions import ACTIVE
from .linalg import Mat, mat_vec
from .matio import mat_from_json, mat_to_json
from .prng import SplitMix64
from .scalars import QQI_ZERO, Dual, QQi

GROUPS = {
    "sl2": ("SL", 2),
    "sl3": ("SL", 3),
    "sl4": ("SL", 4),
    "gl2": ("GL", 2),
    "gl3": ("GL", 3),
    "gl4": ("GL", 4),
}


class GroupContext:
    """SL_n or GL_n with its Borel subgroup and trace-form calculus."""

    def __init__(self, family: str, n: int):
        if family not in ("SL", "GL"):
            raise ValueError("family must be 'SL' or 'GL'")
        if n < 2:
            raise ValueError("need n >= 2")
        self.family = family
        self.n = n

        upper = [(i, j) for i in range(n) for j in range(n) if i < j]
        lower = [(i, j) for i in range(n) for j in range(n) if i > j]
        self._upper = upper
        self._lower = lower

        basis: list[Mat] = []
        labels: list[str] = []
        for i, j in upper:
            basis.append(_unit(n, i, j))
            labels.append(f"E{i + 1}{j + 1}")
        if family == "SL":
            for k in range(n - 1):
                m = [[QQi(0)] * n for _ in range(n)]
                m[k][k] = QQi(1)
                m[k + 1][k + 1] = QQi(-1)
                basis.append(Mat(m))
                labels.append(f"H{k + 1}")
        else:
            for k in range(n):
                basis.append(_unit(n, k, k))
                labels.append(f"E{k + 1}{k + 1}")
        for i, j in lower:
            basis.append(_unit(n, i, j))
            labels.append(f"E{i + 1}{j + 1}")
        self.basis = tuple(basis)
        self.basis_labels = tuple(labels)

        self.dim_u = len(upper)
        self.dim_t = n - 1 if family == "SL" else n
        self.dim_b = self.dim_u + self.dim_t
        self.dim_g = len(basis)
        self.rank = self.dim_t

        self.identity = Mat.identity(n)
        gram = [
            [self.form(x, y) for y in self.basis] for x in self.basis
        ]
        self.gram = Mat(gram)
        self.gram_inv = self.gram.inverse()
        self._brackets = None  # see _bracket_tables

    # -- names ---------------------------------------------------------------

    @property
    def name(self) -> str:
        return f"{self.family.lower()}{self.n}"

    def __repr__(self):
        return f"GroupContext({self.name})"

    # -- coordinates ---------------------------------------------------------

    def coords(self, m) -> list:
        """Coordinates of an algebra matrix in the fixed basis.

        Works entrywise, so it also accepts matrices of dual scalars.  For
        SL the torus coordinates are the partial sums of the diagonal; the
        representation is faithful exactly on trace-free matrices.
        """
        out = [m.entry(i, j) for i, j in self._upper]
        if self.family == "SL":
            acc = None
            for k in range(self.n - 1):
                d = m.entry(k, k)
                acc = d if acc is None else acc + d
                out.append(acc)
        else:
            out.extend(m.entry(k, k) for k in range(self.n))
        out.extend(m.entry(i, j) for i, j in self._lower)
        return out

    def mat_from_coords(self, coords) -> Mat:
        """The algebra matrix with these coordinates; the inverse of :meth:`coords`.

        The root coordinates are entries; the torus coordinates are the
        diagonal (GL) or its partial sums (SL), so the SL diagonal is ``h0,
        h1 - h0, ..., -h_{n-2}``.
        """
        if len(coords) != self.dim_g:
            raise ValueError("coordinate length mismatch")
        c = [x if isinstance(x, QQi) else QQi(x) for x in coords]
        du, db = self.dim_u, self.dim_b
        rows = [[QQI_ZERO] * self.n for _ in range(self.n)]
        for (i, j), x in zip(self._upper + self._lower, c[:du] + c[db:]):
            rows[i][j] = x
        h = c[du:db]
        if self.family == "SL":
            h = [h[0]] + [b - a for a, b in zip(h, h[1:])] + [-h[-1]]
        for k, x in enumerate(h):
            rows[k][k] = x
        return Mat(rows)

    def sub_indices(self, part: str) -> range:
        if part == "g":
            return range(self.dim_g)
        if part == "u":
            return range(self.dim_u)
        if part == "t":
            return range(self.dim_u, self.dim_b)
        if part == "b":
            return range(self.dim_b)
        raise ValueError(f"unknown subalgebra {part!r}")

    def part_dim(self, part: str) -> int:
        return len(self.sub_indices(part))

    def embed_part_coords(self, part: str, coords) -> list:
        """Scatter subalgebra coordinates into full algebra coordinates."""
        idx = self.sub_indices(part)
        if len(coords) != len(idx):
            raise ValueError("coordinate length mismatch")
        zero = QQi(0)
        out = [zero] * self.dim_g
        for k, i in enumerate(idx):
            out[i] = coords[k]
        return out

    def part_coords(self, part: str, m) -> list:
        full = self.coords(m)
        return [full[i] for i in self.sub_indices(part)]

    def adjoint(self, m: Mat, minv: Mat) -> Mat:
        """Ad_m in algebra coordinates: column j holds the coordinates of
        ``m e_j m^-1``.  ``minv`` is the inverse of ``m``; pass them swapped
        for Ad_{m^-1}.

        Closed form: entry (a, b) of ``m E_ij m^-1`` is
        ``m[a][i] m^-1[j][b]``, so the column of E_ij is read off the outer
        product of column i of m and row j of m^-1.  The SL torus rows are
        partial sums of its diagonal, as in :meth:`coords`, and the column of
        H_k is the difference of those of E_kk and E_(k+1)(k+1).  A real pair
        runs on integers, m and m^-1 each over one common denominator; a
        non-real pair runs the same formula on its :class:`QQi` entries.  The
        per-basis ``coords(m e_j m^-1)`` is the oracle for this in the tests.
        """
        mi, ci = m.int_entries(), minv.int_entries()
        if mi is None or ci is None:
            return Mat.from_columns(self._adjoint_columns(m.data, minv.data),
                                    self.dim_g)
        return Mat.from_int_columns(self._adjoint_columns(mi[0], ci[0]),
                                    mi[1] * ci[1])

    def _adjoint_columns(self, m, minv) -> list:
        """The columns of :meth:`adjoint` from the entry rows of m and m^-1,
        over any ring of scalars."""
        n = self.n
        mcols = list(zip(*m))

        def unit(i, j):  # coords of m E_ij m^-1
            u, v = mcols[i], minv[j]
            diag = [u[k] * v[k] for k in range(n)]
            return ([u[a] * v[b] for a, b in self._upper]
                    + (list(itertools.accumulate(diag[:-1]))
                       if self.family == "SL" else diag)
                    + [u[a] * v[b] for a, b in self._lower])

        torus = [unit(k, k) for k in range(n)]
        if self.family == "SL":
            torus = [list(map(sub, p, q)) for p, q in zip(torus, torus[1:])]
        return ([unit(i, j) for i, j in self._upper] + torus
                + [unit(i, j) for i, j in self._lower])

    # -- invariant form and brackets ------------------------------------------

    def _bracket_tables(self) -> tuple[Mat, Mat]:
        """The structure constants in the two layouts the closure check uses.

        ``R_m`` is the matrix of a -> coords([a, e_m]); its column l is
        coords([e_l, e_m]).  The first table has row m equal to ``R_m`` read
        row by row; the second stacks coords([e_i, e_j]) as row ``i d + j``.
        Built on first use, so only the closure check pays for them; they do
        not depend on the conventions.
        """
        if self._brackets is None:
            d = self.dim_g
            struct = [[self.coords(bracket(x, y)) for y in self.basis]
                      for x in self.basis]
            flat = Mat([[struct[l][m][k] for k in range(d) for l in range(d)]
                        for m in range(d)])
            stacked = Mat([v for row in struct for v in row])
            self._brackets = (flat, stacked)
        return self._brackets

    @property
    def structure_constants(self) -> Mat:
        """coords([e_i, e_j]) as row ``i * dim_g + j``."""
        return self._bracket_tables()[1]

    def bracket_matrices(self, vectors: Mat) -> list[Mat]:
        """``R(v) = sum_m v_m R_m`` for each column v of ``vectors``.

        R(v) is the matrix of a -> coords([a, v]).  One product with the
        first table of :meth:`_bracket_tables` gives every R(v) read row by
        row; each is then folded into its d rows.
        """
        flat = vectors.transpose() @ self._bracket_tables()[0]
        return [flat.row_block(i, i + 1).fold_rows(self.dim_g)
                for i in range(vectors.cols)]

    def form(self, x: Mat, y: Mat):
        """The invariant bilinear form ``tr(x y)``."""
        return (x @ y).trace()

    def eta(self, x: Mat, y: Mat, z: Mat):
        """The invariant alternating 3-form ``eta_coeff * (x, [y, z])``.

        The coefficient is the active ``Conventions.eta_coeff``.
        """
        return _mul_frac(self.form(x, bracket(y, z)), ACTIVE.get().eta_coeff)

    def chi(self, a: Mat, b: Mat, c: Mat):
        """The 3-tensor matching eta under the form's identification.

        Arguments are the algebra coordinates of the three covectors (the
        metric duals), so the pairing against (x^v, y^v, z^v) is exactly
        eta(x, y, z).
        """
        return self.eta(a, b, c)

    def dual_coords(self, a: Mat) -> list:
        """Functional coordinates of the covector with algebra coordinate a."""
        return mat_vec(self.gram, self.coords(a))

    # -- membership helpers ----------------------------------------------------

    def in_algebra(self, m: Mat) -> bool:
        return self.family == "GL" or not m.trace()

    def in_borel(self, m: Mat) -> bool:
        return not any(m.entry(i, j) for i, j in self._lower)


def _unit(n: int, i: int, j: int) -> Mat:
    m = [[QQi(0)] * n for _ in range(n)]
    m[i][j] = QQi(1)
    return Mat(m)


def _mul_frac(t, frac: Fraction):
    if frac == 1:
        return t
    if isinstance(t, Dual):
        return Dual(_mul_frac(t.val, frac), _mul_frac(t.dot, frac))
    return t * frac


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
# typed elements


class GroupElement:
    """Invertible element of the context's group."""

    __slots__ = ("ctx", "m", "_inv")

    def __init__(self, ctx: GroupContext, m: Mat, check: bool = True):
        self.ctx = ctx
        self.m = m
        self._inv = None
        if check:
            d = m.det()
            if not d:
                raise ValueError("group element must be invertible")
            if ctx.family == "SL" and d != QQi(1):
                raise ValueError("SL element must have determinant 1")

    @property
    def inv(self) -> Mat:
        if self._inv is None:
            self._inv = self.m.inverse()
        return self._inv

    def inverse(self) -> "GroupElement":
        g = GroupElement(self.ctx, self.inv, check=False)
        g._inv = self.m
        return g

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.ctx is not other.ctx:
            raise ValueError("mixed contexts")
        return GroupElement(self.ctx, self.m @ other.m, check=False)

    def __eq__(self, other):
        return isinstance(other, GroupElement) and self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def to_json(self) -> dict:
        d = mat_to_json(self.m)
        d["group"] = self.ctx.name
        return d

    @classmethod
    def from_json(cls, obj: dict) -> "GroupElement":
        """The element of a matrix object with a ``"group"`` tag."""
        return read_element(group_of_json(obj), obj)

    def __repr__(self):
        return f"GroupElement({self.ctx.name}, {self.m!r})"


def group_of_json(obj: dict) -> GroupContext:
    """The context named by the ``"group"`` tag of a JSON object."""
    try:
        name = obj["group"]
    except (KeyError, TypeError):
        raise ValueError("group element JSON needs a 'group' tag") from None
    return context(name)


def read_element(ctx: GroupContext, obj: dict, check: bool = True) -> GroupElement:
    """The group element of a matrix object; the size must match the group.

    Every group matrix of a JSON point or eval input is read here.
    """
    m = mat_from_json(obj)
    if m.rows != ctx.n or m.cols != ctx.n:
        raise ValueError(f"matrix size does not match group {ctx.name}")
    return GroupElement(ctx, m, check)


class AlgebraElement:
    """Element of the context's Lie algebra (trace-free for SL)."""

    __slots__ = ("ctx", "m")

    def __init__(self, ctx: GroupContext, m: Mat, check: bool = True):
        if check and not ctx.in_algebra(m):
            raise ValueError("matrix is not in the Lie algebra")
        self.ctx = ctx
        self.m = m

    def coords(self) -> list:
        return self.ctx.coords(self.m)

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self.m == other.m

    def __repr__(self):
        return f"AlgebraElement({self.ctx.name}, {self.m!r})"


class TangentVec:
    """Tangent vector ``base * coord`` in left trivialization."""

    __slots__ = ("base", "coord")

    def __init__(self, base: GroupElement, coord: AlgebraElement):
        self.base = base
        self.coord = coord


class Covector:
    """Covector at ``base`` with ``alpha(X) = (coord, theta(X))``."""

    __slots__ = ("base", "coord")

    def __init__(self, base: GroupElement, coord: AlgebraElement):
        self.base = base
        self.coord = coord

    def __call__(self, v: TangentVec):
        return self.base.ctx.form(self.coord.m, v.coord.m)

    def dual_coords(self) -> list:
        return self.base.ctx.dual_coords(self.coord.m)


# ---------------------------------------------------------------------------
# the basic operations


def ad(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    if x.ctx is not y.ctx:
        raise ValueError("mixed contexts")
    return AlgebraElement(x.ctx, bracket(x.m, y.m), check=False)


def Ad(g: GroupElement, x: AlgebraElement) -> AlgebraElement:
    if g.ctx is not x.ctx:
        raise ValueError("mixed contexts")
    return AlgebraElement(g.ctx, g.m @ x.m @ g.inv, check=False)


def sigma_average(a, ad_a):
    """``factor * (a + sign * ad_a)``: the averaging in sigma and its adjoint.

    ``ad_a`` is the adjoint image of ``a`` the caller already has (Ad_{g^-1} a
    for sigma, Ad_g a for its adjoint); factor and sign are the active
    ``sigma_factor`` and ``sigma_ad_sign``.  Works on matrices of dual
    scalars too.
    """
    conv = ACTIVE.get()
    both = a + ad_a if conv.sigma_ad_sign == 1 else a - ad_a
    return both.scale(QQi(conv.sigma_factor))


def sigma(g: GroupElement, xi: AlgebraElement) -> Covector:
    """The averaged covector attached to xi at g.

    Left-trivialized coordinate: 1/2 (xi + Ad_{g^-1} xi) under the frozen
    conventions; see :func:`sigma_average`.
    """
    coord = sigma_average(xi.m, g.inv @ xi.m @ g.m)
    return Covector(g, AlgebraElement(g.ctx, coord, check=False))


def sigma_adjoint(alpha: Covector) -> AlgebraElement:
    """The adjoint of sigma applied to a covector: 1/2 (a + Ad_g a)."""
    g = alpha.base
    a = alpha.coord.m
    return AlgebraElement(g.ctx, sigma_average(a, g.m @ a @ g.inv), check=False)


def conjugation_sections(ctx: GroupContext, gmat: Mat,
                         ginv: Mat) -> tuple[Mat, Mat, Mat]:
    """M = Ad_{g^-1}, X = I - M and A = gram sigma_average(I, M) at g.

    Both parts of the conjugation structure are linear in xi, so column j of
    X is :func:`conj_field` of the basis element e_j and column j of A the
    functional coordinates of :func:`sigma` of e_j: [X; A] holds every basis
    section at g.  ``ginv`` is g^-1.  The per-element :func:`conj_field` and
    :func:`sigma` are its oracles in the tests.
    """
    eye = Mat.identity(ctx.dim_g)
    m = ctx.adjoint(ginv, gmat)
    return m, eye - m, ctx.gram @ sigma_average(eye, m)


def conj_field(g: GroupElement, xi: AlgebraElement) -> TangentVec:
    """Generating vector field of conjugation at g, as xi^L - xi^R.

    Left-trivialized coordinate xi - Ad_{g^-1} xi; the sign convention is the
    one frozen in the conventions note (the opposite sign is the derivative
    of h |-> h g h^-1).
    """
    coord = xi.m - g.inv @ xi.m @ g.m
    return TangentVec(g, AlgebraElement(g.ctx, coord, check=False))


def rho_adjoint(v: TangentVec) -> AlgebraElement:
    """Adjoint of the conjugation action: solve (zeta, xi) = (v, rho(xi)).

    Solved as a linear system over the algebra basis; the closed form
    ``v - Ad_g v`` is the independent oracle used in the tests.
    """
    ctx = v.base.ctx
    g = v.base
    rhs = []
    for b in ctx.basis:
        rho_b = b - g.inv @ b @ g.m
        rhs.append(ctx.form(v.coord.m, rho_b))
    zeta_coords = mat_vec(ctx.gram_inv, rhs)
    return AlgebraElement(ctx, ctx.mat_from_coords(zeta_coords), check=False)


def torus_part(b: GroupElement) -> GroupElement:
    """The torus factor t of an upper-triangular b = t u: the diagonal of b."""
    n = b.ctx.n
    t = Mat([[b.m.entry(i, i) if i == j else QQI_ZERO for j in range(n)]
             for i in range(n)])
    return GroupElement(b.ctx, t, check=False)


def borel_decompose(b: GroupElement) -> tuple[GroupElement, GroupElement]:
    """Split an upper-triangular element as (torus part, unipotent part)."""
    ctx = b.ctx
    if not ctx.in_borel(b.m):
        raise ValueError("element is not upper triangular")
    t = torus_part(b)
    return t, GroupElement(ctx, t.inv @ b.m, check=False)


def chevalley(g: GroupElement) -> tuple:
    """Characteristic-polynomial invariants (the adjoint-quotient value), exactly."""
    return invariants(g.ctx, g.m)


def invariants(ctx: GroupContext, m) -> tuple:
    """The elementary symmetric functions of the eigenvalues of ``m``.

    n-1 of them for SL_n (the determinant is pinned to 1), all n for GL_n,
    from the power sums by Newton's identities.  Only ``@`` and ``.trace()``
    are used, so ``m`` is an exact :class:`Mat` or a numpy array.
    """
    n = ctx.n
    powers = []
    acc = m
    for _ in range(n):
        powers.append(acc.trace())
        acc = acc @ m
    es = [1]  # e_0 = 1; Newton: k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i
    for k in range(1, n + 1):
        s = es[k - 1] * powers[0]
        for i in range(2, k + 1):
            term = es[k - i] * powers[i - 1]
            s = s + term if i % 2 == 1 else s - term
        es.append(s / k)
    return tuple(es[1:n] if ctx.family == "SL" else es[1:])


def random_point(ctx: GroupContext, kind: str, rng: SplitMix64,
                 height: int = 10) -> GroupElement:
    """Exact-rational sample from the requested subgroup.

    ``G`` samples are built as (unit lower) * (diagonal) * (unit upper) with
    bounded-height rational entries and determinant fixed by the family;
    ``T-regular`` forces pairwise distinct diagonal entries.
    """
    n = ctx.n
    if kind == "G":
        low = _unitriangular(n, rng, height, lower=True)
        up = _unitriangular(n, rng, height, lower=False)
        diag = _torus_mat(ctx, rng, height, regular=False)
        return GroupElement(ctx, low @ diag @ up, check=False)
    if kind == "B":
        t = _torus_mat(ctx, rng, height, regular=False)
        u = _unitriangular(n, rng, height, lower=False)
        return GroupElement(ctx, t @ u, check=False)
    if kind == "T":
        return GroupElement(ctx, _torus_mat(ctx, rng, height, regular=False), check=False)
    if kind == "T-regular":
        return GroupElement(ctx, _torus_mat(ctx, rng, height, regular=True), check=False)
    if kind == "U":
        return GroupElement(ctx, _unitriangular(n, rng, height, lower=False), check=False)
    raise ValueError(f"unknown sample kind {kind!r}")


def random_algebra(ctx: GroupContext, rng: SplitMix64, height: int = 10,
                   part: str = "g") -> AlgebraElement:
    coords = [QQi(rng.rational(height)) for _ in ctx.sub_indices(part)]
    full = ctx.embed_part_coords(part, coords)
    return AlgebraElement(ctx, ctx.mat_from_coords(full), check=False)


def _unitriangular(n: int, rng: SplitMix64, height: int, lower: bool) -> Mat:
    m = [[QQi(1) if i == j else QQi(0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if (i > j) if lower else (i < j):
                m[i][j] = QQi(rng.rational(height))
    return Mat(m)


def _torus_mat(ctx: GroupContext, rng: SplitMix64, height: int, regular: bool) -> Mat:
    n = ctx.n
    while True:
        if ctx.family == "SL":
            entries = [rng.rational(height, nonzero=True) for _ in range(n - 1)]
            prod = Fraction(1)
            for e in entries:
                prod *= e
            entries.append(1 / prod)
        else:
            entries = [rng.rational(height, nonzero=True) for _ in range(n)]
        if not regular or len(set(entries)) == n:
            break
    m = [[QQi(entries[i]) if i == j else QQi(0) for j in range(n)] for i in range(n)]
    return Mat(m)


# ---------------------------------------------------------------------------
# the Weyl group


class WeylGroup:
    """Permutation-matrix representatives of N(T)/T.

    For SL the odd permutations carry a -1 in the first column so every
    representative has determinant one.  Representatives multiply correctly
    modulo the torus; ``compose_ok`` checks exactly that.
    """

    def __init__(self, ctx: GroupContext):
        self.ctx = ctx
        self.perms = list(itertools.permutations(range(ctx.n)))
        self.reps = {p: self._rep(p) for p in self.perms}

    def _rep(self, perm) -> GroupElement:
        n = self.ctx.n
        m = [[QQi(0)] * n for _ in range(n)]
        for j in range(n):
            m[perm[j]][j] = QQi(1)
        if self.ctx.family == "SL" and _parity(perm) == -1:
            m[perm[0]][0] = QQi(-1)
        return GroupElement(self.ctx, Mat(m), check=False)

    def __len__(self):
        return len(self.perms)

    def compose_ok(self, p1, p2) -> bool:
        composed = tuple(p1[p2[j]] for j in range(self.ctx.n))
        w = self.reps[composed].inv @ (self.reps[p1].m @ self.reps[p2].m)
        n = self.ctx.n
        return all(not w.entry(i, j) for i in range(n) for j in range(n) if i != j)


def _parity(perm) -> int:
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inv % 2 else 1
