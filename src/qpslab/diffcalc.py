"""Exact forward-mode differentiation for rational matrix maps.

Points of the five model spaces (G, T, G x G, G x B, and the unipotent-leaf
slice G x tU) are tuples of matrices; tangent vectors are coordinate vectors
in the fixed subalgebra bases, via left trivialization.  A first derivative
is computed by pushing the curve ``p * (I + t x)`` through the map with
:class:`DualMat` entries and left-trivializing the infinitesimal part at the
image point.  Curves are first order on purpose: every differentiated
quantity in scope is a first derivative of a rational function, so the
second-order membership defect of the curve (det drift for SL) is invisible.

The dual numbers, :class:`Dual` and :class:`DualMat`, are defined here, and
no other module of the package names them: a :class:`DualMat` reaches the exact kernel as its value and
derivative parts, each an exact :class:`~qpslab.linalg.Mat`, and the
entrywise readers of :class:`~qpslab.liegroup.GroupContext` (``coords``,
``dual_coords``) sum its :class:`Dual` entries as they sum any ring's.

Vector fields and 1-/2-form families are plain functions of the point that
must be generic over dual-valued points; all bracket/derivative formulas
below use constant-coordinate (left-invariant) extensions, with the
correction terms that this induces built in.

No suite runs this engine, and no other module of the package imports it.
The tests' oracles of the suites' closed forms are built on it here:
:func:`dorfman` of :func:`cartan_section` with :func:`cartan_eta3` for the
Dorfman closure (:func:`qpslab.dirac.cartan_closure_check` and
:func:`qpslab.dirac.closure_sample`), :func:`d_two_form` of :func:`omega_fn`
for :func:`qpslab.gspringer.d_omega`, and :func:`phi_map` for
:func:`qpslab.gspringer.phi_differential`.
``scripts/calibrate_conventions.py`` also runs ``dorfman``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .conventions import ACTIVE
from .linalg import Mat, dot
from .liegroup import GroupContext, _mul_frac, bracket, sigma_average
from .scalars import QQi


class Dual:
    """First-order dual number ``val + dot*eps`` with ``eps**2 = 0``.

    ``val`` and ``dot`` are :class:`QQi` (or duals themselves).  Arithmetic
    implements the exact product and quotient rules, which is all that first
    derivatives of rational matrix maps need.
    """

    __slots__ = ("val", "dot")

    def __init__(self, val, dot=None):
        self.val = val
        self.dot = dot if dot is not None else val * 0

    def _lift(self, x):
        if isinstance(x, Dual):
            return x
        if isinstance(x, (QQi, int, Fraction)):
            return Dual(x, self.val * 0)
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Dual(self.val + other.val, self.dot + other.dot)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Dual(self.val - other.val, self.dot - other.dot)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Dual(other.val - self.val, other.dot - self.dot)

    def __mul__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return Dual(
            self.val * other.val,
            self.val * other.dot + self.dot * other.val,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        v = self.val / other.val
        return Dual(v, (self.dot - v * other.dot) / other.val)

    def __rtruediv__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        return Dual(-self.val, -self.dot)

    def __eq__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self.val == other.val and self.dot == other.dot

    def __hash__(self):
        return hash((self.val, self.dot))

    def __repr__(self):
        return f"Dual({self.val!r}, {self.dot!r})"


class DualMat:
    """Matrix of dual numbers stored as a (value, derivative) pair.

    Components may themselves be DualMats: nesting one level gives the
    second-order data that bracket-of-bracket computations (the Jacobi
    checks) need, with mixed partials handled by the layering.
    """

    __slots__ = ("val", "dot", "_inv")

    def __init__(self, val, dot=None):
        self.val = val
        self.dot = dot if dot is not None else val.scale(0)
        self._inv = None

    @property
    def rows(self):
        return self.val.rows

    @property
    def cols(self):
        return self.val.cols

    def __matmul__(self, other):
        if isinstance(other, DualMat):
            return DualMat(
                self.val @ other.val,
                self.val @ other.dot + self.dot @ other.val,
            )
        if isinstance(other, Mat):
            return DualMat(self.val @ other, self.dot @ other)
        return NotImplemented

    def __rmatmul__(self, other):
        if isinstance(other, Mat):
            return DualMat(other @ self.val, other @ self.dot)
        return NotImplemented

    def __add__(self, other):
        other = _lift(other)
        return DualMat(self.val + other.val, self.dot + other.dot)

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        return DualMat(self.val - other.val, self.dot - other.dot)

    def __rsub__(self, other):
        other = _lift(other)
        return DualMat(other.val - self.val, other.dot - self.dot)

    def __neg__(self):
        return DualMat(-self.val, -self.dot)

    def scale(self, s):
        return DualMat(self.val.scale(s), self.dot.scale(s))

    def inverse(self) -> "DualMat":
        # (A + eB)^-1 = A^-1 - e A^-1 B A^-1; cached, instances are immutable
        if self._inv is None:
            vinv = self.val.inverse()
            self._inv = DualMat(vinv, -(vinv @ self.dot @ vinv))
        return self._inv

    def transpose(self) -> "DualMat":
        return DualMat(self.val.transpose(), self.dot.transpose())

    def trace(self) -> Dual:
        return Dual(self.val.trace(), self.dot.trace())

    def entry(self, i, j) -> Dual:
        return Dual(self.val.entry(i, j), self.dot.entry(i, j))


def _lift(m) -> DualMat:
    if isinstance(m, DualMat):
        return m
    if isinstance(m, Mat):
        return DualMat(m)
    raise TypeError(f"cannot lift {type(m).__name__} to DualMat")


def dot_part(x):
    """Derivative part of a dual scalar; constants differentiate to zero."""
    if isinstance(x, Dual):
        return x.dot
    return x * 0


# ---------------------------------------------------------------------------
# model spaces


@dataclass(frozen=True)
class Space:
    """Product of subgroup factors; tangent model is the matching subalgebras.

    ``parts`` entries are subalgebra tags: "g" (all of G), "b" (Borel),
    "t" (torus), "u" (unipotent radical).  :meth:`indices` resolves a tag to
    the context's basis indices, and every other method reads them there.
    """

    ctx: GroupContext
    parts: tuple[str, ...]

    def indices(self, part: str) -> tuple:
        """The basis indices of the subalgebra tagged ``part``."""
        ctx = self.ctx
        if part == "g":
            return tuple(range(ctx.dim_g))
        layout = {"b": ctx.borel, "t": ctx.torus, "u": ctx.unipotent}
        if part not in layout:
            raise ValueError(f"unknown subalgebra {part!r}")
        return layout[part]

    @property
    def dim(self) -> int:
        return sum(len(self.indices(p)) for p in self.parts)

    def slices(self) -> list[slice]:
        out, k = [], 0
        for p in self.parts:
            d = len(self.indices(p))
            out.append(slice(k, k + d))
            k += d
        return out

    def split(self, coords: Sequence) -> list[list]:
        return [list(coords[s]) for s in self.slices()]

    def factor_coords(self, part: str, m) -> list:
        """The coordinates of the algebra matrix ``m`` on the part's indices."""
        full = self.ctx.coords(m)
        return [full[i] for i in self.indices(part)]

    def part_matrix(self, part: str, coords: Sequence):
        coords = list(coords)
        if any(isinstance(c, Dual) for c in coords):
            # dual-valued coordinates split into a (value, derivative) pair;
            # recursion handles deeper nesting
            vals = [c.val if isinstance(c, Dual) else c for c in coords]
            dots = [c.dot if isinstance(c, Dual) else c * 0 for c in coords]
            return DualMat(self.part_matrix(part, vals),
                           self.part_matrix(part, dots))
        full = [QQi(0)] * self.ctx.dim_g
        for i, c in zip(self.indices(part), coords, strict=True):
            full[i] = c
        return self.ctx.mat_from_coords(full)

    def matrices(self, coords: Sequence) -> list[Mat]:
        return [self.part_matrix(p, c) for p, c in zip(self.parts, self.split(coords))]

    def curve(self, point: Sequence[Mat], coords: Sequence) -> tuple[DualMat, ...]:
        """First-order curve through ``point`` with left-trivialized velocity."""
        mats = self.matrices(coords)
        return tuple(
            DualMat(p, p @ m) for p, m in zip(point, mats)
        )

    def trivialize(self, image: Sequence) -> list:
        """Left-trivialized coordinates of the derivative part of a dual point."""
        out = []
        for part, comp in zip(self.parts, image):
            comp = _lift(comp)
            out.extend(self.factor_coords(part, comp.val.inverse() @ comp.dot))
        return out

    def basis_directions(self) -> list[list[QQi]]:
        d = self.dim
        return [[QQi(1) if i == j else QQi(0) for i in range(d)] for j in range(d)]

    def direction_coords(self, mats: Sequence[Mat]) -> list:
        """Coordinates of a tangent direction given by per-part matrices.

        Raises if a matrix does not lie in the part's subalgebra (for
        instance a non-trace-free direction on an SL factor).
        """
        out = []
        for part, m in zip(self.parts, mats):
            coords = self.factor_coords(part, m)
            if self.part_matrix(part, coords) != m:
                raise ValueError(f"direction is not tangent to the {part!r} factor")
            out.extend(coords)
        return out

    def bracket_coords(self, x: Sequence, y: Sequence) -> list:
        """Blockwise matrix bracket of constant-coordinate fields."""
        out = []
        for part, xc, yc in zip(self.parts, self.split(x), self.split(y)):
            bm = bracket(self.part_matrix(part, xc), self.part_matrix(part, yc))
            out.extend(self.factor_coords(part, bm))
        return out


def directional(space: Space, point: Sequence[Mat], v: Sequence,
                fn: Callable):
    """Derivative of ``fn`` along the curve ``point * (I + t v)``.

    ``fn`` takes the (dual) point and may return a scalar or a list of
    scalars; the corresponding derivative parts are returned.
    """
    out = fn(space.curve(point, v))
    if isinstance(out, (list, tuple)):
        return [dot_part(x) for x in out]
    return dot_part(out)


# ---------------------------------------------------------------------------
# pointed maps


@dataclass(frozen=True)
class PointedMap:
    """A named map between model spaces with an exact differential."""

    name: str
    domain: Space
    codomain: Space
    fn: Callable

    def value(self, point: Sequence[Mat]) -> tuple[Mat, ...]:
        return tuple(self.fn(tuple(point)))

    def differential(self, point: Sequence[Mat], xcoords: Sequence) -> list:
        image = self.fn(self.domain.curve(point, xcoords))
        return self.codomain.trivialize(image)

    def differential_matrix(self, point: Sequence[Mat]) -> Mat:
        cols = [
            self.differential(point, e) for e in self.domain.basis_directions()
        ]
        return Mat.from_columns(cols, self.codomain.dim)


def compose(name: str, f: PointedMap, g: PointedMap) -> PointedMap:
    """The map f after g."""
    if g.codomain != f.domain:
        raise ValueError("composition domain mismatch")
    return PointedMap(name, g.domain, f.codomain, lambda p: f.fn(tuple(g.fn(p))))


def identity_map(space: Space) -> PointedMap:
    return PointedMap("id", space, space, lambda p: p)


def inversion_map(space: Space) -> PointedMap:
    if space.parts != ("g",):
        raise ValueError("inversion map is a single-factor map")
    return PointedMap("inv", space, space, lambda p: (p[0].inverse(),))


# ---------------------------------------------------------------------------
# fields, brackets, derivatives of forms


def lie_bracket(x_field: Callable, y_field: Callable, space: Space,
                point: Sequence[Mat]) -> list:
    """Bracket of two vector fields given as coordinate maps.

    Includes the trivialization correction ``[x(p), y(p)]`` coming from the
    left-invariant coordinate frame.
    """
    xp = list(x_field(tuple(point)))
    yp = list(y_field(tuple(point)))
    dxy = directional(space, point, xp, lambda q: list(y_field(q)))
    dyx = directional(space, point, yp, lambda q: list(x_field(q)))
    corr = space.bracket_coords(xp, yp)
    return [a - b + c for a, b, c in zip(dxy, dyx, corr)]


def d_two_form(omega: Callable, space: Space, point: Sequence[Mat],
               x: Sequence, y: Sequence, z: Sequence):
    """Exterior derivative of a 2-form family by the invariant formula.

    ``omega(point, u, v)`` must be generic over dual points.  Evaluated with
    constant-coordinate extensions of the three directions:
    sum_cyc X(omega(Y,Z)) - sum_cyc omega([X,Y], Z).
    """
    triples = ((x, y, z), (y, z, x), (z, x, y))
    total = None
    for a, b, c in triples:
        deriv = directional(space, point, a, lambda q: omega(q, b, c))
        alg = omega(tuple(point), space.bracket_coords(a, b), c)
        term = deriv - alg
        total = term if total is None else total + term
    return total


def lie_derivative_covector(x_field: Callable, beta: Callable, space: Space,
                            point: Sequence[Mat]) -> list:
    """Cartan-formula Lie derivative of a 1-form family, in dual coordinates.

    ``beta(point)`` returns the functional coordinates of the covector on the
    tangent basis.  Computed as (L_X beta)(E_j) = X(beta(E_j)) -
    beta([X, E_j]) over the constant basis fields E_j.
    """
    xp = list(x_field(tuple(point)))
    dbeta = directional(space, point, xp, lambda q: list(beta(q)))
    bp = list(beta(tuple(point)))
    out = []
    for j, e in enumerate(space.basis_directions()):
        # [X, E_j] = -D_{E_j} x + [x(p), e_j]
        dx_along_e = directional(space, point, e, lambda q: list(x_field(q)))
        br = space.bracket_coords(xp, e)
        comm = [c - d for c, d in zip(br, dx_along_e)]
        out.append(dbeta[j] - dot(bp, comm))
    return out


def one_form_d(alpha: Callable, y_field: Callable, space: Space,
               point: Sequence[Mat]) -> list:
    """Contraction ``i_Y d(alpha)`` in dual coordinates, for a field Y.

    d(alpha)(Y, E_j) = Y(alpha(E_j)) - E_j(alpha(Y)) - alpha([Y, E_j]) over
    the constant basis fields E_j.
    """
    ap = list(alpha(tuple(point)))
    yp = list(y_field(tuple(point)))
    da_along_y = directional(space, point, yp, lambda q: list(alpha(q)))
    out = []
    for j, e in enumerate(space.basis_directions()):
        ealpha_y = directional(
            space, point, e, lambda q: dot(list(alpha(q)), list(y_field(q)))
        )
        dy_along_e = directional(space, point, e, lambda q: list(y_field(q)))
        br = space.bracket_coords(yp, e)
        comm = [c - d for c, d in zip(br, dy_along_e)]
        out.append(da_along_y[j] - ealpha_y - dot(ap, comm))
    return out


# ---------------------------------------------------------------------------
# the oracles of the closed forms


def dorfman(s1, s2, eta3, space: Space, point):
    """Twisted Dorfman bracket of two sections at a point.

    A section is a function point -> (tangent coords, covector dual coords),
    rational in the point, so that it also evaluates on dual points.
    Returns (tangent coords, covector dual coords) of
    ([X, Y], L_X beta - i_Y d(alpha) + twist), where the twist is the active
    ``Conventions.twist`` multiple of eta3(X, Y, .).  ``eta3(point, x, y,
    z)`` evaluates the 3-form family on coordinate triples; pass ``None`` for
    the untwisted bracket.  Composed of :func:`lie_bracket`,
    :func:`lie_derivative_covector` and :func:`one_form_d`.
    """
    point = tuple(point)
    x_field, alpha = (lambda q: s1(q)[0]), (lambda q: s1(q)[1])
    y_field, beta = (lambda q: s2(q)[0]), (lambda q: s2(q)[1])
    cov = [lx - iy for lx, iy in zip(lie_derivative_covector(x_field, beta, space, point),
                                     one_form_d(alpha, y_field, space, point))]
    twist = 0 if eta3 is None else ACTIVE.get().twist
    if twist:
        xp, yp = x_field(point), y_field(point)
        cov = [c + eta3(point, xp, yp, e) * QQi(twist)
               for c, e in zip(cov, space.basis_directions())]
    return lie_bracket(x_field, y_field, space, point), cov


def cartan_section(ctx: GroupContext, ximat):
    """The section g -> (rho(xi), sigma(xi)) as a dual-point-generic function.

    Shares the single Ad computation between the tangent and covector parts
    (:func:`dorfman` evaluates it at every curve point).
    """

    def fn(point):
        gmat = point[0]
        ad = gmat.inverse() @ ximat @ gmat
        return ctx.coords(ximat - ad), ctx.dual_coords(sigma_average(ximat, ad))

    return fn


def cartan_eta3(space: Space):
    """The invariant 3-form of the group as a constant coordinate family."""
    ctx = space.ctx

    def ev(point, x, y, z):
        mx, my, mz = (space.matrices(c) for c in (x, y, z))
        return ctx.eta(mx[0], my[0], mz[0])

    if space.parts != ("g",):
        raise ValueError("cartan_eta3 lives on the single-group space")
    return ev


def phi_map(ctx: GroupContext) -> PointedMap:
    """The moment map of the double, (a, b) -> (a b a^-1, b^-1)."""
    sp = Space(ctx, ("g", "g"))

    def fn(q):
        a, b = q
        return (a @ b @ a.inverse(), b.inverse())

    return PointedMap("phi", sp, sp, fn)


def omega_value(ctx: GroupContext, amat, bmat, u1, u2):
    """omega at (a, b) on two tangent coordinates given as matrix pairs."""
    x1, y1 = u1
    x2, y2 = u2
    binv = bmat.inverse()

    def adb(w):
        return bmat @ w @ binv

    f = ctx.form
    val = (
        f(x1, adb(y2)) - f(x2, adb(y1))
        + f(x2, adb(x1)) - f(x1, adb(x2))
        + f(x1, y2) - f(x2, y1)
    )
    return _mul_frac(val, Fraction(-ACTIVE.get().omega_sign, 2))


def omega_fn(ctx: GroupContext, space: Space):
    """omega as a coordinate-bilinear family usable by :func:`d_two_form`."""

    def ev(point, u, v):
        a, b = point
        um = space.matrices(u)
        vm = space.matrices(v)
        return omega_value(ctx, a, b, (um[0], um[1]), (vm[0], vm[1]))

    return ev
