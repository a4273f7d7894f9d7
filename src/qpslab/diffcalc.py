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
:mod:`qpslab.scalars`, :mod:`qpslab.linalg` and :mod:`qpslab.liegroup` name
neither: a :class:`DualMat` reaches the exact kernel as its value and
derivative parts, each an exact :class:`~qpslab.linalg.Mat`, and the
entrywise readers of :class:`~qpslab.liegroup.GroupContext` (``coords``,
``dual_coords``) sum its :class:`Dual` entries as they sum any ring's.

Vector fields and 1-/2-form families are plain functions of the point that
must be generic over dual-valued points; all bracket/derivative formulas
below use constant-coordinate (left-invariant) extensions, with the
correction terms that this induces built in.

No suite runs this engine.  It is the second route of the tests: the
Dorfman closure of the conjugation sections, which the suites decide in
closed form (:func:`qpslab.dirac.cartan_closure_check` and
:func:`qpslab.dirac.closure_sample`), is checked against
:func:`qpslab.dirac.dorfman`, and the exterior derivative of the double's
2-form and of the leaf form, which the suites take from the closed block
form :func:`qpslab.gspringer.d_omega`, against :func:`d_two_form` of the
entrywise :func:`qpslab.gspringer.omega_value`.
``scripts/calibrate_conventions.py`` also runs ``dorfman``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .linalg import Mat, dot
from .liegroup import GroupContext, bracket
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
