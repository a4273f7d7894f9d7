"""Exact scalars: Gaussian rationals and first-order duals over them.

Every geometric predicate in this package eventually reduces to arithmetic
here.  :class:`QQi` stores a pair of ``Fraction``s and is error-free, so rank
and equality decisions made over it are unconditional.  :class:`Dual`
numbers carry a first-order infinitesimal part and drive the forward-mode
differentiation in :mod:`qpslab.diffcalc`; their product rule is exact.
The one float check, the Weyl-fiber enumeration, uses numpy's complex128
arrays instead (see :mod:`qpslab.gspringer`).
"""

from __future__ import annotations

from fractions import Fraction

_EXACT_COERCIBLE = (int, Fraction)

# the imaginary part of every real QQi built here; Fractions are immutable
_ZERO = Fraction(0)


class QQi:
    """Gaussian rational ``re + im*i`` with exact rational components.

    Campaigns are real, so ``+``, ``-``, ``*`` and ``/`` skip the imaginary
    arithmetic when both imaginary parts are zero.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=_ZERO):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return QQi(self.re + other.re)
        return QQi(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return QQi(self.re - other.re)
        return QQi(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return QQi(other.re - self.re)
        return QQi(other.re - self.re, other.im - self.im)

    def __mul__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.im and not other.im:
            return QQi(self.re * other.re)
        return QQi(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.re and not other.im:
            raise ZeroDivisionError("division by zero Gaussian rational")
        if not self.im and not other.im:
            return QQi(self.re / other.re)
        n = other.re * other.re + other.im * other.im
        return QQi(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __neg__(self):
        if not self.im:
            return QQi(-self.re)
        return QQi(-self.re, -self.im)

    def __pos__(self):
        return self

    # -- comparison / hashing ----------------------------------------------

    def __eq__(self, other):
        other = _as_qqi(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # -- misc ----------------------------------------------------------------

    def to_complex(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    def __repr__(self):
        if not self.im:
            return str(self.re)
        return f"{self.re}{'+' if self.im >= 0 else '-'}{abs(self.im)}i"


def _as_qqi(x):
    if isinstance(x, QQi):
        return x
    if isinstance(x, _EXACT_COERCIBLE):
        return QQi(x)
    return NotImplemented


QQI_ZERO = QQi(0)


class Dual:
    """First-order dual number ``val + dot*eps`` with ``eps**2 = 0``.

    ``val`` and ``dot`` are :class:`QQi` (or duals themselves).  Arithmetic
    implements the exact product and quotient
    rules, which is all that first derivatives of rational matrix maps need.
    """

    __slots__ = ("val", "dot")

    def __init__(self, val, dot=None):
        self.val = val
        self.dot = dot if dot is not None else val * 0

    def _lift(self, x):
        if isinstance(x, Dual):
            return x
        if isinstance(x, (QQi, *_EXACT_COERCIBLE)):
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
