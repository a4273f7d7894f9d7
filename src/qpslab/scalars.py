"""Exact scalars: Gaussian rationals and Gaussian integers.

Every geometric predicate in this package eventually reduces to arithmetic
here.  :class:`QQi` stores a pair of ``Fraction``s and is error-free, so rank
and equality decisions made over it are unconditional.  :class:`ZZi`, a
non-real Gaussian integer, is the numerator of a non-real entry in the
integer rows of :mod:`qpslab.linalg`.  The one float check, the Weyl-fiber
enumeration, uses numpy's complex128 arrays instead (see
:mod:`qpslab.gspringer`).
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


class ZZi:
    """Non-real Gaussian integer ``re + im*i``, ``im`` never zero.

    Every operation returns a plain ``int`` when its result is real
    (:func:`zzi`), so a real row of :mod:`qpslab.linalg` never holds one
    and real arithmetic stays on ``int``.  Operands are ``int`` or
    :class:`ZZi`.  ``//`` is exact division, the one fraction-free
    elimination needs: it raises ``ArithmeticError`` when the quotient is
    not a Gaussian integer.  A :class:`ZZi` is always true, never equals an
    ``int``, and is refused by ``math.gcd``.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int):
        self.re = re
        self.im = im

    def __add__(self, other):
        c, d = _parts(other)
        return zzi(self.re + c, self.im + d)

    __radd__ = __add__

    def __sub__(self, other):
        c, d = _parts(other)
        return zzi(self.re - c, self.im - d)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        c, d = _parts(other)
        return zzi(self.re * c - self.im * d, self.re * d + self.im * c)

    __rmul__ = __mul__

    def __floordiv__(self, other):
        if type(other) is int:
            return _exact(self.re, self.im, other)
        return _exact(*_parts(self * other.conjugate()), other.norm())

    def __rfloordiv__(self, other):
        return _exact(*_parts(other * self.conjugate()), self.norm())

    def __neg__(self):
        return ZZi(-self.re, -self.im)

    def conjugate(self) -> "ZZi":
        return ZZi(self.re, -self.im)

    def norm(self) -> int:
        """``self * self.conjugate()``, a positive ``int``."""
        return self.re * self.re + self.im * self.im

    def __eq__(self, other):
        return type(other) is ZZi and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"ZZi({self.re}, {self.im})"


def zzi(re: int, im: int):
    """The Gaussian integer ``re + im*i``: a plain ``int`` when ``im`` is 0."""
    return ZZi(re, im) if im else re


def _parts(x) -> tuple:
    """The real and imaginary parts of an ``int`` or :class:`ZZi`."""
    return (x, 0) if type(x) is int else (x.re, x.im)


def _exact(re: int, im: int, n: int):
    """``(re + im*i) / n``, raising ``ArithmeticError`` unless it is a
    Gaussian integer."""
    (a, r), (b, s) = divmod(re, n), divmod(im, n)
    if r or s:
        raise ArithmeticError(f"({re} + {im}i) / {n} is not a Gaussian integer")
    return zzi(a, b)
