"""The JSON wire format for matrices, which group elements and points wrap.

Matrix format::

    {"rows": n, "cols": m, "entries": [["p/q", "r/s"], ...]}

Entries are row-major ``[real, imaginary]`` pairs of exact fraction strings
or integers; a bare integer means a real entry.  Any other number, a
boolean, a zero denominator or a bad size is an input error (ValueError):
every matrix read here is exact, and so is every matrix the package reads.
Group elements add a ``"group"`` tag such as ``"sl2"``, and a point of
G x_B B is ``{"g", "b", "group"}``
(:func:`~qpslab.gspringer.point_to_json`).

Every matrix a campaign writes is real and its parts are ``-?digits`` or
``-?digits/digits`` in ASCII, so the reader takes such a part by ``int``
(:func:`_rational`) and builds a real matrix straight into integer rows,
with no :class:`~qpslab.scalars.QQi` entry.  Any other part, and a zero
denominator, goes through :func:`_exact_part`, which accepts and rejects
exactly as ``Fraction`` does, so the fast path changes no value and no
error.  A matrix with a non-real entry is built from :class:`QQi` entries,
into the same integer rows, with Gaussian-integer numerators.  The writer
prints every matrix from its integer rows
(:meth:`~qpslab.linalg.Mat.int_entries`), a Gaussian numerator by its two
parts, and gives the strings of ``str(Fraction)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .linalg import Mat
from .scalars import QQi


def scalar_to_json(x: QQi) -> list:
    return [str(x.re), str(x.im)]


def _exact_part(v) -> Fraction:
    if not isinstance(v, (str, int)):
        raise ValueError(f"exact backend needs fraction strings, got {v!r}")
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in entry {v!r}") from None


def _rational(v) -> int | Fraction:
    """A part of an exact entry as an ``int`` or a ``Fraction``: the ASCII
    forms ``-?digits`` and ``-?digits/digits`` with a non-zero denominator
    by ``int``, any other part by :func:`_exact_part`."""
    if type(v) is int:
        return v
    if type(v) is str and v.isascii():
        num, slash, den = v.partition("/")
        if num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
            try:  # int refuses a digit string beyond its length limit
                p, q = int(num), int(den or 1)
            except ValueError:
                q = 0
            if q:
                return p if q == 1 else Fraction(p, q)
    return _exact_part(v)


def _pair(v) -> tuple:
    # exact types: JSON's true and false would pass isinstance(v, int)
    pair = (v, 0) if type(v) is int else v
    if isinstance(pair, (list, tuple)) and len(pair) == 2 and all(
            type(x) in (str, int) for x in pair):
        return tuple(pair)
    raise ValueError(f"exact backend needs fraction strings or integers, got {v!r}")


def entry_pairs(obj: dict) -> tuple[int, int, list]:
    """``(rows, cols, entries)`` of a matrix object, each entry a
    ``(real, imaginary)`` pair of unparsed parts."""
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except (KeyError, TypeError) as e:
        raise ValueError(f"malformed matrix JSON: {e}") from None
    if not all(type(n) is int and n >= 0 for n in (rows, cols)):
        raise ValueError(f"bad matrix size {rows!r} x {cols!r}")
    if not isinstance(entries, list) or len(entries) != rows * cols:
        raise ValueError("entries must be a list of rows*cols entries")
    return rows, cols, [_pair(v) for v in entries]


def mat_to_json(m: Mat) -> dict:
    nums, den = m.int_entries()
    entries = [[_fraction_str(a, den), "0"] if type(a) is int else
               [_fraction_str(a.re, den), _fraction_str(a.im, den)]
               for r in nums for a in r]
    return {"rows": m.rows, "cols": m.cols, "entries": entries}


def _fraction_str(num: int, den: int) -> str:
    """``str(Fraction(num, den))`` for a positive ``den``."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


def mat_from_json(obj: dict) -> Mat:
    rows, cols, pairs = entry_pairs(obj)
    parts = [(_rational(re), _rational(im)) for re, im in pairs]
    if any(im for _, im in parts):
        entries = [QQi(re, im) for re, im in parts]
    else:
        entries = [re for re, _ in parts]
    return Mat([entries[i * cols:(i + 1) * cols] for i in range(rows)])
