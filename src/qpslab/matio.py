"""The JSON wire format for matrices, which is also that of group elements.

Matrix format::

    {"rows": n, "cols": m, "entries": [["p/q", "r/s"], ...]}

Entries are row-major ``[real, imaginary]`` pairs of exact fraction strings
or integers; a bare integer means a real entry.  Any other number, a
boolean, a zero denominator or a bad size is an input error (ValueError):
every matrix read here is exact, and so is every matrix the package reads.
A group element is its matrix, read with a ``"group"`` tag such as
``"sl2"`` (:func:`~qpslab.liegroup.read_element`), and a point of G x_B B
is ``{"g", "b", "group"}`` (:func:`~qpslab.gspringer.point_to_json`).

The reader parses every part by :func:`_exact_part`, which accepts and
rejects exactly as ``Fraction`` does, with one exception: it refuses a
decimal exponent beyond 4,300 in magnitude, Python's default int-string
limit, before ``Fraction`` would build ten to that power.  A real matrix is
built straight into integer rows, with no :class:`~qpslab.scalars.QQi`
entry; a matrix with a non-real entry is built from :class:`QQi` entries,
into the same integer rows, with Gaussian-integer numerators.  The writer
prints every matrix from its integer rows
(:meth:`~qpslab.linalg.Mat.int_entries`), a Gaussian numerator by its two
parts, and gives the strings of ``str(Fraction)``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .linalg import Mat
from .scalars import QQi


MAX_EXPONENT = 4300
# the digits of a part's decimal exponent, where Fraction would read one
_EXPONENT = re.compile(r"e[-+]?(\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)


def _exact_part(v) -> Fraction:
    if not isinstance(v, (str, int)):
        raise ValueError(f"exact backend needs fraction strings, got {v!r}")
    exp = _EXPONENT.search(v) if isinstance(v, str) else None
    if exp and int(exp[1]) > MAX_EXPONENT:
        raise ValueError(f"exponent beyond {MAX_EXPONENT} in entry {v!r}")
    try:
        return Fraction(v)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in entry {v!r}") from None


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
    parts = [(_exact_part(re), _exact_part(im)) for re, im in pairs]
    if any(im for _, im in parts):
        entries = [QQi(re, im) for re, im in parts]
    else:
        entries = [re for re, _ in parts]
    return Mat([entries[i * cols:(i + 1) * cols] for i in range(rows)])
