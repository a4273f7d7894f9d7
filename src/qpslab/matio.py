"""JSON wire formats for matrices, group elements and sample points.

Matrix format::

    {"rows": n, "cols": m, "entries": [["p/q", "r/s"], ...]}

Entries are row-major ``[real, imaginary]`` pairs of exact fraction strings
or integers; a bare integer means a real entry.  Any other number, a
boolean, a zero denominator or a bad size is an input error (ValueError):
every matrix read here is exact.  The float reader of the Weyl-fiber
enumeration, which also takes plain numbers, shares :func:`entry_pairs` and
the fraction parser (see :mod:`qpslab.gspringer`).  Group elements add a
``"group"`` tag such as ``"sl2"``.
"""

from __future__ import annotations

from fractions import Fraction

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


def _pair(v) -> tuple:
    # exact types: JSON's true and false would pass isinstance(v, int)
    pair = (v, 0) if type(v) in (int, float) else v
    if isinstance(pair, (list, tuple)) and len(pair) == 2 and all(
            type(x) in (str, int, float) for x in pair):
        return tuple(pair)
    raise ValueError(f"bad scalar entry {v!r}")


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
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [scalar_to_json(x) for row in m.data for x in row],
    }


def mat_from_json(obj: dict) -> Mat:
    rows, cols, pairs = entry_pairs(obj)
    entries = [QQi(_exact_part(re), _exact_part(im)) for re, im in pairs]
    return Mat([entries[i * cols:(i + 1) * cols] for i in range(rows)])
