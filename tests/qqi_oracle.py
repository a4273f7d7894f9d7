"""Elimination over the Gaussian rationals: the oracle of the exact kernel.

The :mod:`qpslab.linalg` functions non-real matrices ran on before the
integer rows took Gaussian-integer numerators, moved here unchanged: products,
ranks, reduced row echelon forms, determinants and inverses computed entry by
entry in :class:`~qpslab.scalars.QQi` arithmetic on ``Mat.data``.

Beside them, :func:`builds_no_qqi` checks the other side of that move: an
operation of the integer kernel builds no :class:`QQi` at all.
"""

from contextlib import contextmanager
from math import lcm
from typing import Sequence
from unittest import mock

from qpslab.linalg import LinAlgError, Mat, dot
from qpslab.scalars import QQi


@contextmanager
def builds_no_qqi():
    """Fail unless the block constructs no :class:`QQi`: the integer paths
    of :mod:`qpslab.linalg` and of its callers run on integer rows alone,
    and a :class:`Mat` keeps no entries, so an entry is built only when
    some code reads one."""
    built = []
    init = QQi.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    with mock.patch.object(QQi, "__init__", counted):
        yield
    assert not built, f"{len(built)} QQi built, the first from {built[0]}"


def _dot(row, col):
    acc = dot(row, col)
    if acc is None:
        raise LinAlgError("empty dot product")
    return acc


def _matmul_qqi(a: Mat, b: Mat) -> Mat:
    bt = tuple(zip(*b.data))
    return Mat(tuple(tuple(_dot(r, c) for c in bt) for r in a.data))


def _mat_vec_qqi(m: Mat, v: Sequence) -> list:
    return [_dot(r, v) for r in m.data]


def _rank_qqi(m: Mat) -> int:
    """Bareiss elimination over Gaussian integers after clearing denominators."""
    rows = [_clear_denominators(r) for r in m.data]
    nr, nc = m.rows, m.cols
    prev = QQi(1)
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pr = rows[r]
        for i in range(r + 1, nr):
            ri = rows[i]
            if any(ri[c:]):
                f = ri[c]
                rows[i] = [
                    (pr[c] * ri[j] - f * pr[j]) / prev for j in range(nc)
                ]
        prev = pr[c]
        r += 1
    return r


def _clear_denominators(row):
    """Scale a row of Gaussian rationals to Gaussian integers (rank-safe)."""
    den = 1
    for x in row:
        den = lcm(den, x.re.denominator, x.im.denominator)
    if den == 1:
        return list(row)
    return [x * den for x in row]


def _rref_qqi(m: Mat) -> tuple[Mat, list[int]]:
    rows = [list(r) for r in m.data]
    nr, nc = m.rows, m.cols
    pivots = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = QQi(1) / rows[r][c]
        rows[r] = [a * inv for a in rows[r]]
        for i in range(nr):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Mat(rows), pivots


def _det_qqi(m: Mat) -> QQi:
    rows = [list(r) for r in m.data]
    n = m.rows
    det = QQi(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return QQi(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det = det * rows[c][c]
        inv = QQi(1) / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return det


def _inverse_qqi(m: Mat) -> Mat:
    n = m.rows
    eye = Mat.identity(n).data
    aug = [list(r) + list(eye[i]) for i, r in enumerate(m.data)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c]), None)
        if piv is None:
            raise LinAlgError("singular matrix")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = QQi(1) / aug[c][c]
        aug[c] = [a * inv for a in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return Mat([r[n:] for r in aug])

