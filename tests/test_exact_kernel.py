"""Differential tests: the integer exact kernel against elimination over QQi.

Every exact matrix is kept and operated on in integer form, a non-real entry
with a Gaussian-integer numerator; the elimination over QQi of
``qqi_oracle`` is the oracle here.  The two must agree entry for entry on
products, sums, scalings, transposes, stacks, row and column blocks, ranks,
reduced row echelon forms with their pivots, kernels, solves, inverses and
determinants, on real and non-real matrices, including rank-deficient
matrices, zero rows and columns, and numerators above 2**60.  A matrix in
integer form must also equal, and hash like, the same matrix built from its
entries.

The elimination also runs on every distinct input the quotient suites hand
it on sl3 and gl3, and on hand-built cases of the levels its rows keep.

Subspace containment is one product against the pivot rows of a canonical
basis; the rank test on the stacked bases that it replaced is its oracle
here, on real and non-real spans.  A basis recognised as canonical without
elimination must be stored exactly as the rref route stores it.
"""

import copy
import random
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
import hypothesis.strategies as st

import oracles
import qqi_oracle
from qqi_oracle import builds_no_qqi
from qpslab import linalg
from qpslab.campaigns import CampaignConfig, run_suite
from qpslab.liegroup import GROUPS, context, random_point
from qpslab.linalg import LinAlgError, Mat, Subspace, kernel, rank, rref, solve_unique
from qpslab.prng import SplitMix64
from qpslab.scalars import QQi, ZZi

from oracles import mat_vec


@contextmanager
def rref_over_qqi():
    """Route rref (and so kernel, solve_unique and Subspace) through QQi."""
    with mock.patch.object(linalg, "rref", qqi_oracle._rref_qqi):
        yield


def rational(rnd: random.Random, bits: int, den_max: int) -> Fraction:
    return Fraction(rnd.randint(-(1 << bits), 1 << bits), rnd.randint(1, den_max))


def random_mat(rnd, rows, cols, bits, den_max, rank_cap, zero_share,
               gaussian=False) -> Mat:
    """rows x cols, rank at most ``rank_cap``, with some zeroed rows/cols.

    A rank-deficient matrix is a small-integer combination of ``rank_cap``
    random rows.  With ``gaussian``, the random rows have small imaginary
    parts and the combinations Gaussian-integer coefficients, so the matrix
    is non-real with the same rank bound.
    """
    def entry():
        re = rational(rnd, bits, den_max)
        return QQi(re, rational(rnd, 3, 4)) if gaussian else re

    def coeff():
        c = rnd.randint(-3, 3)
        return QQi(c, rnd.randint(-2, 2)) if gaussian else c

    basis = [[entry() for _ in range(cols)] for _ in range(min(rank_cap, rows))]
    data = [list(r) for r in basis]
    while len(data) < rows:
        coeffs = [coeff() for _ in basis]
        data.append([sum((c * r[j] for c, r in zip(coeffs, basis)), Fraction(0))
                     for j in range(cols)])
    rnd.shuffle(data)
    for i in range(rows):
        if rnd.random() < zero_share:
            data[i] = [0] * cols
    for j in range(cols):
        if rnd.random() < zero_share:
            for row in data:
                row[j] = 0
    return Mat([[x if isinstance(x, QQi) else QQi(x) for x in row] for row in data])


def is_real(m: Mat) -> bool:
    return not any(x.im for r in m.data for x in r)


@st.composite
def matrices(draw, max_dim=28, square=False):
    rows = draw(st.integers(1, max_dim))
    cols = rows if square else draw(st.integers(1, max_dim))
    # numerators above 2**60 and large denominators on the smaller shapes,
    # which bounds the time of the QQi oracle
    small = rows * cols <= 144
    bits = draw(st.sampled_from((3, 12, 64) if small else (3, 12)))
    den_max = draw(st.sampled_from((1, 16, 2**62) if small else (1, 16)))
    rank_cap = draw(st.integers(0, min(rows, cols)))
    zero_share = draw(st.sampled_from((0.0, 0.0, 0.15)))
    # non-real up to 64 entries: the oracle's Gaussian arithmetic is slower
    gaussian = rows * cols <= 64 and draw(st.booleans())
    seed = draw(st.integers(0, 2**32))
    rnd = random.Random(seed)
    return random_mat(rnd, rows, cols, bits, den_max, rank_cap, zero_share,
                      gaussian), seed


def gaussian_scalar(rnd, bits, den_max, nonreal) -> QQi:
    """A rational of ``bits`` bits, plus a small imaginary part if ``nonreal``."""
    return QQi(rational(rnd, bits, den_max), rational(rnd, 3, 4) if nonreal else 0)


SETTINGS = settings(max_examples=100, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@SETTINGS
@given(matrices())
def test_products_match_qqi(case):
    m, seed = case
    rnd = random.Random(seed + 1)
    nonreal = not is_real(m) or rnd.random() < 0.3
    other = random_mat(rnd, m.cols, rnd.randint(1, 6), 64, 2**62, m.cols, 0.1,
                       nonreal and rnd.random() < 0.5)
    assert (m @ other).data == qqi_oracle._matmul_qqi(m, other).data
    v = [gaussian_scalar(rnd, 64, 2**62, nonreal) for _ in range(m.cols)]
    assert mat_vec(m, v) == qqi_oracle._mat_vec_qqi(m, v)


@SETTINGS
@given(matrices())
def test_rank_and_rref_match_qqi(case):
    m, _ = case
    assert rank(m) == qqi_oracle._rank_qqi(m)
    red, pivots = rref(m)
    red_o, pivots_o = qqi_oracle._rref_qqi(m)
    assert pivots == pivots_o
    assert red.data == red_o.data
    assert [repr(x) for r in red.data for x in r] == \
        [repr(x) for r in red_o.data for x in r]


@SETTINGS
@given(matrices())
def test_kernel_and_solve_match_qqi(case):
    m, seed = case
    rnd = random.Random(seed + 2)
    nonreal = not is_real(m) or rnd.random() < 0.3
    x = [gaussian_scalar(rnd, 12, 16, nonreal) for _ in range(m.cols)]
    consistent_b = mat_vec(m, x)
    other_b = [gaussian_scalar(rnd, 12, 16, nonreal) for _ in range(m.rows)]
    got = (kernel(m).basis.data,
           solve_unique(m, consistent_b), solve_unique(m, other_b))
    with rref_over_qqi():
        want = (kernel(m).basis.data,
                solve_unique(m, consistent_b), solve_unique(m, other_b))
    assert got == want
    assert got[1][2]  # a right-hand side in the image is consistent


@SETTINGS
@given(matrices(max_dim=16, square=True))
def test_det_and_inverse_match_qqi(case):
    m, _ = case
    assert m.det() == qqi_oracle._det_qqi(m)
    if m.det():
        assert m.inverse().data == qqi_oracle._inverse_qqi(m).data
        assert (m @ m.inverse()).data == Mat.identity(m.rows).data
    else:
        with pytest.raises(LinAlgError):
            m.inverse()
        with pytest.raises(LinAlgError):
            qqi_oracle._inverse_qqi(m)


def test_large_numerators_at_full_size():
    rnd = random.Random(7)
    m = random_mat(rnd, 28, 28, 64, 16, 20, 0.0)
    assert max(abs(x.re.numerator) for r in m.data for x in r) > 2**60
    assert rank(m) == qqi_oracle._rank_qqi(m) == 20
    assert rref(m)[0].data == qqi_oracle._rref_qqi(m)[0].data
    full = random_mat(rnd, 14, 14, 64, 16, 14, 0.0)
    assert full.inverse().data == qqi_oracle._inverse_qqi(full).data


# ---------------------------------------------------------------------------
# the elimination on the inputs the quotient suites hand it


def assert_elimination_matches_qqi(m: Mat) -> None:
    """rank and rref of ``m`` against the oracle, and det and inverse when
    ``m`` is square."""
    assert rank(m) == qqi_oracle._rank_qqi(m)
    red, pivots = rref(m)
    red_o, pivots_o = qqi_oracle._rref_qqi(m)
    assert pivots == pivots_o and red.data == red_o.data
    if m.rows == m.cols:
        det = m.det()
        assert det == qqi_oracle._det_qqi(m)
        if det:
            assert fresh(m).inverse().data == qqi_oracle._inverse_qqi(m).data


def campaign_elimination_inputs() -> list[Mat]:
    """Every distinct row set that gs-theorem1, gs-theorem2, bivector and
    regact hand to ``_rref_int`` on sl3 and gl3, at 3 points of seed 23, as
    the matrix of those integer rows."""
    seen = {}
    real = linalg._rref_int

    def recording(rows):
        if rows and rows[0]:
            key = tuple(map(tuple, rows))
            if key not in seen:
                seen[key] = Mat([[QQi(a.re, a.im) if type(a) is ZZi else a for a in r]
                                 for r in rows])
        return real(rows)

    with mock.patch.object(linalg, "_rref_int", recording):
        for suite in ("gs-theorem1", "gs-theorem2", "bivector", "regact"):
            for group in ("sl3", "gl3"):
                report = run_suite(CampaignConfig(suite=suite, group=group,
                                                  samples=3, seed=23))
                assert report.all_passed, (suite, group)
    return list(seen.values())


def test_elimination_on_campaign_inputs_matches_qqi():
    inputs = campaign_elimination_inputs()
    # more than a hundred distinct inputs, among them the square ones of
    # determinants and the n x 2n ones of inverses
    assert len(inputs) > 100
    assert any(m.rows == m.cols for m in inputs)
    assert any(m.cols == 2 * m.rows > 16 for m in inputs)
    for m in inputs:
        assert_elimination_matches_qqi(m)


I = QQi(0, 1)


@pytest.mark.parametrize("rows", [
    # row 1 has no entry in the first three pivot columns, so it skips three
    # steps and then, swapped down, becomes the last pivot row; row 4 skips
    # two steps and is then eliminated against a pivot at a higher level
    [[2, 1, 3, 1], [0, 0, 0, 5], [0, 3, 1, 2], [0, 0, 4, 1], [0, 0, 1, 1]],
    [[2, 1, 3, 1], [0, 0, 0, 5], [0, 3, 1, 2], [0, 0, 4, 1]],
    # a stale row that becomes a pivot row with an earlier row left behind
    [[3, 0, 1, 0, 2], [0, 0, 2, 1, 0], [0, 5, 0, 0, 1], [0, 0, 0, 0, 7],
     [1, 0, 0, 3, 0]],
    # rows 1 and 2 skip the first step; row 2 is then eliminated at level 1
    # against a pivot at level 2, and is the last pivot row
    [[2, 1, 0], [0, 3, 1], [0, 1, 2]],
    # row 3 skips the first step, which writes row 1, and the two swap at
    # the second: their levels swap with them
    [[3, 0, 1, 0], [2, 0, -1, -1], [1, 0, 0, 0], [0, 2, 0, 0]],
    # negative pivots
    [[-3, 1, 2], [0, -5, 1], [1, 0, -7]],
    [[-2, 4, 0, 1], [0, 0, -3, 2], [0, -1, 5, 0], [6, 0, 0, -4]],
    [[-1, 2, -3], [2, -4, 6], [0, -7, 1]],
    # Gaussian pivots, and a Gaussian row that skips a step
    [[1 + I, 2, 0], [0, 0, 3], [0, 2 * I, 1]],
    [[2 * I, 1, 0, 1], [0, 0, 1 - I, 0], [0, 3 + I, 1, I], [1, 0, 0, 2]],
    [[I, 1], [1, -I]],
], ids=["skips-then-pivots", "skips-then-pivots-square", "stale-pivot-row",
        "eliminated-below-level", "swapped-levels", "negative-3x3",
        "negative-4x4", "negative-rank-2", "gaussian-3x3", "gaussian-4x4",
        "gaussian-singular"])
def test_elimination_hand_built_cases_match_qqi(rows):
    assert_elimination_matches_qqi(Mat(rows))


def dot_product_rows(a, b, den):
    """Integer rows of a @ (b / den) with every entry a dot product: the
    route of every row before the sparse rows took row combinations."""
    cols = list(zip(*b))
    return [linalg._canon([sum(x * y for x, y in zip(r, c)) for c in cols], d * den)
            for r, d in a]


@st.composite
def sparse_products(draw):
    """Left integer rows from all zeros to no zeros, with unit, negative
    and large entries and their own denominators; a right operand over one
    denominator, as :meth:`Mat.int_entries` gives it."""
    inner, width = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    entry = st.one_of(st.sampled_from((1, -1, 2, -3)),
                      st.integers(-2**70, 2**70).filter(bool))
    a = []
    for _ in range(draw(st.integers(1, 8))):
        zeros = draw(st.integers(0, inner))
        row = [0] * zeros + [draw(entry) for _ in range(inner - zeros)]
        den = draw(st.sampled_from((1, 2, 6, 35, 2**61 - 1)))
        a.append(linalg._canon(draw(st.permutations(row)), den))
    b = [[draw(st.integers(-2**64, 2**64)) for _ in range(width)]
         for _ in range(inner)]
    return a, b, draw(st.sampled_from((1, 4, 9, 2**40)))


@settings(max_examples=200, deadline=None)
@given(sparse_products())
def test_sparse_rows_match_the_dot_products(case):
    a, b, den = case
    with mock.patch.object(linalg, "_row_combination",
                           wraps=linalg._row_combination) as spy:
        got = linalg._matmul_ints(a, b, den)
    assert got == dot_product_rows(a, b, den)
    # the rows at least half zeros, and only those, take the combination
    assert spy.call_count == sum(2 * r.count(0) >= len(r) for r, _ in a)
    left = Mat._from_ints(a, len(b))
    right = Mat([[QQi(Fraction(x, den)) for x in r] for r in b])
    assert (left @ right).data == qqi_oracle._matmul_qqi(left, right).data


def test_product_with_many_distinct_denominators():
    # entries are sums of rationals with unrelated 12-bit denominators, so
    # the row denominators are long; the paths must still agree
    rnd = random.Random(11)
    left = [[rational(rnd, 12, 4096) for _ in range(6)] for _ in range(12)]
    right = [[rational(rnd, 12, 4096) for _ in range(12)] for _ in range(6)]
    m = Mat([[QQi(sum((a * b for a, b in zip(r, c)), Fraction(0)))
              for c in zip(*right)] for r in left])
    assert rank(m) == qqi_oracle._rank_qqi(m) == 6
    red, pivots = rref(m)
    red_o, pivots_o = qqi_oracle._rref_qqi(m)
    assert pivots == pivots_o and red.data == red_o.data
    assert m.det() == qqi_oracle._det_qqi(m) == QQi(0)
    with rref_over_qqi():
        want = kernel(m).basis.data
    assert kernel(m).basis.data == want


def test_int_entries_are_kept_and_never_mutated():
    # the right operand's rows over one denominator are derived once, equal
    # a fresh rescaling of the integer rows, and survive every consumer
    rng = SplitMix64(111)
    for group in sorted(GROUPS):
        ctx = context(group)
        g = random_point(ctx, "G", rng)
        v = Mat([[oracles.rational(rng, 7) for _ in range(3)] for _ in range(ctx.dim_g)])
        for m in (g, g.inverse(), v):
            kept = m.int_entries()
            den = lcm(*(d for _, d in m._ints))
            assert kept == ([[a * (den // d) for a in r] for r, d in m._ints], den)
            snapshot = copy.deepcopy(kept)
            # a right operand twice, the closed forms, and the entries built
            mt, twin = m.transpose(), Mat(m.data)
            assert mt @ m @ mt @ m == twin.transpose() @ twin @ twin.transpose() @ twin
            if m is v:
                ctx.brackets(v, [(0, 1), (2, 0)])
            else:
                ctx.adjoint(g), ctx.gram_adjoint(g.inverse())
                ctx.commutator_matrix(m)
            assert m.int_entries() is kept and kept == snapshot
    # a non-real matrix has the same form, with a Gaussian numerator
    assert Mat([[QQi(0, 1)]]).int_entries() == ([[ZZi(0, 1)]], 1)


def test_row_denominator_is_the_lcm():
    row = [QQi(Fraction(1, 4)), QQi(Fraction(-5, 6)), QQi(0), QQi(3)]
    assert linalg._gaussian_row(row) == ([3, -10, 0, 36], 12)
    # over the lcm of every real and imaginary part's denominator
    row = [QQi(Fraction(1, 4), Fraction(1, 6)), QQi(0, 1), QQi(Fraction(-5, 6))]
    assert linalg._gaussian_row(row) == ([ZZi(3, 2), ZZi(0, 12), -10], 12)


def assert_canonical(m: Mat) -> None:
    """Every row of ``m`` is canonical: a positive integer denominator
    prime to every real and imaginary part, and no real Gaussian numerator."""
    for r, d in m._ints:
        assert type(d) is int and d > 0
        assert all(type(a) is int or (type(a) is ZZi and a.im) for a in r)
        parts = [p for a in r for p in ((a,) if type(a) is int else (a.re, a.im))]
        assert gcd(d, *parts) == 1


def test_gaussian_entry_runs_on_the_integer_rows():
    i = QQi(0, 1)
    # second row is i times the first: rank 1 over the Gaussian rationals
    m = Mat([[QQi(1), i, QQi(2), QQi(0)],
             [i, QQi(-1), 2 * i, QQi(0)],
             [QQi(0), QQi(0), QQi(1), QQi(3)]])
    assert m._ints[1] == ([ZZi(0, 1), -1, ZZi(0, 2), 0], 1)
    with mock.patch.object(linalg, "_rref_int", wraps=linalg._rref_int) as spy:
        red, pivots = rref(m)
    assert spy.called
    assert_canonical(red)
    assert pivots == [0, 2]
    assert red.data[0] == (QQi(1), i, QQi(0), QQi(-6))
    assert rank(m) == 2
    assert kernel(m).dim == 2
    sq = Mat([[QQi(2), i, QQi(0), QQi(0)],
              [QQi(0), QQi(1), QQi(0), QQi(1)],
              [QQi(1), QQi(0), QQi(3), QQi(0)],
              [QQi(0), QQi(0), QQi(0), QQi(1)]])
    assert (sq @ sq.inverse()).data == Mat.identity(4).data
    assert sq.det() == QQi(6)
    assert_canonical(sq.inverse())


def fresh(m: Mat) -> Mat:
    """``m`` rebuilt from its entries into integer rows, with no derived
    value (rescaled rows, inverse) kept yet."""
    return Mat._from_ints([linalg._gaussian_row(r) for r in m.data], m.cols)


def assert_same(got: Mat, want_rows) -> None:
    """``got`` has exactly the entries ``want_rows``, and equals their Mat."""
    want = Mat(want_rows)
    assert got.shape == want.shape
    assert got.data == want.data
    assert [repr(x) for r in got.data for x in r] == \
        [repr(x) for r in want.data for x in r]
    assert got == want and want == got
    assert hash(got) == hash(want)


def entrywise(op, *mats):
    return [[op(*xs) for xs in zip(*rows)] for rows in zip(*(m.data for m in mats))]


@SETTINGS
@given(matrices(max_dim=12))
def test_stored_form_matches_qqi_entries(case):
    m, seed = case
    rnd = random.Random(seed + 4)
    nonreal = not is_real(m) or rnd.random() < 0.3

    def another(rows, cols):
        return random_mat(rnd, rows, cols, rnd.choice((3, 64)),
                          rnd.choice((1, 16, 2**62)), min(rows, cols), 0.1,
                          nonreal and rnd.random() < 0.5)

    other = another(m.rows, m.cols)
    wide = another(m.rows, rnd.randint(1, 6))
    tall = another(rnd.randint(1, 6), m.cols)
    right = another(m.cols, rnd.randint(1, 6))
    s = gaussian_scalar(rnd, 64, 2**62, nonreal) if rnd.random() < 0.8 else QQi(0)
    start = rnd.randrange(m.rows)
    stop = rnd.randint(start + 1, m.rows)
    cstart = rnd.randrange(m.cols)
    cstop = rnd.randint(cstart + 1, m.cols)
    order = [rnd.randrange(m.rows) for _ in range(rnd.randint(1, 6))]
    cut = [r[cstart:cstop] for r in m.data]
    a, b, w, t, rt = (fresh(x) for x in (m, other, wide, tall, right))
    # each integer operation against the same one over the entries
    ops = [
        (lambda: a + b, entrywise(lambda x, y: x + y, m, other)),
        (lambda: a - b, entrywise(lambda x, y: x - y, m, other)),
        (lambda: -a, entrywise(lambda x: -x, m)),
        (lambda: a.scale(s), entrywise(lambda x: x * s, m)),
        (lambda: a.transpose(), list(zip(*m.data))),
        (lambda: a.transpose().transpose(), m.data),
        (lambda: a.hstack(w), [x + y for x, y in zip(m.data, wide.data)]),
        (lambda: a.vstack(t), m.data + tall.data),
        (lambda: a.row_block(start, stop), m.data[start:stop]),
        (lambda: a.select_rows(order), [m.data[i] for i in order]),
        (lambda: a.col_block(cstart, cstop), cut),
        (lambda: a.transpose().transpose().col_block(cstart, cstop).transpose(),
         list(zip(*cut))),
        (lambda: a @ rt, qqi_oracle._matmul_qqi(m, right).data),
        (lambda: a.transpose() @ b,
         qqi_oracle._matmul_qqi(Mat(list(zip(*m.data))), other).data),
        (lambda: rref(a)[0], qqi_oracle._rref_qqi(m)[0].data),
    ]
    for op, want in ops:
        with builds_no_qqi():
            got = op()
        assert_same(got, want)
    assert rref(fresh(m))[1] == qqi_oracle._rref_qqi(m)[1]

    assert fresh(m).is_zero() == all(not x for r in m.data for x in r)
    assert (fresh(m) - fresh(m)).is_zero()
    assert fresh(m) == m and m == fresh(m) and hash(fresh(m)) == hash(m)
    assert (fresh(m) == fresh(other)) == (m.data == other.data)
    with pytest.raises(LinAlgError):
        fresh(m).row_block(stop, start)
    with pytest.raises(LinAlgError):
        fresh(m).col_block(cstop, cstart)
    with pytest.raises(LinAlgError):
        fresh(m).select_rows([])


@SETTINGS
@given(matrices(max_dim=12, square=True))
def test_stored_inverse_matches_qqi(case):
    m, _ = case
    if not qqi_oracle._det_qqi(m):
        with pytest.raises(LinAlgError):
            fresh(m).inverse()
        return
    stored = fresh(m)
    with builds_no_qqi():
        inv = stored.inverse()
    assert_same(inv, qqi_oracle._inverse_qqi(m).data)


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_small_inverses_stay_in_integer_form(name):
    """Every exact inverse, 1x1 to 3x3 included, runs the integer kernel."""
    ctx = context(name)
    rng = SplitMix64(41)
    g, h, b, t = (random_point(ctx, kind, rng)
                  for kind in ("G", "G", "B", "T-regular"))
    for m in (g, b, t, g @ h, g @ b, b @ t, t @ g @ b):
        stored = fresh(m)
        with builds_no_qqi():
            inv = stored.inverse()
        assert all(type(a) is int for r, _ in inv._ints for a in r)
        assert_same(inv, qqi_oracle._inverse_qqi(m).data)
        assert m @ inv == Mat.identity(ctx.n)
    gaussian = Mat([[QQi(1, 1), QQi(2)], [QQi(0, -1), QQi(3, 2)]])
    inv = gaussian.inverse()
    assert_canonical(inv)
    assert_same(inv, qqi_oracle._inverse_qqi(gaussian).data)
    for singular in ([[1, 2], [2, 4]], [[1, 2, 3], [4, 5, 6], [5, 7, 9]]):
        with pytest.raises(LinAlgError):
            fresh(Mat(singular)).inverse()


def test_non_real_matrix_keeps_gaussian_integer_rows():
    rnd = random.Random(13)
    i = QQi(0, 1)

    def gaussian(rows, cols):
        return Mat([[QQi(rational(rnd, 12, 16), rational(rnd, 3, 4))
                     for _ in range(cols)] for _ in range(rows)])

    g, h, flat = gaussian(5, 5), gaussian(5, 5), gaussian(3, 5)
    real = random_mat(rnd, 5, 5, 12, 16, 5, 0.0)
    results = {
        "+": (g + real, entrywise(lambda x, y: x + y, g, real)),
        "-": (real - g, entrywise(lambda x, y: x - y, real, g)),
        "neg": (-g, entrywise(lambda x: -x, g)),
        "scale": (real.scale(i), entrywise(lambda x: x * i, real)),
        "transpose": (g.transpose(), list(zip(*g.data))),
        "hstack": (real.hstack(g), [a + b for a, b in zip(real.data, g.data)]),
        "vstack": (g.vstack(real), g.data + real.data),
        "@": (g @ h, qqi_oracle._matmul_qqi(g, h).data),
        "inverse": (g.inverse(), qqi_oracle._inverse_qqi(g).data),
        "rref": (rref(flat)[0], qqi_oracle._rref_qqi(flat)[0].data),
    }
    for name, (got, want) in results.items():
        assert any(type(a) is ZZi for r, _ in got._ints for a in r), name
        assert_canonical(got)
        assert_same(got, want)
    block = g.row_block(1, 3)
    assert block.data == g.data[1:3] and block == Mat(g.data[1:3])
    rows = g.select_rows([4, 0, 4])
    assert_canonical(rows)
    assert_same(rows, [g.data[4], g.data[0], g.data[4]])
    assert g != real and real != g
    assert not g.is_zero() and (g - g).is_zero()


# ---------------------------------------------------------------------------
# subspace containment: the pivot-row product against the rank route


def rank_contains(a: Subspace, mat: Mat) -> bool:
    """The route the product replaced: the columns of ``mat`` lie in the span
    of ``a`` when stacking them onto its basis keeps the rank."""
    return rank(a.basis.hstack(mat)) == a.dim


def rank_equals(a: Subspace, b: Subspace) -> bool:
    return a.dim == b.dim and rank_contains(a, b.basis) and rank_contains(b, a.basis)


def gaussian_mat(rnd, rows, cols) -> Mat:
    """A rows x cols matrix with non-real entries, of rank at most 2."""
    left = [[QQi(rational(rnd, 3, 4), rational(rnd, 3, 4)) for _ in range(2)]
            for _ in range(rows)]
    right = [[QQi(rational(rnd, 3, 4)) for _ in range(cols)] for _ in range(2)]
    return Mat(left) @ Mat(right)


def spanning_sets(rnd, span: Mat, nonreal: bool) -> list[Mat]:
    """Spanning sets to test against the span of ``span``'s columns:
    dependent, non-canonical combinations of its columns (some of them
    zero), those with one more vector that may leave the span, unrelated
    matrices, and the zero vector."""
    amb, cols = span.rows, span.cols

    def other(k):
        return gaussian_mat(rnd, amb, k) if nonreal and rnd.random() < 0.5 else \
            random_mat(rnd, amb, k, 12, 16, min(amb, k), 0.1)

    out = []
    for k in (rnd.randint(1, 3), cols + 2):
        coeffs = Mat([[QQi(rnd.randint(-3, 3)) for _ in range(k)] for _ in range(cols)])
        inside = span @ coeffs
        out += [inside, inside.hstack(other(1)), other(k)]
    out.append(Mat.zeros(amb, 1))
    return out


@settings(SETTINGS, max_examples=60)
@given(matrices(max_dim=6), st.booleans())
def test_containment_product_matches_the_rank_route(case, nonreal):
    m, seed = case
    rnd = random.Random(seed + 5)
    span = m + gaussian_mat(rnd, m.rows, m.cols).scale(QQi(0, 1)) if nonreal else m
    a = Subspace(span)
    # the pivot rows recognised on a canonical basis are the rref's
    lazy = Subspace(a.basis)
    assert lazy._pivots == a._pivots
    amb = a.ambient_dim
    zero = Subspace.zero(amb)
    for s in (a, zero):
        for mat in spanning_sets(rnd, span, nonreal):
            b = Subspace(mat)
            assert lazy.contains(b) == a.contains(b)
            assert s.contains_columns(mat) == rank_contains(s, mat)
            assert s.contains(b) == rank_contains(s, b.basis)
            assert b.contains(s) == rank_contains(b, s.basis)
            assert s.equals(b) == b.equals(s) == rank_equals(s, b)
            for j in range(mat.cols):
                col = mat.col(j)
                assert s.contains_vector(col) == rank_contains(
                    s, Mat.from_columns([col], amb))
        assert s.contains(zero) and s.equals(s)
        assert s.contains(a) == (s is not zero or a.dim == 0)
    # a containment across ambient dimensions is an error, not a verdict
    wider = Subspace(Mat.identity(amb + 1))
    for test in (lambda: a.contains(wider), lambda: wider.contains(a),
                 lambda: a.contains_vector([QQi(0)] * (amb + 1)),
                 lambda: a.contains_columns(Mat.zeros(amb + 1, 1)),
                 lambda: Subspace.zero(amb + 1).equals(zero)):
        with pytest.raises(LinAlgError):
            test()


def test_containment_runs_no_elimination(monkeypatch):
    rnd = random.Random(17)
    span = random_mat(rnd, 8, 5, 12, 16, 4, 0.1)
    nonreal = span + gaussian_mat(rnd, 8, 5).scale(QQi(0, 1))
    subs = [Subspace(span), Subspace(nonreal),
            Subspace.zero(8), Subspace(Mat.identity(8))]
    subs.append(Subspace(subs[0].basis))  # recognised as canonical

    def refuse(*args):
        raise AssertionError("containment ran an elimination")

    for name in ("rank", "rref", "_rref_int"):
        monkeypatch.setattr(linalg, name, refuse)
    verdicts = []
    for a in subs:
        for b in subs:
            verdicts += [a.contains(b), a.equals(b)]
        verdicts += [a.contains_vector(span.col(0)), a.contains_vector(nonreal.col(1))]
    assert any(verdicts) and not all(verdicts)


# ---------------------------------------------------------------------------
# the canonical basis recognised without elimination, against the rref route


def with_entry(m: Mat, i: int, j: int, x) -> Mat:
    rows = [list(r) for r in m.data]
    rows[i][j] = QQi(x)
    return Mat(rows)


def canonical_inputs(m: Mat) -> list[Mat]:
    """Bases that already are canonical: the rref rows of the span of
    ``m``'s columns transposed back, [I; W] and [0; I] with W a block of
    ``m``, the zero subspace and the full space."""
    amb = m.rows
    red, pivots = rref(m.transpose())
    out = [Mat.zeros(amb, 0), Mat.identity(amb)]
    if pivots:
        out.append(red.row_block(0, len(pivots)).transpose())
    k = min(m.cols, amb)
    if k < amb:
        out += [Mat.identity(k).vstack(m.row_block(0, amb - k).col_block(0, k)),
                Mat.zeros(amb - k, k).vstack(Mat.identity(k))]
    return out


def near_misses(c: Mat) -> list[Mat]:
    """Bases one step from the canonical basis ``c``, whose transposes break
    the reduced row echelon form: a leading entry of 2, or of 1/2 (a unit
    numerator over a row denominator), a non-zero above a later pivot
    (column 0 non-zero at the last pivot row), pivots out of order, a
    non-zero elsewhere in a pivot row (the last column non-zero at the
    first pivot row), and a zero column."""
    if not c.cols:
        return []
    pivots = linalg._echelon_pivots(c)
    last = c.cols - 1
    out = [with_entry(c, pivots[0], 0, 2), with_entry(c, pivots[0], 0, Fraction(1, 2)),
           c.hstack(Mat.zeros(c.rows, 1))]
    if last:
        out += [with_entry(c, pivots[last], 0, 1),
                c.select_cols([1, 0, *range(2, c.cols)]),
                with_entry(c, pivots[0], last, 1)]
    return out


@settings(SETTINGS, max_examples=60)
@given(matrices(max_dim=7), st.booleans())
def test_a_canonical_basis_is_recognised_as_the_rref_would_store_it(case, nonreal):
    m, seed = case
    rnd = random.Random(seed + 7)
    if nonreal:
        m = m + gaussian_mat(rnd, m.rows, m.cols).scale(QQi(0, 1))
    amb = m.rows
    canonical = canonical_inputs(m)
    misses = [x for c in canonical for x in near_misses(c)]
    for x in canonical:
        assert linalg._echelon_pivots(x) == linalg._canonical_basis(x)[1]
    for x in misses:
        assert linalg._echelon_pivots(x) is None
    for x in [m, *canonical, *misses]:
        s = Subspace(x)
        basis, pivots = linalg._canonical_basis(x)
        assert s.basis == basis and s._pivots == pivots
    # containment against a recognised basis is the rank route's; a near
    # miss is stored as the rref stores it, as checked above
    for x in [m, *canonical]:
        s = Subspace(x)
        for mat in spanning_sets(rnd, m, nonreal) + [x] * bool(x.cols):
            assert s.contains_columns(mat) == rank_contains(s, mat)
