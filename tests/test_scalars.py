"""Exactness of the scalar backends, the Gaussian integers of the kernel's
integer rows, and the dual-number product rule."""

from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from qqi_oracle import builds_no_qqi
from oracles import to_complex
from qpslab.diffcalc import Dual
from qpslab.linalg import Mat
from qpslab.scalars import QQi, ZZi, zzi

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)
gaussians = st.builds(QQi, rationals, rationals)


@given(gaussians, gaussians, gaussians)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


reals = st.builds(QQi, rationals)
scalars = st.one_of(reals, gaussians)


def _general(re, im) -> QQi:
    """The two-component result, built with both parts spelled out."""
    return QQi(Fraction(re), Fraction(im))


def _same(got: QQi, want: QQi) -> bool:
    return (got.re, got.im, repr(got)) == (want.re, want.im, repr(want))


@given(scalars, scalars, st.one_of(st.integers(-9, 9), rationals))
def test_real_fast_paths_match_the_general_formula(a, b, c):
    # real and non-real operands; c reaches __radd__/__rsub__ as int/Fraction
    assert _same(a + b, _general(a.re + b.re, a.im + b.im))
    assert _same(a - b, _general(a.re - b.re, a.im - b.im))
    assert _same(-a, _general(-a.re, -a.im))
    assert _same(a * b, _general(a.re * b.re - a.im * b.im,
                                 a.re * b.im + a.im * b.re))
    assert _same(c + a, _general(c + a.re, a.im))
    assert _same(c - a, _general(c - a.re, -a.im))
    assert _same(a - c, _general(a.re - c, a.im))


@given(gaussians)
def test_field_inverse_exact(a):
    if not a:
        with pytest.raises(ZeroDivisionError):
            QQi(1) / a
        return
    assert a * (QQi(1) / a) == QQi(1)
    assert a / a == QQi(1)


def test_exact_arithmetic_has_no_drift():
    # a third computed three different ways stays one third
    third = QQi(Fraction(1, 3))
    acc = QQi(0)
    for _ in range(3000):
        acc = acc + third
    assert acc == QQi(1000)


def test_mixed_coercion():
    assert QQi(1, 2) * 2 == QQi(2, 4)
    assert 1 + QQi(Fraction(1, 2)) == QQi(Fraction(3, 2))
    assert QQi(3) / Fraction(1, 2) == QQi(6)


def test_complex_multiplication():
    i = QQi(0, 1)
    assert i * i == QQi(-1)
    assert (QQi(1, 1) * QQi(1, -1)) == QQi(2)


def test_to_complex():
    assert to_complex(QQi(Fraction(1, 2), Fraction(-3, 4))) == 0.5 - 0.75j


# Gaussian integers, as the integer rows of linalg hold them
small = st.integers(-2**70, 2**70)
gaussian_ints = st.builds(zzi, small, small)


def _parts(x) -> tuple:
    return (x, 0) if type(x) is int else (x.re, x.im)


def _value(x) -> QQi:
    return QQi(*_parts(x))


@given(gaussian_ints, gaussian_ints)
def test_gaussian_integer_arithmetic_matches_qqi(a, b):
    for got, want in ((a + b, _value(a) + _value(b)), (a - b, _value(a) - _value(b)),
                      (a * b, _value(a) * _value(b)), (-a, -_value(a))):
        # a real result is a plain int, never a Gaussian integer with zero im
        assert type(got) is int if not want.im else type(got) is ZZi and got.im
        assert _value(got) == want
    if b:
        # exact division: the product divides back, on either side
        assert (a * b) // b == a
        assert type((a * b) // b) is type(a)


def test_gaussian_integer_results_are_ints_when_real():
    i = ZZi(0, 1)
    assert i * i == -1 and type(i * i) is int
    assert ZZi(3, 4) * ZZi(3, -4) == 25 and type(ZZi(3, 4) * ZZi(3, -4)) is int
    assert ZZi(2, 5) - ZZi(1, 5) == 1 and type(ZZi(2, 5) - ZZi(1, 5)) is int
    assert ZZi(2, 5) + ZZi(1, -5) == 3 and type(ZZi(2, 5) + ZZi(1, -5)) is int
    assert ZZi(2, 5) * 0 == 0 and type(0 * ZZi(2, 5)) is int
    assert 25 // ZZi(3, 4) == ZZi(3, -4)
    assert ZZi(6, 8) // 2 == ZZi(3, 4)
    # a Gaussian integer never equals an int, and is always true
    assert ZZi(1, 1) != 1 and 1 != ZZi(1, 1) and ZZi(0, 1)
    assert zzi(4, 0) == 4 and type(zzi(4, 0)) is int


@pytest.mark.parametrize("a, b", [(ZZi(3, 4), 2), (ZZi(1, 1), ZZi(1, 2)), (5, ZZi(1, 1)),
                                  (ZZi(7, 1), ZZi(0, 3))])
def test_inexact_gaussian_division_raises(a, b):
    with pytest.raises(ArithmeticError):
        a // b


def test_a_gaussian_row_from_entries_equals_the_one_from_arithmetic():
    # the same row built from QQi entries and produced by arithmetic on the
    # integer rows compares equal and hashes equal
    i = QQi(0, 1)
    built = Mat([[QQi(Fraction(1, 2), 1), i, QQi(3)]])
    real, imag = Mat([[1, 0, 6]]).scale(Fraction(1, 2)), Mat([[1, 1, 0]]).scale(i)
    with builds_no_qqi():
        made = real + imag
    assert made._ints == built._ints == [([ZZi(1, 2), ZZi(0, 2), 6], 2)]
    assert made == built and hash(made) == hash(built)
    assert hash(ZZi(1, 2)) == hash(zzi(1, 2)) and ZZi(1, 2) == zzi(1, 2)


duals = st.builds(Dual, gaussians, gaussians)


@given(duals, duals)
def test_dual_product_rule(a, b):
    p = a * b
    assert p.val == a.val * b.val
    assert p.dot == a.val * b.dot + a.dot * b.val


@given(duals, duals)
def test_dual_quotient_rule(a, b):
    if not b.val:
        return
    q = a / b
    assert q * b == a


@given(duals)
def test_dual_epsilon_squared_vanishes(a):
    eps = Dual(QQi(0), QQi(1))
    assert (eps * eps).val == QQi(0)
    assert (eps * eps).dot == QQi(0)
    assert (a * eps).dot == a.val
