"""Exactness of the scalar backends and the dual-number product rule."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qpslab.scalars import Dual, QQi

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
    assert QQi(Fraction(1, 2), Fraction(-3, 4)).to_complex() == 0.5 - 0.75j


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
