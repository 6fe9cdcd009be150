import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from symgraph.algebraic import (
    AlgebraicValue,
    RingMismatchError,
    parse_value,
    q_half_power,
    ring_of,
    sqrt_q,
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=60)


def values(q):
    return st.builds(lambda a, b: AlgebraicValue(a, b, q), rationals, rationals)


def test_conjugate_product():
    x = AlgebraicValue(1, 1, 6)
    y = AlgebraicValue(1, -1, 6)
    assert x * y == AlgebraicValue(-5, 0, 6)


def test_perfect_square_folds():
    assert AlgebraicValue(0, 1, 4) == AlgebraicValue(2, 0, 4)
    assert AlgebraicValue(0, 1, 4).b == 0


def test_componentwise_addition():
    lhs = AlgebraicValue(Fraction(1, 2), 0, 2) + AlgebraicValue(Fraction(1, 2), 1, 2)
    assert lhs == AlgebraicValue(1, 1, 2)


def test_half_powers():
    assert q_half_power(6, 2) == AlgebraicValue(6, 0, 6)
    assert q_half_power(6, -1) == AlgebraicValue(0, Fraction(1, 6), 6)
    assert q_half_power(2, 3) == AlgebraicValue(0, 2, 2)


def test_float_conversion():
    assert float(AlgebraicValue(1, 0, 2)) == 1.0
    assert float(AlgebraicValue(0, 1, 2)) == 1.4142135623730951
    # independent root: integer square root of 6 * 10^40
    root6 = math.isqrt(6 * 10**40) / 10**20
    got = float(AlgebraicValue(Fraction(-1, 2), Fraction(1, 3), 6))
    assert got == pytest.approx(-0.5 + root6 / 3, rel=1e-15)


def test_mismatched_rings_raise():
    with pytest.raises(RingMismatchError):
        AlgebraicValue(1, 1, 2) + AlgebraicValue(1, 1, 3)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        AlgebraicValue(1, 0, 6) / AlgebraicValue(0, 0, 6)


def test_division_by_a_rational_matches_the_ring_inverse():
    x = AlgebraicValue(Fraction(-3, 4), Fraction(5, 7), 6)
    for d in (3, -6, Fraction(2, 9)):
        assert x / d == x / AlgebraicValue(d, 0, 6) == AlgebraicValue(x.a / d, x.b / d, 6)
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            x / zero


@given(values(6), values(6))
def test_float_respects_products(x, y):
    lhs = float(x * y)
    rhs = float(x) * float(y)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@given(st.integers(min_value=-64, max_value=64), st.sampled_from([2, 3, 4, 6, 9]))
def test_half_power_inverse(m, q):
    assert q_half_power(q, m) * q_half_power(q, -m) == 1


@given(values(6))
def test_canonicalization_idempotent(x):
    assert AlgebraicValue(x.a, x.b, x.q) == x


@given(values(4))
def test_square_ring_is_rational(x):
    assert x.b == 0


@given(values(6))
def test_division_roundtrip(x):
    if not x.is_zero():
        y = AlgebraicValue(Fraction(3, 7), Fraction(-2, 5), 6)
        assert (y / x) * x == y


@given(values(6))
@example(AlgebraicValue(0, Fraction(1, 10), 6))
def test_text_roundtrip(x):
    assert parse_value(str(x), 6) == x


def test_parse_plain_forms():
    assert parse_value("3", 6) == AlgebraicValue(3, 0, 6)
    assert parse_value("-1/2", 6) == AlgebraicValue(Fraction(-1, 2), 0, 6)
    assert parse_value("sqrt(6)", 6) == sqrt_q(6)
    assert parse_value("1/2+1/3*sqrt(6)", 6) == AlgebraicValue(Fraction(1, 2), Fraction(1, 3), 6)
    assert parse_value("12*sqrt(6)", 6) == AlgebraicValue(0, 12, 6)
    assert parse_value("1/10*sqrt(6)", 6) == AlgebraicValue(0, Fraction(1, 10), 6)
    for text in ("nonsense", "2/3sqrt(6)", "1/0", "1/0*sqrt(6)"):
        with pytest.raises(ValueError):
            parse_value(text, 6)
    with pytest.raises(RingMismatchError):
        parse_value("sqrt(5)", 6)


@pytest.mark.parametrize("k, r", [(3, 4), (2, 3), (3, 3), (2, 5), (2, 2)])
def test_decode_matches_the_public_constructor(k, r):
    # decode skips the constructor unless q is a perfect square, where the
    # sqrt(q) part must fold: q = 4 at (3, 3) and (2, 5), q = 1 at (2, 2)
    q = (k - 1) * (r - 1)
    ring = ring_of(q)
    values = [AlgebraicValue(a, b, q) for a, b in [
        (0, 0), (3, 0), (Fraction(-5, 6), 0), (0, 1), (0, Fraction(2, 7)),
        (Fraction(1, 2), Fraction(-3, 14)), (Fraction(-4, 9), Fraction(5, 3))]]
    scale, [parts] = ring.encode([values])
    for m in range(5):
        decoded = ring.decode(parts, scale, m)
        for got, value in zip(decoded, values):
            want = value / q_half_power(q, m)
            assert got == want and hash(got) == hash(want)
            assert str(got) == str(want) and repr(got) == repr(want)
            assert type(got.a) is Fraction and type(got.b) is Fraction
