import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from symgraph import algebraic
from symgraph.algebraic import (
    AlgebraicValue,
    RingMismatchError,
    parse_value,
    q_half_power,
    ring_of,
    sqrt_q,
    _root_approx,
)
from symgraph.spectral import VertexFun
from symgraph.transforms import EvenSeq, RadialSeq, abel
from symgraph.words import GraphParams

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


@pytest.mark.parametrize("k, r", [(3, 4), (3, 3), (2, 2)])  # q = 6, 4 (a square), 1
@pytest.mark.parametrize("exact", [True, False])
def test_decode_is_the_decoder_mapped_over_the_parts(k, r, exact):
    # one formula: every decoded value is the one-value decoder's, with the
    # same type and repr, at odd and even m, on real and on complex planes
    q = (k - 1) * (r - 1)
    ring = ring_of(q, exact)
    real = [0, 3, Fraction(-5, 6), Fraction(1, 2) + Fraction(-3, 14) * sqrt_q(q)]
    columns = [[ring.coerce(v) for v in real]]
    if not exact:
        columns.append([complex(float(v), -float(v) / 7) for v in real])
    for column in columns:
        scale, [parts] = ring.encode([column])
        for m in range(5):
            one = ring.decoder(scale, m)
            mapped = [one(*value) for value in zip(*parts)]
            decoded = ring.decode(parts, scale, m)
            assert [type(v) for v in decoded] == [type(v) for v in mapped]
            assert decoded == mapped and [repr(v) for v in decoded] == [repr(v) for v in mapped]
            if not exact:  # each plane rounds the exact value once
                exact_one = ring_of(q).decoder(scale, m)
                want = [float(exact_one(a, b)) for a, b in zip(*parts[:2])]
                assert [repr(v.real if isinstance(v, complex) else v) for v in decoded] == \
                    [repr(v) for v in want]


# -- oracle: every operation against a reference built from two Fractions -----------

RING_PARAMETERS = [1, 2, 3, 4, 6, 9, 12]  # 1, 4 and 9 are perfect squares
wide_rationals = st.one_of(
    rationals,
    st.fractions(max_denominator=10**12),
    st.integers(min_value=-(10**30), max_value=10**30).map(Fraction),
)


def reference(a: Fraction, b: Fraction, q: int) -> tuple:
    """The canonical rational parts of a + b*sqrt(q): the sqrt(q) part folds
    into a when q is a perfect square."""
    root = math.isqrt(q)
    if root * root == q:
        return a + b * root, Fraction(0)
    return a, b


def ref_mul(x: tuple, y: tuple, q: int) -> tuple:
    return reference(x[0] * y[0] + q * x[1] * y[1], x[0] * y[1] + x[1] * y[0], q)


def ref_inverse(x: tuple, q: int) -> tuple:
    norm = x[0] * x[0] - q * x[1] * x[1]
    return reference(x[0] / norm, -x[1] / norm, q)


def ref_pow(x: tuple, e: int, q: int) -> tuple:
    out = (Fraction(1), Fraction(0))
    for _ in range(e):
        out = ref_mul(out, x, q)
    return out


def assert_canonical(value: AlgebraicValue, want: tuple, q: int) -> None:
    A, B, D = value.triple
    assert value.q == q and D > 0 and math.gcd(A, B, D) == 1
    if math.isqrt(q) ** 2 == q:
        assert B == 0
    assert (value.a, value.b) == want
    assert type(value.a) is Fraction and type(value.b) is Fraction


@given(st.sampled_from(RING_PARAMETERS), wide_rationals, wide_rationals, wide_rationals,
       wide_rationals, st.integers(min_value=-50, max_value=50), rationals)
@example(6, Fraction(0), Fraction(0), Fraction(1), Fraction(-1), 0, Fraction(0))
@example(4, Fraction(1, 2), Fraction(3, 4), Fraction(-2), Fraction(1), 3, Fraction(-5, 6))
@example(6, Fraction(5), Fraction(2), Fraction(5), Fraction(-2), -7, Fraction(7, 3))
def test_ring_operations_match_the_fraction_reference(q, a, b, c, d, n, f):
    x, y = AlgebraicValue(a, b, q), AlgebraicValue(c, d, q)
    rx, ry = reference(a, b, q), reference(c, d, q)
    assert_canonical(x, rx, q)
    assert_canonical(y, ry, q)

    def ref_add(u, v):
        return reference(u[0] + v[0], u[1] + v[1], q)

    def neg(u):
        return (-u[0], -u[1])

    assert_canonical(x + y, ref_add(rx, ry), q)
    assert_canonical(x - y, ref_add(rx, neg(ry)), q)
    assert_canonical(-x, neg(rx), q)
    assert_canonical(x * y, ref_mul(rx, ry, q), q)
    for r in (n, f):  # int and Fraction operands, on both sides
        rr = (Fraction(r), Fraction(0))
        assert_canonical(x + r, ref_add(rx, rr), q)
        assert_canonical(r + x, ref_add(rx, rr), q)
        assert_canonical(x - r, ref_add(rx, neg(rr)), q)
        assert_canonical(r - x, ref_add(rr, neg(rx)), q)
        assert_canonical(x * r, ref_mul(rx, rr, q), q)
        assert_canonical(r * x, ref_mul(rx, rr, q), q)
        if r:
            assert_canonical(x / r, ref_mul(rx, ref_inverse(rr, q), q), q)
        if not x.is_zero():
            assert_canonical(r / x, ref_mul(rr, ref_inverse(rx, q), q), q)
    if not y.is_zero():
        assert_canonical(x / y, ref_mul(rx, ref_inverse(ry, q), q), q)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    inv = ref_inverse(rx, q)
    assert_canonical(x.inverse(), inv, q)
    for e in range(5):
        assert_canonical(x ** e, ref_pow(rx, e, q), q)
        assert_canonical(x ** -e, ref_pow(inv, e, q), q)


@given(st.sampled_from(RING_PARAMETERS), wide_rationals, wide_rationals)
@example(6, Fraction(3), Fraction(0))
@example(4, Fraction(1, 2), Fraction(1, 4))
def test_equality_and_hash_agree_with_rationals(q, a, b):
    x = AlgebraicValue(a, b, q)
    if x.b == 0:
        # a rational value is equal to, and hashes like, its int and Fraction
        assert x == x.a and x.a == x and hash(x) == hash(x.a)
        assert {x.a: 1}[x] == 1 and {x: 1}[x.a] == 1
        if x.a.denominator == 1:
            assert x == int(x.a) and hash(x) == hash(int(x.a))
        # over another q a rational value is the same number
        other = AlgebraicValue(x.a, 0, q + 1)
        assert x == other and hash(x) == hash(other)
    else:
        assert x != x.a and x != AlgebraicValue(x.a, x.b, q + 1)
    twin = AlgebraicValue(0, 0, q) + x
    assert twin == x and hash(twin) == hash(x)
    assert (x == x + 1) is False


@given(st.sampled_from(RING_PARAMETERS), wide_rationals, wide_rationals)
@example(6, Fraction(5), Fraction(-2))  # 5 - 2*sqrt(6): heavy cancellation
@example(2, Fraction(10**30 + 1), Fraction(-(10**30)))
def test_float_is_the_rounded_root_approximation(q, a, b):
    x = AlgebraicValue(a, b, q)
    want = float(x.a + x.b * _root_approx(q))
    assert float(x).hex() == want.hex()


# -- the float ring's array lane: exact parts, one rounding ----------------------------

FLOAT_EDGES = [0.0, 1.0, -2.5, 1 / 3, 1e308, -1e308, 5e-324, -5e-324, 2.0**-1074 * 3,
               1.7976931348623157e308, 123456.789e-200]


@pytest.mark.parametrize("q", [1, 2, 4, 6])
def test_float_ring_round_trips_bit_for_bit(q):
    ring = ring_of(q, exact=False)
    complexes = [complex(x, 0.0) for x in FLOAT_EDGES] + [complex(1e308, -5e-324),
                                                          complex(0.0, 1 / 3)]
    for values in (FLOAT_EDGES, complexes):
        scale, [parts] = ring.encode([values])
        assert len(parts) == (2 if values is FLOAT_EDGES else 4)
        assert all(type(part) is tuple for part in parts)
        assert all(type(v) is int for part in parts for v in part)
        got = ring.decode(parts, scale, 0)
        assert [type(v) for v in got] == [type(v) for v in values]
        assert [repr(v) for v in got] == [repr(v) for v in values]
    # one imaginary part anywhere gives every column an imaginary plane
    scale, columns = ring.encode([[1.5], [2.0, complex(0.0, -1.0)]])
    assert [len(parts) for parts in columns] == [4, 4]
    assert ring.decode(columns[0], scale, 0) == [complex(1.5, 0.0)]


def test_float_ring_drops_the_sign_of_zero():
    ring = ring_of(6, exact=False)
    scale, [parts] = ring.encode([[-0.0, complex(-0.0, -0.0)]])
    got = ring.decode(parts, scale, 0)
    assert [repr(v) for v in got] == [repr(0j), repr(0j)]
    scale, [parts] = ring.encode([[-0.0]])
    assert repr(ring.decode(parts, scale, 0)[0]) == "0.0"


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan),
                                 complex(math.inf, 0.0)], ids=repr)
def test_float_ring_refuses_a_non_finite_value(bad):
    with pytest.raises(ValueError, match="finite"):
        ring_of(6, exact=False).encode([[1.0, bad]])


@pytest.mark.parametrize("q", [1, 2, 4, 6, 12])
def test_float_ring_times_root_rounds_the_exact_product_once(q):
    ring = ring_of(q, exact=False)
    values = [1.0, -2.5, 1 / 3, 1e300, 5e-324, 0.1]
    scale, [parts] = ring.encode([values])
    got = ring.decode(ring.times_root(parts), scale, 0)
    want = [float(sqrt_q(q) * AlgebraicValue(Fraction(x), 0, q)) for x in values]
    assert [repr(v) for v in got] == [repr(v) for v in want]
    scale, [parts] = ring.encode([[complex(x, -x / 7) for x in values]])
    got = ring.decode(ring.times_root(parts), scale, 0)
    want = [complex(float(sqrt_q(q) * Fraction(x)), float(sqrt_q(q) * Fraction(-x / 7)))
            for x in values]
    assert [repr(v) for v in got] == [repr(v) for v in want]
    # past the float range the one rounding raises, as float() of the value does
    scale, [parts] = ring.encode([[1.7976931348623157e308]])
    if q > 1:
        with pytest.raises(OverflowError):
            ring.decode(ring.times_root(parts), scale, 0)


@pytest.mark.parametrize("exact, columns, planes", [
    (True, [[AlgebraicValue(Fraction(1, 3), Fraction(-2, 7), 6), Fraction(-5, 2), 0], []], 2),
    (False, [[-0.0, 1.5, 1e308], [5e-324]], 2),
    (False, [[-0.0, 2.0], [complex(0.5, -1.0)]], 4),
], ids=["exact", "float", "complex"])
def test_encode_gives_tuples_of_ints(exact, columns, planes):
    ring = ring_of(6, exact)
    scale, encoded = ring.encode(columns)
    assert type(scale) is int and scale > 0
    assert [len(parts) for parts in encoded] == [planes] * len(columns)
    for column, parts in zip(columns, encoded):
        assert all(type(part) is tuple and len(part) == len(column) for part in parts)
        assert all(type(v) is int for part in parts for v in part)
        assert ring.decode(parts, scale, 0) == [ring.coerce(v) for v in column]
    if not exact:  # -0.0 is the int 0 in every plane
        assert [part[0] for part in encoded[0]] == [0] * planes


@pytest.mark.parametrize("q", [1, 4, 6, 12])
def test_times_root_on_int_parts_multiplies_by_the_root(q):
    ring = ring_of(q)
    values = [AlgebraicValue(a, b, q) for a, b in [
        (0, 0), (3, 0), (0, 1), (Fraction(-5, 6), 1), (Fraction(1, 2), Fraction(-3, 14))]]
    scale, [(a, b)] = ring.encode([values])
    for i, value in enumerate(values):
        rooted = [[part] for part in ring.times_root((a[i], b[i]))]
        assert all(type(part[0]) is int for part in rooted)
        got = ring.decode(rooted, scale, 0)[0]
        assert got == sqrt_q(q) * value and repr(got) == repr(sqrt_q(q) * value)
        assert ring.decode(rooted, scale, 1)[0] == value


# -- one shared ring per (q, lane) ----------------------------------------------------


@pytest.mark.parametrize("q", [1, 4, 6])
def test_ring_of_shares_one_ring_per_q_and_lane(q):
    exact = ring_of(q)
    assert ring_of(q, True) is exact and ring_of(q, exact=True) is exact
    inexact = ring_of(q, False)
    assert ring_of(q, exact=False) is inexact and inexact is not exact
    assert ring_of(q + 1) is not exact
    params = GraphParams(3, 4)  # q = 6
    for lane in (True, False):
        ring = ring_of(6, lane)
        assert RadialSeq.of(params, [1, 2], lane).ring is ring
        assert EvenSeq.of(params, [1], exact=lane).ring is ring
        assert VertexFun.of(params, {}, lane).ring is ring


def test_ring_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(algebraic, "_RINGS", {})
    for q in range(1000, 1100):
        ring_of(q, q % 2 == 0)
    assert len(algebraic._RINGS) <= 64
    assert ring_of(1099, False) is ring_of(1099, exact=False)


@pytest.mark.parametrize("exact", [True, False])
def test_a_request_creates_as_many_values_on_a_fresh_cache_as_on_a_repeat(monkeypatch, exact):
    # a shared ring must not make the first request of a process create more
    # values than its repeat, which a traced benchmark counts
    params = GraphParams(3, 4)
    values = [Fraction(1, 3), AlgebraicValue(1, 2, 6), 0, 5] if exact else [0.5, -1.0, 2.0]
    created = []
    init = AlgebraicValue.__init__

    def counted(self, *args, **kwargs):
        created.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(algebraic, "_RINGS", {})
    monkeypatch.setattr(AlgebraicValue, "__init__", counted)
    counts = []
    for _ in range(2):
        created.clear()
        abel(RadialSeq.of(params, values, exact))
        counts.append(len(created))
    assert counts[0] == counts[1]
