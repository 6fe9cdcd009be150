import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import symgraph.boundary
import symgraph.transforms as transforms
from symgraph.algebraic import AlgebraicValue, ExactRing, q_half_power
from symgraph.boundary import (
    BoundaryRay,
    DepthError,
    horocycle_section,
    shell_sums,
    sphere_horocycle_count,
)
from symgraph.transforms import (
    MAX_CLOSED_BITS,
    EvenSeq,
    RadialSeq,
    _abel_via_radon_rays,
    abel,
    abel_inv,
    abel_inv_rearranged,
    abel_via_radon,
    dual_abel,
    dual_abel_inv,
    dual_abel_inv_recurrence,
    dual_abel_via_counts,
    even_norm,
    radon,
    radon_via_counts,
    schwartz_norm,
)
from symgraph.words import GraphParams, ball, ball_size

P34 = GraphParams(3, 4)

small_fracs = st.fractions(min_value=-9, max_value=9, max_denominator=4)
GRID = [GraphParams(k, r) for k, r in itertools.product((2, 3, 4), repeat=2)]


def radial(params, values):
    return RadialSeq.of(params, values)


def test_radon_of_point_mass():
    f = RadialSeq.delta_origin(P34)
    ray = BoundaryRay.alternating(P34, 2)
    assert radon(f, ray, 0) == 1
    assert radon(f, ray, 1) == 0
    assert radon_via_counts(f, -1) == 0


def test_radon_of_unit_sphere():
    f = radial(P34, [0, 1])
    ray = BoundaryRay.alternating(P34, 3)
    assert radon(f, ray, 0) == 1  # the sigma = 1 same-horocycle neighbour
    with pytest.raises(DepthError):
        radon(f, BoundaryRay.alternating(P34, 1), 0)


def test_radon_via_counts_matches_radon():
    # the closed sphere-horocycle counts against the enumeration oracle, on
    # every horocycle that meets the support and one past it on each side
    rng = random.Random(5)
    for params in GRID:
        for N in range(4):
            f = radial(params, [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                                for _ in range(N + 1)])
            for ray in (BoundaryRay.alternating(params, N + 2),
                        BoundaryRay.random(params, N + 2, rng)):
                for h in range(-N - 1, N + 2):
                    assert radon_via_counts(f, h) == radon(f, ray, h), (params, N, h)


def test_abel_examples():
    assert abel(RadialSeq.delta_origin(P34)).values == (AlgebraicValue(1, 0, 6),)
    g = abel(radial(P34, [0, 1]))
    assert g.value(0) == 1
    assert g.value(1) == q_half_power(6, 1)
    assert g.value(-1) == g.value(1)


def test_abel_matches_radon_oracle():
    rng = random.Random(3)
    for params in GRID:
        f = radial(params, [Fraction(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(4)])
        for ray in (BoundaryRay.alternating(params, 4),
                    BoundaryRay.random(params, 4, rng)):
            assert abel(f).values == abel_via_radon(f, ray).values


def test_abel_inv_examples():
    f = abel_inv(EvenSeq.of(P34, [1]))
    assert f.values == (AlgebraicValue(1, 0, 6),)
    f = abel_inv(EvenSeq.of(P34, [0, 1]))
    assert f.value(0) == -q_half_power(6, -1)  # -(k-2) q^(-1/2)
    assert f.value(1) == q_half_power(6, -1)
    # applying the forward transform recovers the even input
    assert abel(f).values == (AlgebraicValue(0, 0, 6), AlgebraicValue(1, 0, 6))


@settings(max_examples=20)
@given(st.lists(small_fracs, min_size=1, max_size=6))
def test_abel_roundtrip(values):
    for params in (P34, GraphParams(4, 3), GraphParams(2, 3)):
        f = radial(params, values)
        g = abel(f)
        assert abel_inv(g).values == f.values
        assert abel_inv_rearranged(g).values == f.values


def test_abel_roundtrip_other_direction():
    rng = random.Random(9)
    for params in GRID:
        g = EvenSeq.of(params, [rng.randint(-5, 5) for _ in range(5)])
        assert abel(abel_inv(g)).values == g.values


def test_support_preserved_when_top_nonzero():
    f = radial(P34, [2, 0, Fraction(3, 2)])
    g = abel(f)
    assert g.last_nonzero() == f.last_nonzero() == 2


def test_dual_abel_examples():
    g = EvenSeq.of(P34, [3, 5])
    fwd = dual_abel(g)
    assert fwd.value(0) == 3
    # (2 sqrt(6) g(1) + sigma g(0)) / 8
    expected = (q_half_power(6, 1) * 10 + 3) * Fraction(1, 8)
    assert fwd.value(1) == expected


def test_dual_abel_closed_matches_counts():
    rng = random.Random(11)
    for params in GRID:
        g = EvenSeq.of(params, [Fraction(rng.randint(-6, 6), rng.choice((1, 3))) for _ in range(5)])
        lhs = dual_abel(g, n_max=6)
        rhs = dual_abel_via_counts(g, n_max=6)
        assert lhs.values == rhs.values


def test_duality_pairing_exact():
    rng = random.Random(13)
    for params in GRID:
        f = radial(params, [rng.randint(-4, 4) for _ in range(4)])
        g = EvenSeq.of(params, [rng.randint(-4, 4) for _ in range(4)])
        fwd = dual_abel(g, n_max=f.support_radius)
        lhs = AlgebraicValue(0, 0, params.q)
        for n in range(f.support_radius + 1):
            lhs = lhs + fwd.value(n) * f.value(n) * params.delta(n)
        af = abel(f)
        rhs = af.value(0) * g.value(0)
        for h in range(1, max(af.support_radius, g.support_radius) + 1):
            rhs = rhs + af.value(h) * g.value(h) * 2
        assert lhs == rhs


def test_dual_inverse_examples():
    g = dual_abel_inv(RadialSeq.delta_origin(P34), n_max=1)
    assert g.value(0) == 1
    assert g.value(1) == -q_half_power(6, -1) * Fraction(1, 2)  # -(sigma/2) q^(-1/2)


def test_dual_inverse_paths_agree():
    rng = random.Random(17)
    for params in GRID:
        f = radial(params, [rng.randint(-5, 5) for _ in range(6)])
        closed = dual_abel_inv(f)
        stepped = dual_abel_inv_recurrence(f)
        assert closed.values == stepped.values


@settings(max_examples=20)
@given(st.lists(small_fracs, min_size=1, max_size=6))
def test_dual_roundtrips(values):
    for params in (P34, GraphParams(3, 3), GraphParams(4, 2)):
        g = EvenSeq.of(params, values)
        assert dual_abel_inv(dual_abel(g)).values == g.values
        f = radial(params, values)
        assert dual_abel(dual_abel_inv(f)).values == f.values


def test_schwartz_norm_examples():
    f = RadialSeq.delta_origin(P34)
    assert schwartz_norm(f, 1, 0) == 1.0
    assert schwartz_norm(f, 2, 5) == 1.0
    g = radial(P34, [1, Fraction(1, 2)])
    assert schwartz_norm(g, 1, 1) <= schwartz_norm(g, 1, 2)
    # f(n) = q^(-n/p) (1+n)^(-3) telescopes against the weight
    p = 1.5
    vals = [P34.q ** (-n / p) * (1 + n) ** (-3.0) for n in range(21)]
    f = RadialSeq.of(P34, vals, exact=False)
    assert schwartz_norm(f, p, 1) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        schwartz_norm(f, 3, 0)


def test_even_norm():
    g = EvenSeq.of(P34, [2, 1])
    assert even_norm(g, 0) == 2.0
    assert even_norm(g, 2) == max(2.0, 4 * 1.0)


def test_numeric_flavour_matches_exact():
    rng = random.Random(23)
    values = [rng.randint(-5, 5) for _ in range(5)]
    exact = abel(radial(P34, values))
    numeric = abel(RadialSeq.of(P34, [float(v) for v in values], exact=False))
    for h in range(5):
        assert float(exact.value(h)) == pytest.approx(numeric.value(h), rel=1e-12)
    back = abel_inv(numeric)
    for n in range(5):
        assert back.value(n) == pytest.approx(values[n], abs=1e-9)


# -- the running-sum closed forms against their direct O(N^2) sums ------------------
#
# The five closed forms above are evaluated by running sums.  These are the
# direct double sums they replace, term by term as the paper states them:
# the exact lane must agree with ==, the float lane to rounding.


def _reference_abel(f):
    params, ring = f.params, f.ring
    N = f.support_radius
    sigma = params.sigma
    even_weight = Fraction(params.r - 2, params.r - 1)
    out = []
    for h in range(N + 1):
        total = ring.qpow(h) * f.value(h)
        j = 1
        while h + 2 * j - 1 <= N:
            total = total + ring.qpow(h + 2 * j - 2) * f.value(h + 2 * j - 1) * sigma
            if h + 2 * j <= N:
                total = total + ring.qpow(h + 2 * j) * f.value(h + 2 * j) * even_weight
            j += 1
        out.append(total)
    return tuple(out)


def _reference_abel_inv(g):
    params, ring = g.params, g.ring
    k = params.k
    M = g.support_radius
    out = []
    for n in range(M + 1):
        acc = ring.zero
        for m in range(1, M - n + 3):
            coeff = 1 + (-1) ** (m - 1) * (k - 1) ** m
            if coeff == 0:
                continue
            diff = g.value(n + m - 1) - g.value(n + m + 1)
            acc = acc + ring.qpow(-m) * diff * coeff
        out.append(ring.qpow(-(n - 1)) * acc * Fraction(1, k))
    return tuple(out)


def _reference_abel_inv_rearranged(g):
    params, ring = g.params, g.ring
    k, r, q = params.k, params.r, params.q
    M = g.support_radius
    out = []
    for n in range(M + 1):
        acc = g.value(n) - ring.qpow(-1) * g.value(n + 1) * (k - 2)
        for m in range(2, M - n + 1):
            gm = g.value(n + m)
            acc = acc - ring.qpow(-m) * gm * Fraction(q - 1, k)
            sign = (-1) ** m * (k - 1) ** m
            acc = acc - ring.qpow(-m) * gm * sign * Fraction(r - k, k)
        out.append(ring.qpow(-n) * acc)
    return tuple(out)


def _reference_dual_abel(g, n_max):
    params, ring = g.params, g.ring
    r = params.r
    out = [g.value(0)]
    for n in range(1, n_max + 1):
        same = ring.zero
        diff = ring.zero
        for j in range(-n + 1, n):
            if (n - j) % 2:
                diff = diff + g.value(j)
            else:
                same = same + g.value(j)
        acc = ring.qpow(-n) * g.value(n) * 2 * Fraction(r - 1, r)
        acc = acc + ring.qpow(-(n + 1)) * diff * params.sigma * Fraction(r - 1, r)
        acc = acc + ring.qpow(-n) * same * Fraction(r - 2, r)
        out.append(acc)
    return tuple(out)


def _reference_dual_abel_inv(f, n_max):
    params, ring = f.params, f.ring
    k, r, q = params.k, params.r, params.q
    deg = params.degree
    sigma = params.sigma
    N = n_max
    out = [f.value(0)]
    out.append(ring.qpow(-1) * (f.value(1) * Fraction(deg, 2) - f.value(0) * Fraction(sigma, 2)))
    for n in range(2, N + 1):
        acc = ring.qpow(-n) * f.value(0) * Fraction(-(q - 1 + (r - k) * (1 - k) ** n), 2 * k)
        for j in range(1, n - 1):
            window = q - 1 + (r - k) * (1 - k) ** (n - j)
            acc = acc - ring.qpow(2 * j - n - 2) * f.value(j) * window * Fraction(deg, 2 * k)
        acc = acc - ring.qpow(n - 4) * f.value(n - 1) * Fraction(deg * sigma, 2)
        acc = acc + ring.qpow(n - 2) * f.value(n) * Fraction(deg, 2)
        out.append(acc)
    return tuple(out[: N + 1])


def _running_and_reference(values, params, exact, offsets=(-2, 0, 3)):
    """(running sum, reference) output pairs of all five closed forms on one
    input; the dual forms at n_max = support radius + each offset."""
    f = RadialSeq.of(params, values, exact)
    g = EvenSeq.of(params, values, exact)
    N = f.support_radius
    pairs = [(abel(f).values, _reference_abel(f)),
             (abel_inv(g).values, _reference_abel_inv(g)),
             (abel_inv_rearranged(g).values, _reference_abel_inv_rearranged(g))]
    for n_max in sorted({max(N + offset, 0) for offset in offsets}):
        pairs.append((dual_abel(g, n_max).values, _reference_dual_abel(g, n_max)))
        pairs.append((dual_abel_inv(f, n_max).values, _reference_dual_abel_inv(f, n_max)))
    return pairs


REFERENCE_PAIRS = [(2, 2), (2, 3), (3, 2), (3, 4), (4, 3), (5, 2)]
ring_parts = st.fractions(min_value=-9, max_value=9, max_denominator=7)
LONGEST = [(Fraction(n % 7 - 3, n % 5 + 1), Fraction(4 - n % 9, n % 4 + 2)) for n in range(41)]


@pytest.mark.parametrize("k, r", REFERENCE_PAIRS)
@settings(max_examples=6, derandomize=True, deadline=None)
@given(st.lists(st.tuples(ring_parts, ring_parts), min_size=1, max_size=41))
@example(LONGEST)
@example(LONGEST[:1])
def test_running_sums_equal_the_direct_sums(k, r, parts):
    params = GraphParams(k, r)
    values = [AlgebraicValue(a, b, params.q) for a, b in parts]
    for running, reference in _running_and_reference(values, params, exact=True):
        assert running == reference
    floats = [float(v) for v in values]
    for running, reference in _running_and_reference(floats, params, exact=False):
        assert len(running) == len(reference)
        scale = max(abs(v) for v in reference)
        for got, want in zip(running, reference):
            assert abs(got - want) <= 1e-13 * scale


def test_float_running_sums_stay_in_range_where_the_values_do():
    # at (3, 4) and N = 420, Af and the inverse dual transform reach
    # q^(N/2) ~ 1e163, which the direct sums handle; a sum carried unscaled
    # as q^N ~ 1e327 would overflow.  g grows like an Abel image.
    rng = random.Random(29)
    f_values = [rng.uniform(-1, 1) for _ in range(421)]
    g_values = [rng.uniform(-1, 1) * P34.q ** (n / 2) for n in range(421)]
    cases = [(abel, RadialSeq, f_values), (dual_abel_inv, RadialSeq, f_values),
             (abel_inv, EvenSeq, g_values), (abel_inv_rearranged, EvenSeq, g_values),
             (dual_abel, EvenSeq, g_values)]
    for transform, kind, values in cases:
        want = transform(kind.of(P34, [Fraction(v) for v in values])).values
        want = [float(v) for v in want]
        scale = max(abs(v) for v in want)
        got = transform(kind.of(P34, values, exact=False)).values
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-13 * scale, transform.__name__
        if kind is RadialSeq:
            assert 1e160 < scale < 1e300


# -- the dual Abel oracles against their per-term ring loops ---------------------------
#
# Both oracles run on the ring's encoded integer parts.  These are the loops they
# replace, one ring value per term: the exact lane must agree with == and equal
# repr, the float lane to rounding.


def _reference_dual_abel_via_counts(g, n_max):
    params, ring = g.params, g.ring
    out = []
    for n in range(n_max + 1):
        acc = ring.zero
        for h in range(-n, n + 1):
            count = sphere_horocycle_count(params, n, h)
            if count:
                acc = acc + ring.qpow(h) * g.value(h) * count
        out.append(acc * Fraction(1, params.delta(n)))
    return tuple(out)


def _reference_dual_abel_inv_recurrence(f, n_max):
    params, ring = f.params, f.ring
    sigma, k = params.sigma, params.k
    deg = params.degree
    N = n_max
    half = Fraction(1, 2)
    big_g = [f.value(0)]
    big_g.append((f.value(1) * deg - f.value(0) * sigma) * half)
    for n in range(N - 1):
        forcing = (
            ring.qpow(n)
            * (ring.qpow(n + 2) * f.value(n + 2) - ring.qpow(n) * f.value(n))
            * Fraction(deg, 2)
        )
        big_g.append(forcing - big_g[n + 1] * sigma + big_g[n] * (k - 1))
    return tuple(ring.qpow(-n) * big_g[n] for n in range(N + 1))


ORACLES = [(dual_abel_via_counts, EvenSeq, _reference_dual_abel_via_counts),
           (dual_abel_inv_recurrence, RadialSeq, _reference_dual_abel_inv_recurrence)]
ORACLE_LENGTHS = (0, 1, 2, 5, 40)


def _fractional_value(rng, q):
    # a + b sqrt(q) whose canonical denominator is not 1
    while True:
        value = AlgebraicValue(Fraction(rng.randint(-9, 9), rng.randint(2, 9)),
                               Fraction(rng.randint(-9, 9), rng.randint(2, 9)), q)
        if value.triple[2] != 1:
            return value


def _oracle_cases(params, rng):
    """(N, n_max, values) with n_max the default and three past the support."""
    for N in ORACLE_LENGTHS:
        values = [_fractional_value(rng, params.q) for _ in range(N + 1)]
        for n_max in (None, N + 3):
            yield N, n_max, values


def test_oracles_equal_their_per_term_loops():
    rng = random.Random(37)
    for params in GRID:  # q = 1 at (2, 2) and q = 4 at (3, 3) fold sqrt(q) away
        for N, n_max, values in _oracle_cases(params, rng):
            for oracle, kind, reference in ORACLES:
                seq = kind.of(params, values)
                got = oracle(seq, n_max).values
                want = reference(seq, N if n_max is None else n_max)
                assert got == want, (params, N, n_max, oracle.__name__)
                assert [repr(v) for v in got] == [repr(v) for v in want]


def test_oracles_float_lane_matches_the_per_term_loops():
    rng = random.Random(41)
    for params in GRID:
        for N, n_max, values in _oracle_cases(params, rng):
            real = [float(v) for v in values]
            mixed = [complex(v, float(w)) for v, w in zip(real, reversed(real))]
            for inputs in (real, mixed):
                for oracle, kind, reference in ORACLES:
                    seq = kind.of(params, inputs, exact=False)
                    got = oracle(seq, n_max).values
                    want = reference(seq, N if n_max is None else n_max)
                    # Python numbers, not numpy scalars; a complex input gives
                    # complex outputs throughout, term-free values included
                    lane = complex if inputs is mixed else float
                    assert {type(v) for v in got} == {lane}, oracle.__name__
                    # the oracle rounds the exact value once; the loop's rounding
                    # at n carries over from the values before it, and it leaves
                    # noise where the exact value cancels to 0
                    for n, (a, b) in enumerate(zip(got, want)):
                        scale = max(abs(w) for w in want[: n + 1])
                        assert abs(a - b) <= 1e-12 * scale, (params, N, oracle.__name__)


def _lifted_reference(seq, n_max):
    """``_reference_dual_abel_via_counts`` on the exact lift of a float-lane
    sequence, rounded once: what the oracle's float lane must give."""
    def exact(values):
        return _reference_dual_abel_via_counts(EvenSeq.of(seq.params, map(Fraction, values)),
                                               n_max)
    if not any(isinstance(v, complex) for v in seq.values):
        return tuple(float(v) for v in exact(seq.values))
    real = exact(complex(v).real for v in seq.values)
    imag = exact(complex(v).imag for v in seq.values)
    return tuple(complex(float(a), float(b)) for a, b in zip(real, imag))


@pytest.mark.parametrize("k, r", REFERENCE_PAIRS)
def test_counts_oracle_equals_its_reference_past_the_support(k, r):
    # n_max at 0, 1, the support radius M and past it, where a row is
    # narrower than its sphere; both lanes, equal values and equal repr
    params = GraphParams(k, r)
    rng = random.Random(43)
    for M in (0, 1, 3, 8):
        values = [_fractional_value(rng, params.q) for _ in range(M + 1)]
        real = [float(v) for v in values]
        mixed = [complex(a, b) for a, b in zip(real, reversed(real))]
        for n_max in (0, 1, M, M + 4, 2 * M + 3):
            seq = EvenSeq.of(params, values)
            cases = [(dual_abel_via_counts(seq, n_max).values,
                      _reference_dual_abel_via_counts(seq, n_max))]
            for inputs in (real, mixed):
                seq = EvenSeq.of(params, inputs, exact=False)
                cases.append((dual_abel_via_counts(seq, n_max).values,
                              _lifted_reference(seq, n_max)))
            for got, want in cases:
                assert got == want, (k, r, M, n_max)
                assert [repr(v) for v in got] == [repr(v) for v in want]


def test_counts_oracle_reads_one_row_per_sphere(monkeypatch):
    read = []
    row = transforms._sphere_horocycle_row

    def counted(params, n, width, profile=None):
        read.append((n, width))
        return row(params, n, width, profile)

    def refused(*args):
        raise AssertionError("the oracle reads no single count")

    monkeypatch.setattr(transforms, "_sphere_horocycle_row", counted)
    monkeypatch.setattr(symgraph.boundary, "sphere_horocycle_count", refused)
    g = EvenSeq.of(P34, [Fraction(1, n + 2) for n in range(6)])
    for n_max in (0, 5, 13):
        read.clear()
        dual_abel_via_counts(g, n_max)
        assert read == [(n, 5) for n in range(n_max + 1)]


def test_counts_oracle_refuses_the_wrong_middle_exponent():
    # dual_abel's middle term carries q^(-(n+1)/2); with q^(-n/2) there the
    # pairing fails, and the counts oracle must tell the two apart wherever
    # that term is present: k > 2 (sigma = k - 2 is its coefficient) and q > 1
    rng = random.Random(43)
    for params in GRID:
        g = EvenSeq.of(params, [_fractional_value(rng, params.q) for _ in range(6)])
        ring, r = g.ring, params.r
        wrong = [g.value(0)]
        for n in range(1, 6):
            same = sum((g.value(j) for j in range(-n + 1, n) if (n - j) % 2 == 0), ring.zero)
            diff = sum((g.value(j) for j in range(-n + 1, n) if (n - j) % 2), ring.zero)
            wrong.append(ring.qpow(-n) * (g.value(n) * Fraction(2 * (r - 1), r)
                                          + diff * Fraction(params.sigma * (r - 1), r)
                                          + same * Fraction(r - 2, r)))
        counted = dual_abel_via_counts(g).values
        assert counted == dual_abel(g).values
        if params.sigma and params.q > 1:
            assert counted != tuple(wrong), params
        else:
            assert counted == tuple(wrong), params


def test_negative_n_max_is_refused_alike():
    g = EvenSeq.of(P34, [1, 2])
    f = RadialSeq.of(P34, [1, 2])
    messages = set()
    for transform, seq in ((dual_abel, g), (dual_abel_via_counts, g),
                           (dual_abel_inv, f), (dual_abel_inv_recurrence, f)):
        with pytest.raises(ValueError) as err:
            transform(seq, n_max=-1)
        messages.add(str(err.value))
        assert transform(seq, n_max=0).values == (seq.values[0],)
    assert messages == {"n_max must be nonnegative, got -1"}


def test_oversized_n_max_is_refused_alike(monkeypatch):
    # the work bound comes before any arithmetic: encode is never reached
    def no_arithmetic(*args):
        raise AssertionError("arithmetic ran")

    g = EvenSeq.of(P34, [1, 2])
    f = RadialSeq.of(P34, [1, 2])
    monkeypatch.setattr(ExactRing, "encode", no_arithmetic)
    messages = set()
    for transform, seq in ((dual_abel, g), (dual_abel_via_counts, g),
                           (dual_abel_inv, f), (dual_abel_inv_recurrence, f)):
        with pytest.raises(ValueError) as err:
            transform(seq, n_max=5773)  # 5774 values; 5773 is the last admitted length
        messages.add(str(err.value))
    assert len(messages) == 1 and str(MAX_CLOSED_BITS) in messages.pop()


# -- the enumeration oracles: integer counts per shell, one weight per count -----------

# ``radon`` and ``abel_via_radon`` count the ball's words per horocycle sphere by
# sphere and weight each count by f(n) once.  These are the per-word sums they
# replace, one ring value per word: the exact lane must agree with == and equal
# repr, the float lane to rounding.


def _reference_radon(f, ray, h):
    section = horocycle_section(ray, h, f.support_radius)
    return sum((f.value(len(x)) for x in section), f.ring.zero)


def _reference_abel_via_radon(f, ray):
    radius, ring, depth = f.support_radius, f.ring, ray.depth
    pairs = ((x, (f.value(len(x)),)) for x in ball(f.params, radius))
    sums = shell_sums(ray.prefix, pairs, depth + radius, 1, ring.zero)[0]
    return tuple(ring.qpow(h) * sums[depth - h] for h in range(radius + 1))


def _enumeration_cases(params, rng):
    """(values, ray, horocycles): for N = 0, 1, 3, values with and without
    interior zeros on the alternating ray and a random ray of depth N + 1,
    with every horocycle the ball meets; for N = 5, whose ball at (4, 4)
    holds 88573 words, values with interior zeros on a random ray, with
    horocycle 0."""
    for N in (0, 1, 3, 5):
        values = [_fractional_value(rng, params.q) for _ in range(N + 1)]
        holes = [0 if 0 < n < N and n % 2 else v for n, v in enumerate(values)]
        if N == 5:
            yield holes, BoundaryRay.random(params, N + 1, rng), (0,)
            continue
        for inputs in ([values, holes] if N > 1 else [values]):
            for ray in (BoundaryRay.alternating(params, N + 1),
                        BoundaryRay.random(params, N + 1, rng)):
                yield inputs, ray, range(-N, N + 1)


def test_enumeration_oracles_equal_their_per_word_sums():
    rng = random.Random(59)
    for params in GRID:
        for values, ray, horocycles in _enumeration_cases(params, rng):
            f = RadialSeq.of(params, values)
            got, want = abel_via_radon(f, ray).values, _reference_abel_via_radon(f, ray)
            assert got == want, (params, values, ray)
            assert [repr(v) for v in got] == [repr(v) for v in want]
            for h in horocycles:
                got, want = radon(f, ray, h), _reference_radon(f, ray, h)
                assert got == want and repr(got) == repr(want), (params, values, ray, h)


def test_enumeration_oracles_float_lane_matches_the_per_word_sums():
    # a count times a float rounds once where the per-word sum rounds at
    # every word, so the two agree to rounding of the largest value
    rng = random.Random(61)
    for params in GRID:
        for values, ray, horocycles in _enumeration_cases(params, rng):
            real = [float(v) for v in values]
            mixed = [complex(v, w) for v, w in zip(real, reversed(real))]
            for inputs in (real, mixed):
                f = RadialSeq.of(params, inputs, exact=False)
                got, want = abel_via_radon(f, ray).values, _reference_abel_via_radon(f, ray)
                scale = max(abs(w) for w in want)
                assert all(abs(a - b) <= 1e-12 * scale for a, b in zip(got, want)), params
                sums = [(radon(f, ray, h), _reference_radon(f, ray, h)) for h in horocycles]
                scale = max(abs(b) for _, b in sums)
                assert all(abs(a - b) <= 1e-12 * scale for a, b in sums), params


@pytest.mark.parametrize("values", [[1], [Fraction(1, 2), 0, 3], [0, 0, 0, 2], [1, 0, 0, 0]],
                         ids=repr)
def test_enumeration_oracles_call_distance_once_per_ball_word(monkeypatch, values):
    # the route stays every word of the ball, spheres where f is 0 included,
    # each measured once from the ray prefix, on its own row of codes
    calls = []
    measure = symgraph.transforms._walk_distances

    def counted(walk, centre):
        calls.append((len(walk.codes), centre))
        return measure(walk, centre)

    monkeypatch.setattr(symgraph.transforms, "_walk_distances", counted)
    for params in (P34, GraphParams(2, 2), GraphParams(4, 3)):
        f = RadialSeq.of(params, values)
        ray = BoundaryRay.alternating(params, f.support_radius + 2)
        once = [(ball_size(params, f.support_radius), ray.prefix.syllables)]
        calls.clear()
        abel_via_radon(f, ray)
        assert calls == once, params
        for h in (-1, 0, 2):
            calls.clear()
            radon(f, ray, h)
            assert calls == once, (params, h)


def test_abel_oracle_on_two_rays_lists_each_sphere_once(monkeypatch):
    # the rays of one call share one walk of the ball: each word measured
    # once per ray, and each ray's transform that of abel_via_radon on it alone
    walks, measured = [], []
    walk, measure = symgraph.transforms._walk, symgraph.transforms._walk_distances

    def walked(params, radius):
        walks.append(radius)
        return walk(params, radius)

    def counted(rows, centre):
        measured.append((id(rows), centre))
        return measure(rows, centre)

    f = RadialSeq.of(P34, [Fraction(1, 2), 0, 3])
    rays = [BoundaryRay.alternating(P34, 3), BoundaryRay.random(P34, 4, random.Random(5))]
    want = [abel_via_radon(f, ray) for ray in rays]
    monkeypatch.setattr(symgraph.transforms, "_walk", walked)
    monkeypatch.setattr(symgraph.transforms, "_walk_distances", counted)
    got = _abel_via_radon_rays(f, rays)
    assert walks == [2]
    assert [centre for _, centre in measured] == [ray.prefix.syllables for ray in rays]
    assert len({rows for rows, _ in measured}) == 1
    assert [seq.values for seq in got] == [seq.values for seq in want]
    assert [repr(v) for seq in got for v in seq.values] == [repr(v) for seq in want
                                                           for v in seq.values]
    with pytest.raises(DepthError):
        _abel_via_radon_rays(f, [rays[0], BoundaryRay.alternating(P34, 2)])


# -- the float lane of dual_abel_inv: one rounding of the exact transform --------------


@pytest.mark.parametrize("k, r", REFERENCE_PAIRS)
def test_dual_inverse_float_lane_rounds_the_exact_transform_once(k, r):
    params = GraphParams(k, r)
    rng = random.Random(47)
    for N in ORACLE_LENGTHS:
        values = [rng.uniform(-9, 9) * params.q ** rng.randint(-3, 3) for _ in range(N + 1)]
        lifted = RadialSeq.of(params, [Fraction(v) for v in values])
        for n_max in sorted({max(N - 1, 0), N, N + 3}):
            got = dual_abel_inv(RadialSeq.of(params, values, exact=False), n_max).values
            want = dual_abel_inv(lifted, n_max).values
            assert got == tuple(float(v) for v in want), (params, N, n_max)
            assert {type(v) for v in got} == {float}


def test_dual_inverse_float_lane_splits_a_complex_input():
    rng = random.Random(53)
    real = [rng.uniform(-1, 1) for _ in range(8)]
    imag = [rng.uniform(-1, 1) for _ in range(8)]
    imag[2] = 0.0
    mixed = [complex(a, b) for a, b in zip(real, imag)]
    mixed[2] = real[2]  # a float among the complex values
    for n_max in (None, 3, 10):
        got = dual_abel_inv(RadialSeq.of(P34, mixed, exact=False), n_max).values
        on_real = dual_abel_inv(RadialSeq.of(P34, real, exact=False), n_max).values
        on_imag = dual_abel_inv(RadialSeq.of(P34, imag, exact=False), n_max).values
        assert got == tuple(complex(a, b) for a, b in zip(on_real, on_imag))
        assert {type(v) for v in got} == {complex}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan),
                                 complex(math.inf, 0.0)], ids=repr)
def test_dual_inverse_float_lane_refuses_a_non_finite_input(bad):
    f = RadialSeq.of(P34, [1.0, bad, 2.0], exact=False)
    with pytest.raises(ValueError):
        dual_abel_inv(f)


def test_dual_inverse_float_lane_raises_past_the_float_range():
    # g(n) grows like q^(n/2) f: at (3, 4) and N = 40 this reaches past 1e308
    f = RadialSeq.of(P34, [1e300] * 41, exact=False)
    with pytest.raises(OverflowError):
        dual_abel_inv(f)


# -- the float lanes of the other dual transforms: the same one rounding --------------

OTHER_DUALS = [(dual_abel, EvenSeq), (dual_abel_via_counts, EvenSeq),
               (dual_abel_inv_recurrence, RadialSeq)]


@pytest.mark.parametrize("transform, kind", OTHER_DUALS, ids=lambda x: getattr(x, "__name__", ""))
@pytest.mark.parametrize("k, r", REFERENCE_PAIRS)
def test_dual_float_lanes_round_the_exact_transform_once(k, r, transform, kind):
    params = GraphParams(k, r)
    rng = random.Random(59)
    for N in ORACLE_LENGTHS:
        values = [rng.uniform(-9, 9) * params.q ** rng.randint(-3, 3) for _ in range(N + 1)]
        lifted = kind.of(params, [Fraction(v) for v in values])
        for n_max in sorted({max(N - 1, 0), N, N + 3}):
            got = transform(kind.of(params, values, exact=False), n_max).values
            want = transform(lifted, n_max).values
            assert got == tuple(float(v) for v in want), (params, N, n_max)
            assert {type(v) for v in got} == {float}


@pytest.mark.parametrize("transform, kind", OTHER_DUALS, ids=lambda x: getattr(x, "__name__", ""))
def test_dual_float_lanes_split_a_complex_input(transform, kind):
    rng = random.Random(61)
    real = [rng.uniform(-1, 1) for _ in range(8)]
    imag = [rng.uniform(-1, 1) for _ in range(8)]
    imag[2] = 0.0
    mixed = [complex(a, b) for a, b in zip(real, imag)]
    mixed[2] = real[2]  # a float among the complex values
    for n_max in (None, 3, 10):
        got = transform(kind.of(P34, mixed, exact=False), n_max).values
        on_real = transform(kind.of(P34, real, exact=False), n_max).values
        on_imag = transform(kind.of(P34, imag, exact=False), n_max).values
        assert got == tuple(complex(a, b) for a, b in zip(on_real, on_imag))
        assert {type(v) for v in got} == {complex}


@pytest.mark.parametrize("transform, kind", OTHER_DUALS, ids=lambda x: getattr(x, "__name__", ""))
@pytest.mark.parametrize("bad", [math.nan, -math.inf, complex(1.0, math.nan)], ids=repr)
def test_dual_float_lanes_refuse_a_non_finite_input(bad, transform, kind):
    with pytest.raises(ValueError):
        transform(kind.of(P34, [1.0, bad, 2.0], exact=False))


def test_dual_oracles_float_lane_reach_past_the_float_range_of_their_integers():
    # at (3, 4) the counts sum divides by delta(n) ~ q^n and the recurrence's
    # integers carry q^n, past 1e308 near n = 400, while these values stay
    # inside the float range
    g = EvenSeq.of(P34, [1.0, 0.5, 0.25], exact=False)
    for n_max, want in ((300, 2.0001056586541874e-117), (420, 4.0923984878822906e-164)):
        assert dual_abel_via_counts(g, n_max).values[-1] == want
        assert dual_abel(g, n_max).values[-1] == want
    f = RadialSeq.of(P34, [1.0] * 420, exact=False)
    want = 5.2681357781341675e162
    assert dual_abel_inv_recurrence(f).values[-1] == want == dual_abel_inv(f).values[-1]
    assert dual_abel_inv_recurrence(f).values == dual_abel_inv(f).values


# -- the two Abel inverses on encoded integer parts -----------------------------------
#
# Both inverses run on the ring's encoded parts, scaled by D sqrt(q)^M, and decode
# each value once.  Each keeps its own formula: the exact lane must equal the direct
# O(N^2) sums above with == and equal repr, and the float lane is float() of the
# exact transform of the lifted input.

INVERSES = [(abel_inv, _reference_abel_inv),
            (abel_inv_rearranged, _reference_abel_inv_rearranged)]
# the 3x3 grid and two more; q is a perfect square at (2, 2), (3, 3), (2, 5) and (4, 4)
INVERSE_GRAPHS = GRID + [GraphParams(2, 5), GraphParams(5, 3)]
INVERSE_RADII = (0, 1, 2, 3, 4, 7, 12, 20, 31, 40)


def test_abel_inverses_equal_the_direct_sums():
    rng = random.Random(67)
    for params in INVERSE_GRAPHS:
        for M in INVERSE_RADII:
            values = [_fractional_value(rng, params.q) for _ in range(M + 1)]
            for inputs in (values, [0 if n % 3 == 1 else v for n, v in enumerate(values)]):
                g = EvenSeq.of(params, inputs)
                for inverse, reference in INVERSES:
                    got, want = inverse(g).values, reference(g)
                    assert got == want, (params, M, inverse.__name__)
                    assert [repr(v) for v in got] == [repr(v) for v in want]


@pytest.mark.parametrize("k, r", REFERENCE_PAIRS)
def test_abel_inverse_float_lanes_round_the_exact_transform_once(k, r):
    params = GraphParams(k, r)
    rng = random.Random(71)
    for M in ORACLE_LENGTHS:
        values = [rng.uniform(-9, 9) * params.q ** rng.randint(-3, 3) for _ in range(M + 1)]
        lifted = EvenSeq.of(params, [Fraction(v) for v in values])
        g = EvenSeq.of(params, values, exact=False)
        for inverse, _ in INVERSES:
            got = inverse(g).values
            assert got == tuple(float(v) for v in inverse(lifted).values), (params, M)
            assert {type(v) for v in got} == {float}
        # both round one exact value, so they agree bit for bit
        assert abel_inv(g).values == abel_inv_rearranged(g).values


@pytest.mark.parametrize("inverse", [abel_inv, abel_inv_rearranged], ids=lambda f: f.__name__)
def test_abel_inverse_float_lanes_split_a_complex_input(inverse):
    rng = random.Random(73)
    real = [rng.uniform(-1, 1) for _ in range(8)]
    imag = [rng.uniform(-1, 1) for _ in range(8)]
    imag[2] = 0.0
    mixed = [complex(a, b) for a, b in zip(real, imag)]
    mixed[2] = real[2]  # a float among the complex values
    got = inverse(EvenSeq.of(P34, mixed, exact=False)).values
    on_real = inverse(EvenSeq.of(P34, real, exact=False)).values
    on_imag = inverse(EvenSeq.of(P34, imag, exact=False)).values
    assert got == tuple(complex(a, b) for a, b in zip(on_real, on_imag))
    assert {type(v) for v in got} == {complex}


@pytest.mark.parametrize("inverse", [abel_inv, abel_inv_rearranged], ids=lambda f: f.__name__)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan),
                                 complex(math.inf, 0.0)], ids=repr)
def test_abel_inverse_float_lanes_refuse_a_non_finite_input(bad, inverse):
    with pytest.raises(ValueError):
        inverse(EvenSeq.of(P34, [1.0, bad, 2.0], exact=False))


@pytest.mark.parametrize("inverse", [abel_inv, abel_inv_rearranged], ids=lambda f: f.__name__)
def test_abel_inverse_float_lanes_raise_past_the_float_range(inverse):
    # at (4, 2), f(0) = g(0) - 2 q^(-1/2) g(1) is about 2.15e308 on these values
    params = GraphParams(4, 2)
    values = [1e308, -1e308]
    exact = inverse(EvenSeq.of(params, [Fraction(v) for v in values])).values[0]
    assert exact.b > 0 and exact.a + exact.b * Fraction(17, 10) > sys.float_info.max  # sqrt(3) > 1.7
    with pytest.raises(OverflowError):
        inverse(EvenSeq.of(params, values, exact=False))


_RING_OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                   "__rmul__", "__truediv__", "__rtruediv__", "__pow__", "inverse")


def _refuse_ring_arithmetic(monkeypatch):
    def refused(*args):
        raise AssertionError("ring arithmetic ran")

    for name in _RING_OPERATORS:
        monkeypatch.setattr(AlgebraicValue, name, refused)
    monkeypatch.setattr(ExactRing, "qpow", refused)


def test_abel_inverses_do_no_ring_arithmetic(monkeypatch):
    rng = random.Random(79)
    cases = []
    for params in (P34, GraphParams(3, 3), GraphParams(2, 2)):
        g = EvenSeq.of(params, [_fractional_value(rng, params.q) for _ in range(12)])
        cases.append((g, abel_inv(g).values, abel_inv_rearranged(g).values))
    f = RadialSeq.of(P34, cases[0][1])
    _refuse_ring_arithmetic(monkeypatch)
    for g, plain, rearranged in cases:
        assert abel_inv(g).values == plain
        assert abel_inv_rearranged(g).values == rearranged
    # abel still runs on ring values: the bench's radial_exact trace asserts
    # algebraic.ring_ops > 0 (bench/test_bench.py:97), and abel is what it counts
    with pytest.raises(AssertionError, match="ring arithmetic ran"):
        abel(f)


def test_oversized_abel_inverse_input_is_refused_before_encode(monkeypatch):
    def no_arithmetic(*args):
        raise AssertionError("arithmetic ran")

    g = EvenSeq.of(P34, [1] * 5774)  # 5773 values is the last admitted length
    monkeypatch.setattr(ExactRing, "encode", no_arithmetic)
    messages = set()
    for inverse in (abel_inv, abel_inv_rearranged):
        with pytest.raises(ValueError) as err:
            inverse(g)
        messages.add(str(err.value))
    assert len(messages) == 1 and str(MAX_CLOSED_BITS) in messages.pop()


@pytest.mark.parametrize("cls", [RadialSeq, EvenSeq])
def test_a_sequence_needs_its_value_at_zero(cls):
    with pytest.raises(ValueError, match=f"{cls.__name__} needs at least the value at 0"):
        cls.of(P34, [])
