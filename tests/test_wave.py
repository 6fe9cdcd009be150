import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import symgraph.wave as wave_module

from symgraph.algebraic import AlgebraicValue, ExactRing, q_half_power
from symgraph.boundary import BoundaryRay, busemann
from symgraph.spectral import VertexFun, radialize, spherical_means_at, spherical_phi
from symgraph.transforms import RadialSeq
from symgraph.wave import (
    MAX_CLOSED_BITS,
    MAX_WINDOW_VALUES,
    CauchyData,
    _neighbor_sum,
    _weights,
    asgeirsson_means,
    check_window,
    lap_full,
    lap_radial,
    lap_z,
    wave_closed_at,
    wave_direct,
    wave_via_dual_abel_at,
)
from symgraph.words import (
    GraphParams,
    ReducedWord,
    _self_plus_neighbors,
    ball,
    distance,
    neighbors,
    position,
    sphere,
)

P34 = GraphParams(3, 4)
REGIMES = [GraphParams(2, 3), GraphParams(2, 4), GraphParams(3, 4), GraphParams(2, 2),
           GraphParams(3, 3), GraphParams(4, 4), GraphParams(3, 2), GraphParams(4, 2),
           GraphParams(4, 3)]


def random_data(params, rng, radius=1, with_velocity=True):
    pool = list(ball(params, radius))
    f = VertexFun.of(params, {w: rng.randint(-3, 3) for w in pool})
    g_values = {w: rng.randint(-3, 3) for w in pool} if with_velocity else {}
    return CauchyData(f, VertexFun.of(params, g_values))


def test_laplacian_kills_constants():
    fun = VertexFun.of(P34, {x: 1 for x in ball(P34, 2)})
    out = lap_full(fun)
    assert out.value(P34.identity()).is_zero()
    for x in sphere(P34, 1):
        assert out.value(x).is_zero()


def test_laplacian_of_point_mass():
    out = lap_full(VertexFun.delta_at(P34.identity()))
    assert out.value(P34.identity()) == 1
    for x in sphere(P34, 1):
        assert out.value(x) == Fraction(-1, 8)


def test_radial_laplacian_examples():
    flat = RadialSeq.of(P34, [1, 1, 1, 1])
    out = lap_radial(flat)
    assert out.value(1).is_zero() and out.value(2).is_zero()
    point = lap_radial(RadialSeq.delta_origin(P34))
    assert point.value(0) == 1
    assert point.value(1) == Fraction(-1, 8)


def test_radial_laplacian_matches_full():
    rng = random.Random(31)
    f = RadialSeq.of(P34, [rng.randint(-4, 4) for _ in range(3)])
    full = lap_full(VertexFun.from_radial(f))
    rad = lap_radial(f)
    assert radialize(full).values[: rad.support_radius + 1] == rad.values[: rad.support_radius + 1]
    for x in ball(P34, 3):
        assert full.value(x) == rad.value(len(x))


def test_means_commute_with_laplacian():
    # spherical means of L f around any centre obey the radial three-point form
    rng = random.Random(29)
    pool = list(ball(P34, 3))
    f = VertexFun.of(P34, {w: rng.randint(-4, 4) for w in pool})
    lf = lap_full(f)
    for x in ball(P34, 2):
        means = [spherical_means_at(f, x, n) for n in range(6)]
        assert spherical_means_at(lf, x, 0) == means[0] - means[1]
        for n in range(1, 5):
            expected = (
                means[n] * (P34.q + 1) - means[n - 1] - means[n + 1] * P34.q
            ) * Fraction(1, P34.degree)
            assert spherical_means_at(lf, x, n) == expected


def test_lap_z_examples():
    linear = {n: Fraction(3 * n + 1) for n in range(-3, 4)}
    out = lap_z(linear)
    for n in range(-2, 3):
        assert out[n] == 0
    point = lap_z({0: Fraction(1)})
    assert point[0] == 1 and point[1] == Fraction(-1, 2) and point[-1] == Fraction(-1, 2)


def test_horocyclic_laplacian_identity():
    # for f(h) = q^(h/2) g(h):
    #   {(q+1) f(h) - q f(h-1) - f(h+1)}/(r(k-1)) = beta q^(h/2) (L_Z g)(h) + gap f(h)
    rng = random.Random(33)
    for params in (P34, GraphParams(4, 2), GraphParams(2, 4)):
        q = params.q
        g = {n: AlgebraicValue(rng.randint(-5, 5), 0, q) for n in range(-4, 5)}
        f = {n: q_half_power(q, n) * g[n] for n in g}
        lzg = lap_z(g)
        for h in range(-2, 3):
            lhs = (f[h] * (q + 1) - f[h - 1] * q - f[h + 1]) * Fraction(1, params.degree)
            rhs = params.beta * q_half_power(q, h) * lzg[h] + params.spectral_gap * f[h]
            assert lhs == rhs


def test_spot_value():
    data = CauchyData(VertexFun.delta_at(P34.identity()), VertexFun.of(P34, {}))
    expected = -q_half_power(6, -1) * Fraction(1, 2)  # -1/(2 sqrt 6)
    field = wave_direct(P34, data, 1, observe_radius=0)
    assert field.at(P34.identity(), 1) == expected
    assert wave_closed_at(P34, data, P34.identity(), 1) == expected


def test_closed_equals_direct_all_regimes():
    rng = random.Random(35)
    for params in REGIMES:
        data = random_data(params, rng)
        field = wave_direct(params, data, 4, observe_radius=1)
        for n in range(-4, 5):
            for x in ball(params, 1):
                want = field.at(x, n)
                assert wave_closed_at(params, data, x, n) == want
                assert wave_via_dual_abel_at(params, data, x, n) == want
        field.check_recurrence(0)


def test_time_symmetry():
    rng = random.Random(37)
    for params in (P34, GraphParams(3, 2)):
        still = random_data(params, rng, with_velocity=False)
        field = wave_direct(params, still, 3, observe_radius=1)
        moving = CauchyData(VertexFun.of(params, {}), still.initial)
        field_odd = wave_direct(params, moving, 3, observe_radius=1)
        for n in range(1, 4):
            for x in ball(params, 1):
                assert field.at(x, n) == field.at(x, -n)
                assert field_odd.at(x, n) == -(field_odd.at(x, -n))
        for x in ball(params, 1):
            assert field_odd.at(x, 0).is_zero()


def test_dual_abel_bridge():
    # with zero velocity, the dual Abel transform of n -> u(x, n) gives the
    # spherical means of the initial data around x
    rng = random.Random(39)
    data = random_data(P34, rng, with_velocity=False)
    x = P34.generator(1)
    steps = 4
    field = wave_direct(P34, data, steps, observe_radius=1)
    from symgraph.transforms import EvenSeq, dual_abel as fwd

    u_seq = EvenSeq(P34, tuple(field.at(x, n) for n in range(steps + 1)), True)
    means = fwd(u_seq, n_max=steps)
    for n in range(steps + 1):
        assert means.value(n) == spherical_means_at(data.initial, x, n)


def fractional_data(params, rng, radius=1):
    # rational parts over 2, 3 and 6, and a nonzero sqrt(q) part over 7 at
    # every point, so neither part's denominators divide the other's
    def value(i):
        a = Fraction(rng.choice((-5, -1, 1, 5)), (2, 3, 6)[i % 3])
        b = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), 7)
        return AlgebraicValue(a, b, params.q)

    pool = list(ball(params, radius))
    f = VertexFun.of(params, {w: value(i) for i, w in enumerate(pool)})
    g = VertexFun.of(params, {w: value(i + 1) for i, w in enumerate(pool)})
    return CauchyData(f, g)


@pytest.mark.parametrize("params", [GraphParams(3, 3), GraphParams(2, 2),
                                    GraphParams(3, 4), GraphParams(2, 3),
                                    GraphParams(3, 2), GraphParams(4, 3)])
def test_stepper_on_fractional_sqrt_data(params):
    # the stepper and the closed forms scale by the common denominator and
    # swap the a and b parts on odd times; integer data would exercise neither
    data = fractional_data(params, random.Random(45))
    if params.q not in (1, 4):
        assert all(v.b for v in data.initial.data.values())
    field = wave_direct(params, data, 4, observe_radius=2)
    for n in range(-4, 5):
        for x in ball(params, 2):
            assert wave_closed_at(params, data, x, n) == field.at(x, n)
            assert wave_via_dual_abel_at(params, data, x, n) == field.at(x, n)
    field.check_recurrence(1)


def stepped_reference(params, data, steps, radius):
    """u(., n) on ball(radius + steps - |n|) for |n| <= steps, stepped word by
    word from the definition with the lane's own arithmetic:
    u(+-1) = ((2 - k) f + S f) / (2 sqrt q) +- g and
    u(n + d) = ((2 - k) u(n) + S u(n)) / sqrt q - u(n - d)."""
    ring = data.initial.ring
    inv_root = 1 / ring.qpow(1)
    k = params.k

    def spread(u, size):
        # (2 - k) u + S u on ball(size)
        return {x: u.get(x, ring.zero) * (2 - k)
                + sum((u.get(y, ring.zero) for y in neighbors(x)), ring.zero)
                for x in ball(params, size)}

    f, g = data.initial.data, data.velocity.data
    out = {0: {x: f.get(x, ring.zero) for x in ball(params, radius + steps)}}
    if steps == 0:
        return out
    base = spread(f, radius + steps - 1)
    for d in (1, -1):
        out[d] = {x: v * inv_root * Fraction(1, 2) + g.get(x, ring.zero) * d
                  for x, v in base.items()}
        for m in range(1, steps):
            now, old = out[d * m], out[d * (m - 1)]
            out[d * (m + 1)] = {x: v * inv_root - old[x]
                                for x, v in spread(now, radius + steps - m - 1).items()}
    return out


SUPPORT_LAYOUTS = ["no velocity", "disjoint", "sparse velocity", "far", "far disjoint"]


def support_layout(params, layout):
    # f and g on ball(2) from fractional_data, thinned per layout; the "far"
    # layouts add words at radius 3, 4 and 5 (generators 0, 1 for f and 1, 2
    # for g) whose values carry denominators found nowhere else
    full = fractional_data(params, random.Random(55), radius=2)
    words = list(ball(params, 2))
    f, g = full.initial.data, full.velocity.data
    if layout == "no velocity":
        f = {w: f[w] for w in words[::3]}
        g = {}
    elif layout in ("disjoint", "far disjoint"):
        f = {w: f[w] for w in words[::2]}
        g = {w: g[w] for w in words[1::2]}
    elif layout == "sparse velocity":
        g = {w: g[w] for w in words[1::7]}
    if layout.startswith("far"):
        def far(first, length):
            return ReducedWord(params, tuple((first + i % 2, 1) for i in range(length)))

        def value(den):
            return AlgebraicValue(Fraction(1, den), Fraction(-2, den + 2), params.q)

        f = {**f, **{far(0, m): value(den) for m, den in zip((3, 4, 5), (11, 17, 29))}}
        g = {**g, **{far(1, m): value(den) for m, den in zip((3, 4, 5), (37, 41, 59))}}
    return CauchyData(VertexFun.of(params, f), VertexFun.of(params, g))


@pytest.mark.parametrize("params", [GraphParams(2, 3), GraphParams(3, 3), GraphParams(4, 3)])
@pytest.mark.parametrize("layout", SUPPORT_LAYOUTS)
def test_closed_forms_on_different_supports(params, layout):
    # the closed forms walk the union of the two supports once; a word in
    # only one of them must count as zero in the other.  In the far layouts
    # the support radius 5 passes the stepper's first cone (3 steps seen on
    # ball(1) need f on ball(4) and g on ball(3)), so its denominator covers
    # data it never places
    data = support_layout(params, layout)
    reference = stepped_reference(params, data, 3, 1)
    field = wave_direct(params, data, 3, observe_radius=1)
    for n in range(-3, 4):
        for x in ball(params, 1):
            want = reference[n][x]
            assert field.at(x, n) == want
            assert wave_closed_at(params, data, x, n) == want
            assert wave_via_dual_abel_at(params, data, x, n) == want


@pytest.mark.parametrize("layout", SUPPORT_LAYOUTS)
def test_float_closed_forms_on_different_supports(layout):
    params = GraphParams(4, 3)
    exact = support_layout(params, layout)
    numeric = CauchyData(
        *(VertexFun.of(params, {w: float(v) for w, v in fun.items()}, exact=False)
          for fun in (exact.initial, exact.velocity)))
    reference = stepped_reference(params, exact, 3, 1)
    field = wave_direct(params, numeric, 3, observe_radius=1)
    for n in range(-3, 4):
        for x in ball(params, 1):
            want = float(reference[n][x])
            assert field.at(x, n) == pytest.approx(want, rel=1e-9)
            assert wave_closed_at(params, numeric, x, n) == pytest.approx(want, rel=1e-9)


def test_cauchy_data_is_encoded_once(monkeypatch):
    calls = []
    encode = ExactRing.encode

    def counted(self, columns):
        calls.append(len(columns))
        return encode(self, columns)

    monkeypatch.setattr(ExactRing, "encode", counted)
    # the per-length branch sums are built with the encoding, not per call or point
    indexed = []
    branch_index = wave_module.branch_index

    def index(pairs, width):
        indexed.append(width)
        return branch_index(pairs, width)

    monkeypatch.setattr(wave_module, "branch_index", index)
    params, steps = GraphParams(3, 3), 3
    data = fractional_data(params, random.Random(61))
    pool = list(ball(params, 1))
    closed = {(x, n): wave_closed_at(params, data, x, n)
              for n in range(-steps, steps + 1) if n for x in pool}
    field = wave_direct(params, data, steps, observe_radius=1)
    assert len(closed) == 2 * steps * len(pool)
    assert len(calls) <= 1
    assert indexed == [4]
    for (x, n), value in closed.items():
        assert field.at(x, n) == value


def test_cauchy_data_holds_its_parts_as_tuples():
    exact = fractional_data(P34, random.Random(62))
    complex_lane = CauchyData(*(VertexFun.of(P34, {w: complex(float(v), 1.0)
                                                   for w, v in fun.items()}, exact=False)
                                for fun in (exact.initial, exact.velocity)))
    for data, planes in ((exact, 2), (float_lane(exact), 2), (complex_lane, 4)):
        words, scale, columns, _ = data._encoded
        assert type(scale) is int and len(columns) == 2
        for parts in columns:
            assert len(parts) == planes
            assert all(type(part) is tuple and len(part) == len(words) for part in parts)
            assert all(type(v) is int for part in parts for v in part)


def test_solvers_refuse_data_from_another_graph(monkeypatch):
    # (3, 4) and (4, 3) share q = 6, so nothing downstream would notice
    data = CauchyData(VertexFun.delta_at(P34.identity()), VertexFun.of(P34, {}))
    assert wave_closed_at(P34, data, P34.identity(), 2) == Fraction(-1, 4)
    assert wave_direct(P34, data, 2).at(P34.identity(), 2) == Fraction(-1, 4)

    def refuse(*args):
        raise AssertionError("started work")

    for name in ("ball", "branch_shell_sums"):
        monkeypatch.setattr(wave_module, name, refuse)
    other = GraphParams(4, 3)
    for n in (2, 0):
        with pytest.raises(ValueError, match=r"\(3, 4\) graph"):
            wave_closed_at(other, data, other.identity(), n)
        with pytest.raises(ValueError, match=r"\(3, 4\) graph"):
            wave_direct(other, data, n)


def test_closed_form_refuses_a_point_from_another_graph(monkeypatch):
    # (4, 3) words are valid syllable tuples at (3, 4) too; the point must be
    # refused before any walk, at every time and on empty data as well
    full = CauchyData(VertexFun.delta_at(P34.identity()), VertexFun.of(P34, {}))
    empty = CauchyData(VertexFun.of(P34, {}), VertexFun.of(P34, {}))
    field = wave_direct(P34, full, 2)
    stranger = GraphParams(4, 3).generator(0)

    def refuse(*args):
        raise AssertionError("started work")

    for name in ("ball", "branch_shell_sums", "_rows"):
        monkeypatch.setattr(wave_module, name, refuse)
    for data in (full, empty):
        for n in (0, 1, -2):
            with pytest.raises(ValueError, match=r"point lives on the \(4, 3\) graph"):
                wave_closed_at(P34, data, stranger, n)
    for n in (0, 1):
        with pytest.raises(ValueError, match=r"point lives on the \(4, 3\) graph"):
            field.at(stranger, n)


def float_lane(data):
    return CauchyData(*(VertexFun.of(data.params, {w: float(v) for w, v in fun.items()},
                                     exact=False)
                        for fun in (data.initial, data.velocity)))


def closed_values(params, data, order, fresh=False):
    # wave_closed_at over ball(2) x [-4, 4], times outermost or points
    # outermost, on one shared data or on a fresh copy of it per call
    pool, times = list(ball(params, 2)), range(-4, 5)
    pairs = ([(x, n) for n in times for x in pool] if order == "times"
             else [(x, n) for x in pool for n in times])
    return {(x, n): wave_closed_at(params, CauchyData(data.initial, data.velocity)
                                   if fresh else data, x, n) for x, n in pairs}


def same_values(got: dict, want: dict) -> None:
    # exact values ==, every value of the same type and repr (floats bit for bit)
    assert list(got) == list(want)
    for key, value in got.items():
        assert type(value) is type(want[key]), key
        assert value == want[key] and repr(value) == repr(want[key]), key


@pytest.mark.parametrize("params", [GraphParams(2, 3), GraphParams(2, 4), GraphParams(3, 4),
                                    GraphParams(3, 3), GraphParams(3, 2), GraphParams(4, 3)])
def test_kept_profiles_give_the_values_of_fresh_data(params):
    # data out to radius 2, so a point's profile reaches past |x| + 1; one
    # shared data per visiting order against a fresh data per call
    exact = fractional_data(params, random.Random(97), radius=2)
    for data in (exact, float_lane(exact)):
        for order in ("times", "points"):
            shared = CauchyData(data.initial, data.velocity)
            want = closed_values(params, data, order, fresh=True)
            same_values(closed_values(params, shared, order), want)
            assert list(shared._profiles) == [x.syllables for x in ball(params, 2)]


def test_kept_profiles_are_bounded(monkeypatch):
    # past the bound a point is measured out to |x| + L per call, and not kept
    params = GraphParams(3, 3)
    data = fractional_data(params, random.Random(98), radius=2)
    pool = list(ball(params, 2))
    measured = []
    branch_shell_sums = wave_module.branch_shell_sums

    def spy(x, index, radius):
        measured.append((x, radius))
        assert len(data._profiles) <= 3
        return branch_shell_sums(x, index, radius)

    want = closed_values(params, data, "times", fresh=True)
    monkeypatch.setattr(wave_module, "_MAX_PROFILES", 3)
    monkeypatch.setattr(wave_module, "branch_shell_sums", spy)
    same_values(closed_values(params, data, "times"), want)
    assert list(data._profiles) == [x.syllables for x in pool[:3]]
    kept = [(x, len(x) + 2) for x in pool[:3]]
    past = [(x, len(x) + 2) for n in range(-4, 5) if n for x in pool[3:]]
    assert measured == kept + past


def test_refused_calls_keep_no_profile():
    data = fractional_data(P34, random.Random(99))
    a, b = P34.generator(0), P34.generator(1, 2)
    wave_closed_at(P34, data, a, 1)
    refused = [(GraphParams(4, 3), a, 1),  # params of another graph, same q
               (P34, GraphParams(4, 3).generator(0), 1),  # a point of another graph
               (P34, b, 10**4 + 1)]  # a time past MAX_CLOSED_BITS
    for params, x, n in refused:
        with pytest.raises(ValueError, match="graph"):
            wave_closed_at(params, data, x, n)
        assert list(data._profiles) == [a.syllables]
        assert list(data._plans) == [1]


def test_closed_plans_are_bounded(monkeypatch):
    # a data keeps the plans of its first _MAX_PLANS times, and a time past
    # the bound is planned again per call with the same values; a time
    # refused by MAX_CLOSED_BITS plans nothing
    params = GraphParams(3, 3)
    data = fractional_data(params, random.Random(101), radius=2)
    want = closed_values(params, data, "points", fresh=True)
    monkeypatch.setattr(wave_module, "_MAX_PLANS", 3)
    same_values(closed_values(params, data, "points"), want)
    assert list(data._plans) == [-4, -3, -2]
    c, v, twice_sign, _ = data._plans[-3]
    assert (c, v) == wave_module._rows(params, 3) and twice_sign == -2
    with pytest.raises(ValueError, match=str(MAX_CLOSED_BITS)):
        wave_closed_at(params, data, params.identity(), 10**5)
    assert list(data._plans) == [-4, -3, -2]
    fresh = fractional_data(params, random.Random(101), radius=2)
    with pytest.raises(ValueError, match=str(MAX_CLOSED_BITS)):
        wave_closed_at(params, fresh, params.identity(), -10**5)
    assert fresh._plans == {}


def test_a_kept_profile_is_found_without_comparing_words(monkeypatch):
    # profiles are keyed by syllables, so a point built afresh (as ball()
    # builds every point again for every time) finds its kept sums with no
    # ReducedWord.__eq__ call
    params = GraphParams(3, 4)
    data = fractional_data(params, random.Random(103), radius=2)
    want = {(x, n): wave_closed_at(params, data, x, n)
            for x in ball(params, 2) for n in (1, -2, 3)}
    compared = []
    word_eq = ReducedWord.__eq__

    def counted(self, other):
        compared.append((self, other))
        return word_eq(self, other)

    monkeypatch.setattr(ReducedWord, "__eq__", counted)
    for (x, n), value in want.items():
        got = wave_closed_at(params, data, ReducedWord(params, x.syllables), n)
        assert got == value and repr(got) == repr(value)
    assert compared == []


def test_float_closed_forms_track_exact_when_k_exceeds_r():
    params = GraphParams(4, 3)
    rng = random.Random(57)
    pool = list(ball(params, 1))
    values_f = {w: rng.randint(-3, 3) for w in pool}
    values_g = {w: rng.randint(-3, 3) for w in pool[::2]}
    exact = CauchyData(VertexFun.of(params, values_f), VertexFun.of(params, values_g))
    numeric = CauchyData(
        VertexFun.of(params, {w: float(v) for w, v in values_f.items()}, exact=False),
        VertexFun.of(params, {w: float(v) for w, v in values_g.items()}, exact=False),
    )
    field = wave_direct(params, exact, 4, observe_radius=1)
    for n in range(-4, 5):
        for x in ball(params, 1):
            want = float(field.at(x, n))
            assert isinstance(wave_closed_at(params, numeric, x, n), float)
            assert wave_closed_at(params, numeric, x, n) == pytest.approx(want, rel=1e-9)
            assert wave_via_dual_abel_at(params, numeric, x, n) == pytest.approx(want, rel=1e-9)


def test_float_closed_form_scales_before_it_rounds():
    # the integer weights near (k - 1)^|n| = 3^700 are past the float range,
    # the value (about 1.4e61 at n = 700) is not
    params = GraphParams(4, 3)
    e, a = params.identity(), params.generator(0)

    def data(exact):
        return CauchyData(VertexFun.delta_at(e, exact=exact), VertexFun.delta_at(a, exact=exact))

    for n in (600, 700, -700):
        want = float(wave_closed_at(params, data(True), e, n))
        got = wave_closed_at(params, data(False), e, n)
        assert isinstance(got, float)
        assert got == pytest.approx(want, rel=1e-12)
    assert abs(want) > 1e60


@pytest.mark.parametrize("params", [GraphParams(2, 3), GraphParams(3, 4), GraphParams(3, 3),
                                    GraphParams(4, 3), GraphParams(2, 2)])
def test_float_solvers_round_the_exact_solve_once(params):
    # float data of mixed magnitudes, its exact binary rationals, and a
    # complex copy: every float value, stepped or closed, read one at a time
    # or in full, is float() of the exact solve of the lifted data, and a
    # complex one is complex(solve of the real parts, solve of the imaginary)
    rng = random.Random(67)
    steps, observe = 3, 1
    pool = list(ball(params, 1))

    def floats(count):
        return [rng.uniform(-9, 9) * 10.0 ** rng.randint(-30, 30) for _ in range(count)]

    f = dict(zip(pool, floats(len(pool))))
    g = dict(zip(pool[::2], floats(len(pool))))
    g_imag = dict(zip(pool[1::2], floats(len(pool))))

    def data(f_values, g_values, exact):
        lift = Fraction if exact else (lambda v: v)
        return CauchyData(*(VertexFun.of(params, {w: lift(v) for w, v in values.items()}, exact)
                            for values in (f_values, g_values)))

    real = wave_direct(params, data(f, g, True), steps, observe)
    imag = wave_direct(params, data({}, g_imag, True), steps, observe)
    mixed = {w: complex(g.get(w, 0.0), g_imag.get(w, 0.0)) for w in {*g, *g_imag}}
    for g_values, want in ((g, lambda x, n: float(real.at(x, n))),
                           (mixed, lambda x, n: complex(float(real.at(x, n)),
                                                        float(imag.at(x, n))))):
        numeric = data(f, g_values, False)
        lazy = wave_direct(params, numeric, steps, observe)
        full = wave_direct(params, numeric, steps, observe)
        for n in [m for m in range(-steps, steps + 1) if m]:  # u(., 0) is f as given
            read = dict(full.fields[n].data.items())
            for x in ball(params, observe):
                value = want(x, n)
                for got in (lazy.at(x, n), read[x], wave_closed_at(params, numeric, x, n)):
                    assert type(got) is type(value) and repr(got) == repr(value), (x, n)


def test_velocity_weights_equal_the_inverse_dual_fold():
    # c(m) is 2k sqrt(q)^m times the inverse dual Abel transform at m; the
    # velocity terms lift c(l) at each radius l < m of opposite parity by
    # sqrt(q)^(m - l), and the closed velocity weights must equal that fold
    for k in range(2, 7):
        for r in range(2, 7):
            params = GraphParams(k, r)
            q = params.q

            def c(m):
                return [-(q - 1 + (r - k) * (1 - k) ** (m - ell)) for ell in range(m)] + [k]

            for m in range(1, 17):
                fold = [0] * m
                for ell in range(1 - m % 2, m, 2):
                    for j, coeff in enumerate(c(ell)):
                        fold[j] += q ** ((m - ell - 1) // 2) * coeff
                # tuples: the rows built from them are cached and shared
                assert _weights(params, m) == (tuple(c(m)), tuple(fold)), (k, r, m)


def test_weight_rows_are_cached_per_time_and_bounded():
    # one entry per (graph, time), however many points ask and in both lanes;
    # the rows are shared, so they are tuples, and the cache never outgrows
    # its size
    rows = wave_module._rows
    rows.cache_clear()
    data = random_data(P34, random.Random(83))
    numeric = CauchyData(*(VertexFun.of(P34, {w: float(v) for w, v in fun.items()}, exact=False)
                           for fun in (data.initial, data.velocity)))
    for x in ball(P34, 1):
        for lane in (data, numeric):
            wave_closed_at(P34, lane, x, 3)
            wave_closed_at(P34, lane, x, -3)
    assert rows.cache_info().currsize == 1
    c, v = rows(P34, 3)
    assert (c, v) == _weights(P34, 3)
    assert type(c) is tuple and type(v) is tuple
    limit = rows.cache_info().maxsize
    assert limit is not None
    for n in range(1, limit + 10):
        wave_closed_at(P34, data, P34.identity(), n)
    assert rows.cache_info().currsize == limit


def reference_closed_at(params, data, x, n):
    """The closed form on numpy arrays, as it was computed before plain-number
    shell sums: a distance array, shell profiles by ``np.add.at``, the weight
    rows as arrays and matrix products.  Returns the value and the largest
    |weight x shell sum| term, over the same denominator.  Both lanes read
    the parts (A, B) of real data; the float lane rounds the exact value."""
    if n == 0:
        return data.initial.value(x), 0
    size, sign, q = abs(n), 1 if n > 0 else -1, params.q
    words, scale, columns, _ = data._encoded
    f_columns, g_columns = ([np.array(part, dtype=object) for part in parts] for parts in columns)
    dist = np.array([distance(x, y) for y in words], dtype=int)
    near = dist <= size

    def profile(part):
        out = np.zeros(size + 1, dtype=part.dtype)
        np.add.at(out, dist[near], part[near])
        return out

    def row(weights):
        return np.array([weights], dtype=object)

    c, v = _weights(params, size)
    c_row, v_row = row(c), row([2 * sign * w for w in v])
    f_shells = [profile(part)[:len(c)] for part in f_columns]
    g_shells = [profile(part)[:len(v)] for part in g_columns]
    p_parts = [(c_row @ shells)[0] for shells in f_shells]
    q_parts = [(v_row @ shells)[0] for shells in g_shells]
    den = 2 * params.k * scale
    (pa, pb), (qa, qb) = p_parts, q_parts  # sqrt(q) (A + B sqrt(q)) = qB + A sqrt(q)
    value = AlgebraicValue(pa + q * qb, pb + qa, q) / den / q_half_power(q, size)
    if data.exact:
        return value, 0
    terms = [c_row[0] * f_shells[0], v_row[0] * g_shells[0] * q ** 0.5]
    largest = max(float(np.max(np.abs(t), initial=0)) for t in terms)
    return float(value), largest / den / q ** (size / 2)


@pytest.mark.parametrize("params", [GraphParams(2, 2), GraphParams(2, 3), GraphParams(3, 2),
                                    GraphParams(3, 4), GraphParams(4, 3), GraphParams(3, 3),
                                    GraphParams(2, 4), GraphParams(5, 2)])
def test_closed_form_matches_the_array_reference(params):
    # sqrt-part fractional data out to radius 3, thinned so that every
    # sphere keeps words; points out to radius 3, so that at small |n| most
    # of the support lies beyond |n| from x
    full = fractional_data(params, random.Random(71), radius=3)
    f = dict(list(full.initial.data.items())[::3])
    g = dict(list(full.velocity.data.items())[1::4])
    points = list(ball(params, 1))[:4] + [w for w in ball(params, 3) if len(w) > 1][::40]
    for f_data, g_data in ((f, g), (f, {}), ({}, g)):
        exact = CauchyData(VertexFun.of(params, f_data), VertexFun.of(params, g_data))
        numeric = CauchyData(
            *(VertexFun.of(params, {w: float(v) for w, v in fun.items()}, exact=False)
              for fun in (exact.initial, exact.velocity)))
        for n in range(-6, 7):
            for x in points:
                want, _ = reference_closed_at(params, exact, x, n)
                assert repr(wave_closed_at(params, exact, x, n)) == repr(want), (x, n)
                want, largest = reference_closed_at(params, numeric, x, n)
                got = wave_closed_at(params, numeric, x, n)
                assert type(got) is float and abs(got - want) <= 1e-12 * largest, (x, n)


@pytest.mark.parametrize("params", [GraphParams(2, 3), GraphParams(2, 2), GraphParams(3, 4),
                                    GraphParams(3, 2), GraphParams(4, 3), GraphParams(5, 2)])
def test_ball_layout_matches_neighbors(params):
    # word j of sphere m >= 1 has its parent at j // q of sphere m - 1 (the
    # origin for m = 1), its siblings in its aligned block of k - 1 and its
    # children at j q .. j q + q - 1 of sphere m + 1
    k, q = params.k, params.q
    where = {y: (m, j) for m in range(6) for j, y in enumerate(sphere(params, m))}
    for x in ball(params, 4):
        m, j = where[x]
        assert position(x) == j
        if m == 0:
            rule = {(1, i) for i in range(params.degree)}
        else:
            block = j - j % (k - 1)
            rule = {(m - 1, j // q if m > 1 else 0)}
            rule |= {(m, i) for i in range(block, block + k - 1) if i != j}
            rule |= {(m + 1, j * q + i) for i in range(q)}
        found = [where[y] for y in neighbors(x)]
        assert len(found) == params.degree and set(found) == rule

    # the array operator of the stepper against the word-level neighbour sum
    rng = random.Random(47)
    fun = VertexFun.of(params, {w: rng.randint(-9, 9) for w in ball(params, 3)})
    offsets = [0]
    for m in range(6):
        offsets.append(offsets[-1] + params.delta(m))
    part = np.array([int(fun.value(w).a) for w in ball(params, 3)], dtype=object)
    got = _self_plus_neighbors(part, 3, 4, params, offsets)
    words = list(ball(params, 4))
    assert len(got) == len(words)
    for x, value in zip(words, got):
        assert value == fun.value(x) * (2 - k) + _neighbor_sum(fun, x)


def test_window_bound_refuses_before_enumerating(monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated a ball")

    monkeypatch.setattr(wave_module, "ball", refuse)
    data = CauchyData(VertexFun.delta_at(P34.identity()), VertexFun.of(P34, {}))
    with pytest.raises(ValueError, match=str(MAX_WINDOW_VALUES)):
        wave_direct(P34, data, 40)
    # a point source at (3, 4) fits six steps and not seven
    check_window(P34, 0, 6, 6)
    with pytest.raises(ValueError):
        check_window(P34, 0, 7, 7)


def test_float_recurrence_tolerance_scales_with_values():
    rng = random.Random(53)
    pool = list(ball(P34, 1))
    big = CauchyData(
        VertexFun.of(P34, {w: rng.uniform(-1, 1) * 1e9 for w in pool}, exact=False),
        VertexFun.of(P34, {w: rng.uniform(-1, 1) * 1e9 for w in pool}, exact=False),
    )
    field = wave_direct(P34, big, 4, observe_radius=2)
    field.check_recurrence(1)
    # a defect of one part in a million is still caught
    x = P34.generator(0)
    defect = dict(field.fields[1].data)
    defect[x] += 1e-6 * abs(defect[x])
    field.fields[1] = VertexFun(P34, defect, exact=False)
    with pytest.raises(AssertionError):
        field.check_recurrence(1)


def test_slices_are_read_only():
    data = CauchyData(VertexFun.delta_at(P34.identity()), VertexFun.of(P34, {}))
    lazy = wave_direct(P34, data, 2).fields[1].data
    x = P34.identity()
    before = lazy[x]
    with pytest.raises(TypeError):
        lazy[x] = 0
    with pytest.raises(TypeError):
        del lazy[x]
    assert not hasattr(lazy, "pop") and not hasattr(lazy, "update")
    assert lazy[x] == before and dict(lazy.items())[x] == before


def test_float_stepper_tracks_exact():
    rng = random.Random(43)
    pool = list(ball(P34, 1))
    values_f = {w: rng.randint(-3, 3) for w in pool}
    values_g = {w: rng.randint(-3, 3) for w in pool}
    exact = CauchyData(VertexFun.of(P34, values_f), VertexFun.of(P34, values_g))
    numeric = CauchyData(
        VertexFun.of(P34, {w: float(v) for w, v in values_f.items()}, exact=False),
        VertexFun.of(P34, {w: float(v) for w, v in values_g.items()}, exact=False),
    )
    exact_field = wave_direct(P34, exact, 3, observe_radius=1)
    float_field = wave_direct(P34, numeric, 3, observe_radius=1)
    for n in range(-3, 4):
        for x in pool:
            assert float_field.at(x, n) == pytest.approx(float(exact_field.at(x, n)), abs=1e-9)
            closed = wave_closed_at(P34, numeric, x, n)
            assert closed == pytest.approx(float(exact_field.at(x, n)), abs=1e-9)


def lane_data(params, lane, rng, radius):
    # small values over denominators 1-4 and a sqrt(q) part over 1 or 3 (an
    # imaginary part over 1 or 2 in the complex lane), so the parts stay far
    # inside the int64 bound, in the exact, float or complex lane
    def value():
        a = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 4)))
        b = Fraction(rng.randint(-9, 9), rng.choice((1, 3) if lane == "exact" else (1, 2)))
        if lane == "exact":
            return AlgebraicValue(a, b, params.q)
        return float(a) if lane == "float" else complex(float(a), float(b))

    pool = list(ball(params, radius))
    return CauchyData(*(VertexFun.of(params, {w: value() for w in pool[i::2]}, lane == "exact")
                        for i in (0, 1)))


@given(st.sampled_from([GraphParams(2, 3), GraphParams(3, 4), GraphParams(3, 3),
                        GraphParams(4, 3)]),
       st.sampled_from(["exact", "float", "complex"]), st.integers(1, 2), st.integers(1, 4),
       st.integers(0, 2), st.randoms(use_true_random=False))
def test_int64_steps_equal_object_steps(params, lane, radius, steps, observe, rng):
    # the int64 solve and the object solve of the same data give the same
    # values, of the same type and repr, in every slice
    data = lane_data(params, lane, rng, radius)
    assert wave_module._step_dtype(params, data._encoded[2], steps) is np.int64
    fast = wave_direct(params, data, steps, observe)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wave_module, "_step_dtype", lambda *args: object)
        slow = wave_direct(params, data, steps, observe)
    assert fast.times == slow.times and fast.valid_radius == slow.valid_radius
    for n in fast.times:
        same_values(dict(fast.fields[n].data.items()), dict(slow.fields[n].data.items()))


@pytest.mark.parametrize("params", [GraphParams(2, 3), GraphParams(3, 4), GraphParams(4, 3)])
def test_stepper_dtype_at_the_edge_of_its_bound(params, monkeypatch):
    # data whose largest part M is one below the least M with
    # M G^(steps + 1) >= 2^63 steps int64, and data with that M steps object;
    # both solves are == to the closed form everywhere
    steps, k, r, q = 3, params.k, params.r, params.q
    power = (2 * k + r * (k - 1) + 2 * q) ** (steps + 1)
    edge = -(-2**63 // power)
    chosen = []
    step_dtype = wave_module._step_dtype

    def spy(*args):
        chosen.append(step_dtype(*args))
        return chosen[-1]

    monkeypatch.setattr(wave_module, "_step_dtype", spy)
    pool = list(ball(params, 1))
    for top, dtype in ((edge - 1, np.int64), (edge, object)):
        f = {w: top if i % 2 else -top for i, w in enumerate(pool)}
        g = {w: top - i for i, w in enumerate(pool)}
        data = CauchyData(VertexFun.of(params, f), VertexFun.of(params, g))
        field = wave_direct(params, data, steps)
        assert chosen[-1] is dtype
        for n in range(-steps, steps + 1):
            for x in ball(params, 2):
                assert field.at(x, n) == wave_closed_at(params, data, x, n), (top, x, n)


def test_outside_computed_region_raises():
    data = CauchyData(VertexFun.delta_at(P34.identity()), VertexFun.of(P34, {}))
    field = wave_direct(P34, data, 2, observe_radius=0)
    with pytest.raises(ValueError):
        field.at(P34.identity(), 5)
    with pytest.raises(ValueError):
        far = P34.generator(0) * P34.generator(1) * P34.generator(2)
        field.at(far, 2)


def test_stepper_refuses_a_negative_observe_radius(monkeypatch):
    def refuse(*args):
        raise AssertionError("started work")

    for name in ("ball", "ball_size"):
        monkeypatch.setattr(wave_module, name, refuse)
    data = CauchyData(VertexFun.delta_at(P34.identity()), VertexFun.of(P34, {}))
    for radius in (-1, -4):
        with pytest.raises(ValueError, match="observe_radius"):
            wave_direct(P34, data, 3, observe_radius=radius)


@pytest.mark.parametrize("params", [GraphParams(2, 3), GraphParams(3, 3), GraphParams(4, 3)])
@pytest.mark.parametrize("exact", [True, False])
def test_slices_decode_on_read(params, exact, monkeypatch):
    # a slice keeps its parts: len decodes nothing, a word read decodes one
    # value with one decoder call, a full read decodes each value once in
    # ball() order, and every read agrees with the word-by-word reference
    # and with every other read
    steps, observe = 3, 1
    data = fractional_data(params, random.Random(63))
    reference = stepped_reference(params, data, steps, observe)
    if not exact:
        data = CauchyData(*(VertexFun.of(params, {w: float(v) for w, v in fun.items()}, exact=False)
                            for fun in (data.initial, data.velocity)))
    ring = data.initial.ring
    decodes = []  # the time of each one-value decoder call
    decoder = type(ring).decoder

    def counted(self, scale, m):
        one = decoder(self, scale, m)

        def counting(*parts):
            decodes.append(m)
            return one(*parts)

        return counting

    monkeypatch.setattr(type(ring), "decoder", counted)
    field = wave_direct(params, data, steps, observe_radius=observe)
    eager = wave_direct(params, data, steps, observe_radius=observe)
    stranger, zeros = GraphParams(3, 4).identity(), []
    for n in [m for m in range(-steps, steps + 1) if m]:
        radius = min(data.support_radius + abs(n), observe + steps - abs(n))
        words = list(ball(params, radius))
        lazy, full = field.fields[n].data, eager.fields[n].data
        del decodes[:]
        assert len(lazy) == len(full) == len(words)
        assert decodes == []
        assert stranger not in lazy
        with pytest.raises(KeyError):
            lazy[stranger]
        before = [lazy[x] for x in words]
        if field.valid_radius[n] > radius:
            past = next(iter(sphere(params, radius + 1)))
            assert past not in lazy
            zeros.append(field.at(past, n))
        assert decodes == [abs(n)] * len(words)
        # a full read of a slice never read before decodes each value once,
        # in ball() order, and a second full read decodes every value again,
        # to equal values with equal repr
        items = list(full.items())
        assert decodes[len(words):] == [abs(n)] * len(words)
        again = list(full.items())
        assert again == items and len(decodes) == 3 * len(words)
        assert [repr(v) for _, v in again] == [repr(v) for _, v in items]
        assert [x for x, _ in items] == words
        for x, (_, value), one in zip(words, items, before):
            assert value == one and repr(value) == repr(one)
            if exact:
                assert value == reference[n][x] and repr(value) == repr(reference[n][x])
            else:
                assert value == pytest.approx(float(reference[n][x]), rel=1e-9)
        # reads of a read slice agree with the reads before it
        list(lazy.values())
        after = [lazy[x] for x in words]
        assert [repr(v) for v in after] == [repr(v) for v in before]
    assert zeros and all(repr(z) == repr(ring.zero) for z in zeros)


def test_asgeirsson_eigenfunction_fixture():
    for params, gamma in [(GraphParams(3, 2), Fraction(1, 2)),
                          (GraphParams(2, 4), Fraction(-1, 3))]:
        table = spherical_phi(params, gamma, 10)

        def U(a, b):
            return table[len(a)] * table[len(b)]

        x, y = params.identity(), params.generator(0)
        for m, n in [(0, 3), (1, 2), (2, 4), (3, 3)]:
            lhs, rhs = asgeirsson_means(params, U, x, y, m, n)
            assert lhs == rhs


def test_asgeirsson_rejects_non_solutions():
    params = GraphParams(3, 2)

    def bad(a, b):
        return Fraction(len(a) * len(a) + 1)

    with pytest.raises(ValueError):
        asgeirsson_means(params, bad, params.identity(), params.generator(0), 1, 2)


def test_asgeirsson_wave_lift():
    # U(x, y) = q^(h(y)/2) u(x, h(y)) for a velocity-free wave solution
    rng = random.Random(41)
    params = GraphParams(2, 3)
    data = random_data(params, rng, with_velocity=False)
    x, y = params.identity(), params.identity()
    m_max = n_max = 3
    steps = n_max + 1
    field = wave_direct(params, data, steps, observe_radius=m_max + 1)
    ray = BoundaryRay.alternating(params, steps + n_max + 2)

    def U(a, b):
        h = busemann(b, ray)
        return q_half_power(params.q, h) * field.at(a, h)

    for m, n in [(1, 2), (2, 3), (3, 3), (0, 2)]:
        lhs, rhs = asgeirsson_means(params, U, x, y, m, n)
        assert lhs == rhs


def test_zero_steps_return_time_zero_alone():
    params = GraphParams(3, 4)
    f = VertexFun.of(params, {params.generator(0): Fraction(1, 3)})
    field = wave_direct(params, CauchyData(f, VertexFun.of(params, {})), 0)
    assert field.times == [0] and field.fields[0].data == f.data
    assert field.at(params.generator(0), 0) == Fraction(1, 3)


@pytest.mark.parametrize("make, message", [
    (lambda f, g: wave_direct(f.params, CauchyData(f, g), -1), "steps must be nonnegative"),
    (lambda f, g: wave_direct(f.params, CauchyData(f, g), 1, observe_radius=-1),
     "observe_radius must be nonnegative"),
    (lambda f, g: CauchyData(f, VertexFun.of(GraphParams(2, 3), {})), "different graphs"),
    (lambda f, g: CauchyData(f, VertexFun.of(f.params, {}, exact=False)),
     "arithmetic flavour"),
], ids=["negative steps", "negative observe_radius", "data on another graph",
        "data in another lane"])
def test_the_stepper_and_its_data_refuse_what_they_document(make, message):
    params = GraphParams(3, 4)
    f, g = VertexFun.delta_at(params.generator(0)), VertexFun.of(params, {})
    with pytest.raises(ValueError, match=message):
        make(f, g)
