"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Exact criteria assert
with ==; numeric criteria pin the stated tolerance.  The default parameter
grid is k, r in {2, 3, 4}; spectral items restrict to q >= 2 and the
k <= r items say so.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from symgraph.algebraic import AlgebraicValue, q_half_power
from symgraph.boundary import BoundaryRay, busemann, sphere_horocycle_count
from symgraph.spectral import (
    VertexFun,
    convolve,
    fourier_z,
    gamma_of,
    helgason_norm_sq,
    helgason_transform,
    invert_helgason,
    invert_spherical,
    kunze_stein_check,
    phi_oracle,
    plancherel_norm,
    spherical_phi,
    spherical_transform,
)
from symgraph.transforms import (
    EvenSeq,
    RadialSeq,
    abel,
    abel_inv,
    abel_inv_rearranged,
    dual_abel,
    dual_abel_inv,
    dual_abel_inv_recurrence,
    dual_abel_via_counts,
    radon,
    schwartz_norm,
)
from symgraph.wave import (
    CauchyData,
    asgeirsson_means,
    wave_closed_at,
    wave_direct,
    wave_via_dual_abel_at,
)
from symgraph.words import GraphParams, ball, distance, sphere

GRID = [GraphParams(k, r) for k, r in itertools.product((2, 3, 4), repeat=2)]
SPECTRAL_GRID = [p for p in GRID if p.q >= 2]
SMOOTHING_GRID = [p for p in SPECTRAL_GRID if p.k <= p.r]


def fixture_rays(params, depth, seed):
    rng = random.Random(seed)
    base = BoundaryRay.alternating(params, depth)
    other = BoundaryRay.random(params, depth, rng)
    while other.prefix == base.prefix:
        other = BoundaryRay.random(params, depth, rng)
    return [base, other]


def random_radial(params, rng, size):
    return RadialSeq.of(params, [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                                 for _ in range(size)])


def zeta_counts(params, ray, radius):
    counts: dict = {}
    for x in ball(params, radius):
        key = (len(x), ray.depth - distance(x, ray.prefix))
        counts[key] = counts.get(key, 0) + 1
    return counts


def test_ac01_counting_lemma():
    started = time.monotonic()
    for params in GRID:
        for ray in fixture_rays(params, 6, seed=101):
            counts = zeta_counts(params, ray, 5)
            for n in range(6):
                for h in range(-5, 6):
                    assert counts.get((n, h), 0) == sphere_horocycle_count(params, n, h)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    print(f"AC01 counting lemma vs enumeration: PASS ({elapsed:.1f}s)")


def test_ac02_abel_forward_oracle():
    rng = random.Random(202)
    for params in GRID:
        rays = fixture_rays(params, 6, seed=202)
        tables = [zeta_counts(params, ray, 5) for ray in rays]
        for _ in range(20):
            f = random_radial(params, rng, rng.randint(1, 6))
            g = abel(f)
            for counts in tables:
                for h in range(-f.support_radius, f.support_radius + 1):
                    weighted = AlgebraicValue(0, 0, params.q)
                    for n in range(f.support_radius + 1):
                        weighted = weighted + f.value(n) * counts.get((n, h), 0)
                    assert g.value(h) == q_half_power(params.q, h) * weighted
        # the single-query enumeration path agrees as well
        f = random_radial(params, rng, 3)
        assert abel(f).value(1) == q_half_power(params.q, 1) * radon(f, rays[0], 1)
    print("AC02 Abel forward vs weighted Radon oracle (two rays): PASS")


def test_ac03_abel_round_trips():
    rng = random.Random(303)
    for params in GRID:
        for _ in range(50):
            f = random_radial(params, rng, rng.randint(1, 9))
            g = abel(f)
            assert abel_inv(g).values == f.values
            assert abel_inv_rearranged(g).values == f.values
            h = EvenSeq.of(params, [rng.randint(-9, 9) for _ in range(rng.randint(1, 9))])
            assert abel(abel_inv(h)).values == h.values
    print("AC03 Abel round trips, both formulas: PASS")


def test_ac04_support_corollary():
    rng = random.Random(404)
    for params in GRID:
        for _ in range(20):
            values = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))]
            values[-1] = rng.choice((1, -1, 2, -3))
            f = RadialSeq.of(params, values)
            assert abel(f).last_nonzero() == f.last_nonzero() == len(values) - 1
    print("AC04 support radius preserved by the Abel transform: PASS")


def test_ac05_duality_pairing():
    rng = random.Random(505)
    for params in GRID:
        for _ in range(50):
            f = random_radial(params, rng, rng.randint(1, 6))
            g = EvenSeq.of(params, [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))])
            fwd = dual_abel(g, n_max=f.support_radius)
            assert fwd.values == dual_abel_via_counts(g, n_max=f.support_radius).values
            lhs = AlgebraicValue(0, 0, params.q)
            for n in range(f.support_radius + 1):
                lhs = lhs + fwd.value(n) * f.value(n) * params.delta(n)
            af = abel(f)
            rhs = af.value(0) * g.value(0)
            for h in range(1, max(af.support_radius, g.support_radius) + 1):
                rhs = rhs + af.value(h) * g.value(h) * 2
            assert lhs == rhs
    print("AC05 dual transform adjoint to Abel (closed form == counting form): PASS")


def test_ac06_dual_round_trips():
    rng = random.Random(606)
    for params in GRID:
        for _ in range(50):
            g = EvenSeq.of(params, [rng.randint(-9, 9) for _ in range(rng.randint(1, 9))])
            assert dual_abel_inv(dual_abel(g)).values == g.values
            f = random_radial(params, rng, rng.randint(1, 9))
            assert dual_abel(dual_abel_inv(f)).values == f.values
            assert dual_abel_inv_recurrence(f).values == dual_abel_inv(f).values
    print("AC06 dual round trips, closed form == recurrence: PASS")


def test_ac07_spectral_bridge():
    rng = random.Random(707)
    for params in SPECTRAL_GRID:
        lams = np.linspace(0.0, params.tau / 2, 64)
        f = RadialSeq.of(params, [rng.uniform(-1, 1) for _ in range(7)], exact=False)
        af = abel(f)
        hf = spherical_transform(f, lams)
        fa = fourier_z(af, lams)
        assert np.max(np.abs(hf - fa)) <= 1e-10
        lam = 0.31 * params.tau
        lnq = math.log(params.q)
        # dual transform of h -> q^(i lam h): the odd part dies against the
        # h-symmetric weights q^(h/2) b(n, h), leaving the cosine sequence
        g = EvenSeq.of(params, [math.cos(h * lam * lnq) for h in range(11)], exact=False)
        means = dual_abel(g, n_max=10)
        table = spherical_phi(params, gamma_of(params, lam), 10)
        for n in range(11):
            assert abs(means.value(n) - table[n]) <= 1e-12
            signed = sum(
                complex(math.cos(h * lam * lnq), math.sin(h * lam * lnq))
                * params.q ** (h / 2.0) * sphere_horocycle_count(params, n, h)
                for h in range(-n, n + 1)
            ) / params.delta(n)
            assert abs(signed - table[n]) <= 1e-12
    print("AC07 spherical = Fourier after Abel; dual of the exponential = phi: PASS")


def test_ac08_spherical_oracle():
    for params in SPECTRAL_GRID:
        lams = np.linspace(0.013, params.tau / 2 - 0.01, 8)
        for n in range(5):
            x = next(iter(sphere(params, n)))
            oracle = phi_oracle(params, lams, x, n + 1)
            table = spherical_phi(params, gamma_of(params, lams), n)[n]
            assert np.max(np.abs(oracle - table)) <= 1e-12
    print("AC08 phi recurrence vs cylinder boundary integral: PASS")


def test_ac09_plancherel():
    rng = random.Random(909)
    for params in SMOOTHING_GRID + [GraphParams(3, 2)]:
        res = plancherel_norm(RadialSeq.delta_origin(params), tol=1e-9)
        assert abs(res.value - 1.0) <= 1e-6
        for _ in range(3):
            f = RadialSeq.of(params, [rng.uniform(-1, 1) for _ in range(7)], exact=False)
            direct = f.norm_sq()
            res = plancherel_norm(f, tol=1e-9)
            assert abs(res.value - direct) <= 1e-6 * direct
    print("AC09 Plancherel identity, continuous part and k > r atom: PASS")


def test_ac10_inversion():
    rng = random.Random(1010)
    for params in (GraphParams(3, 4), GraphParams(2, 3), GraphParams(3, 2)):
        f = RadialSeq.of(params, [rng.uniform(-1, 1) for _ in range(5)], exact=False)
        for n in range(5):
            x = next(iter(sphere(params, n)))
            res = invert_spherical(f, x, tol=1e-9)
            assert abs(res.value - f.value(n)) <= 1e-6
    heavy = {(2, 3): 4, (3, 3): 4, (3, 4): 3, (2, 4): 2, (4, 4): 1}
    for params in SMOOTHING_GRID:
        pool = list(ball(params, 2))
        fun = VertexFun.of(
            params, {w: rng.uniform(-1, 1) for w in pool if rng.random() < 0.7}, exact=False
        )
        res = helgason_norm_sq(fun, depth=4, tol=1e-9)
        assert abs(res.value - fun.norm_sq()) <= 1e-6 * max(fun.norm_sq(), 1.0)
        targets = heavy[(params.k, params.r)]
        for x in pool[:targets]:
            got = invert_helgason(fun, x, depth=4, tol=1e-9)
            assert abs(got.value - fun.value(x)) <= 1e-6
    print("AC10 inversion, radial (|x| <= 4) and boundary-integral (depth 4): PASS")


def test_ac11_convolution_identity():
    rng = random.Random(1111)
    for params in (GraphParams(3, 4), GraphParams(2, 3), GraphParams(4, 4)):
        pool = list(ball(params, 1))
        f = VertexFun.of(params, {w: rng.uniform(-1, 1) for w in pool}, exact=False)
        chi = RadialSeq.of(params, [rng.uniform(-1, 1) for _ in range(3)], exact=False)
        conv = convolve(f, VertexFun.from_radial(chi))
        for lam in (0.11, 0.52 * params.tau / 2):
            for ray in fixture_rays(params, 4, seed=1111):
                lhs = helgason_transform(conv, lam, ray)
                rhs = helgason_transform(f, lam, ray) * complex(spherical_transform(chi, lam))
                assert abs(lhs - rhs) <= 1e-10
    print("AC11 transform of a radial convolution factorizes: PASS")


def test_ac12_kunze_stein():
    rng = random.Random(1212)
    for params in SMOOTHING_GRID:
        for _ in range(100):
            pool = list(ball(params, 1))
            f = VertexFun.of(
                params, {w: rng.uniform(-1, 1) for w in pool if rng.random() < 0.8} or
                {params.identity(): 1.0},
                exact=False,
            )
            shell = rng.randint(0, 2)
            values = [0.0] * (shell + 1)
            values[shell] = rng.uniform(0.1, 1.0)
            chi = RadialSeq.of(params, values, exact=False)
            report = kunze_stein_check(f, chi)
            assert report.core_ratio <= 1 + 1e-12
            assert report.young_ratio <= 1 + 1e-12
            assert report.holder_ratio <= 1 + 1e-12
        # measured decay constant of phi_0 is bounded and non-increasing
        phi0 = spherical_phi(params, gamma_of(params, 0.0), 30)
        profile = [phi0[n] * params.q ** (n / 2) / (1 + n) for n in range(31)]
        assert max(profile) <= 1.0 + 1e-12
        for n in range(30):
            assert profile[n + 1] <= profile[n] + 1e-12
    print("AC12 smoothing inequality, endpoints, and phi0 decay profile: PASS")


def _wave_case(params, rng, data_radius, observe, steps):
    pool = list(ball(params, data_radius))
    data = CauchyData(
        VertexFun.of(params, {w: rng.randint(-3, 3) for w in pool}),
        VertexFun.of(params, {w: rng.randint(-3, 3) for w in pool}),
    )
    field = wave_direct(params, data, steps, observe_radius=observe)
    for n in range(-steps, steps + 1):
        for x in ball(params, observe):
            want = field.at(x, n)
            assert wave_closed_at(params, data, x, n) == want
            assert wave_via_dual_abel_at(params, data, x, n) == want


def test_ac13_wave_closed_vs_direct():
    rng = random.Random(1313)
    # one closed formula in every regime; k < r (full ball on the small graph)
    _wave_case(GraphParams(2, 3), rng, data_radius=3, observe=9, steps=6)
    _wave_case(GraphParams(3, 4), rng, data_radius=3, observe=1, steps=6)
    # k = r
    _wave_case(GraphParams(3, 3), rng, data_radius=3, observe=2, steps=6)
    # k > r, where the Plancherel measure has an atom
    _wave_case(GraphParams(3, 2), rng, data_radius=3, observe=9, steps=6)
    _wave_case(GraphParams(4, 3), rng, data_radius=3, observe=1, steps=6)

    # time parity
    for params in (GraphParams(3, 4), GraphParams(4, 3)):
        pool = list(ball(params, 1))
        f = VertexFun.of(params, {w: rng.randint(-3, 3) for w in pool})
        even = CauchyData(f, VertexFun.of(params, {}))
        odd = CauchyData(VertexFun.of(params, {}), f)
        even_field = wave_direct(params, even, 4, observe_radius=1)
        odd_field = wave_direct(params, odd, 4, observe_radius=1)
        for n in range(1, 5):
            for x in pool:
                assert even_field.at(x, n) == even_field.at(x, -n)
                assert odd_field.at(x, n) == -(odd_field.at(x, -n))

    # pinned spot value at (3, 4): u(o, 1) = -1/(2 sqrt 6)
    p34 = GraphParams(3, 4)
    point = CauchyData(VertexFun.delta_at(p34.identity()), VertexFun.of(p34, {}))
    expected = -q_half_power(6, -1) * Fraction(1, 2)
    assert wave_direct(p34, point, 1, observe_radius=0).at(p34.identity(), 1) == expected
    assert wave_closed_at(p34, point, p34.identity(), 1) == expected
    print("AC13 wave closed forms == exact stepper in all three regimes: PASS")


def test_ac14_asgeirsson():
    # eigenfunction fixture with rational averaging eigenvalue
    for params, gamma in [(GraphParams(3, 2), Fraction(1, 2)),
                          (GraphParams(2, 3), Fraction(-2, 3)),
                          (GraphParams(2, 4), Fraction(1, 3))]:
        table = spherical_phi(params, gamma, 12)

        def U(a, b):
            return table[len(a)] * table[len(b)]

        x, y = params.identity(), params.generator(0)
        for m in range(5):
            for n in range(5):
                lhs, rhs = asgeirsson_means(params, U, x, y, m, n)
                assert lhs == rhs

    # horocyclic lift of an exact wave solution
    rng = random.Random(1414)
    for params, pairs in [(GraphParams(2, 3), [(m, n) for m in range(5) for n in range(5)]),
                          (GraphParams(3, 3), [(1, 2), (2, 3), (0, 3), (2, 2)])]:
        pool = list(ball(params, 1))
        data = CauchyData(
            VertexFun.of(params, {w: rng.randint(-3, 3) for w in pool}),
            VertexFun.of(params, {}),
        )
        max_m = max(m for m, _ in pairs)
        max_n = max(n for _, n in pairs)
        steps = max_n + 2
        field = wave_direct(params, data, steps, observe_radius=max_m + 2)
        ray = BoundaryRay.alternating(params, steps + max_n + 3)

        def lift(a, b):
            h = busemann(b, ray)
            return q_half_power(params.q, h) * field.at(a, h)

        for m, n in pairs:
            lhs, rhs = asgeirsson_means(params, lift, params.identity(), params.identity(), m, n)
            assert lhs == rhs
    print("AC14 double spherical means symmetric for both fixtures: PASS")


def test_ac15_schwartz_diagnostics():
    params = GraphParams(3, 4)
    q = params.q
    for p in (1.0, 1.5, 2.0):
        for m in (0, 1, 2):
            constants = []
            for cutoff in (25, 30):
                values = [q ** (-n / p) * (1 + n) ** (-(m + 3.0)) for n in range(cutoff + 1)]
                f = RadialSeq.of(params, values, exact=False)
                af = abel(f)
                weighted = max(
                    (1 + h) ** m * q ** ((1 / p - 0.5) * h) * abs(af.value(h))
                    for h in range(cutoff + 1)
                )
                constant = weighted / schwartz_norm(f, p, m + 2)
                assert math.isfinite(constant)
                constants.append(constant)
            low, high = sorted(constants)
            assert high / low - 1.0 <= 0.05
    print("AC15 truncated Schwartz-norm constants finite and stable: PASS")
