import itertools
import random
from fractions import Fraction

import pytest

from symgraph.boundary import (
    BoundaryRay,
    DepthError,
    busemann,
    cylinder_measure,
    horocycle_section,
    poisson_power,
    poisson_power_exact,
    shell_sums,
    sphere_horocycle_count,
    translate_ray,
)
from symgraph.words import GraphParams, SpectralDomainError, ball, distance, sphere

P34 = GraphParams(3, 4)
P23 = GraphParams(2, 3)


def test_cylinder_measures():
    assert cylinder_measure(P34.generator(0)) == Fraction(1, 8)
    two = P23.generator(0) * P23.generator(1)
    assert cylinder_measure(two) == Fraction(1, 6)
    assert cylinder_measure(P34.identity()) == 1
    for m in (1, 2, 3):
        assert sum(cylinder_measure(x) for x in sphere(P34, m)) == 1


def test_busemann_examples():
    ray = BoundaryRay.alternating(P34, 5)
    assert busemann(P34.identity(), ray) == 0
    assert busemann(ray.node(1), ray) == 1
    # off the ray: a fresh generator starts a new branch (index -1), while a
    # different power of the ray's first generator stays on its polygon (index 0)
    assert busemann(P34.generator(2), ray) == -1
    assert busemann(P34.generator(0, 2), ray) == 0
    with pytest.raises(DepthError):
        busemann(ray.node(5), ray)


def test_busemann_depth_stability():
    rng = random.Random(0)
    ray = BoundaryRay.random(P34, 7, rng)
    for x in ball(P34, 3):
        assert busemann(x, ray) == busemann(x, ray.truncate(4))


def test_poisson_values():
    ray = BoundaryRay.alternating(P34, 4)
    assert poisson_power(P34.identity(), ray, 1 + 2j) == 1
    assert poisson_power(ray.node(1), ray, 1.0) == pytest.approx(6.0)
    assert poisson_power_exact(ray.node(1), ray, 2) == 6
    assert poisson_power_exact(ray.node(1), ray, 1).b == Fraction(1)  # sqrt(6)


def test_poisson_rejects_degenerate_ring():
    p22 = GraphParams(2, 2)
    ray = BoundaryRay.alternating(p22, 3)
    assert poisson_power(p22.identity(), ray, 0.5) == 1
    with pytest.raises(SpectralDomainError):
        poisson_power(p22.generator(0), ray, 0.5 + 1j)


def test_cocycle_exhaustive_radius_two():
    for params in (P23, P34):
        deep = BoundaryRay.alternating(params, 8)
        for x in ball(params, 2):
            for y in ball(params, 2):
                lhs = poisson_power_exact(x * y, deep, 2)
                rhs = poisson_power_exact(y, translate_ray(x, deep), 2) * poisson_power_exact(
                    x, deep, 2
                )
                assert lhs == rhs


def test_translate_ray_cancellation():
    ray = BoundaryRay.alternating(P34, 2)
    with pytest.raises(DepthError):
        translate_ray(ray.node(2), ray)
    shifted = translate_ray(ray.node(1), ray)
    assert shifted.depth == 1


def test_cocycle_complex_power():
    s = 0.5 + 0.8j
    deep = BoundaryRay.alternating(P34, 8)
    rng = random.Random(6)
    pool = list(ball(P34, 2))
    for _ in range(20):
        x, y = rng.choice(pool), rng.choice(pool)
        lhs = poisson_power(x * y, deep, s)
        rhs = poisson_power(y, translate_ray(x, deep), s) * poisson_power(x, deep, s)
        assert lhs == pytest.approx(rhs)


def test_horocycle_section_examples():
    ray = BoundaryRay.alternating(P34, 3)
    assert list(horocycle_section(ray, 0, 0)) == [P34.identity()]
    assert list(horocycle_section(ray, 2, 1)) == []
    with pytest.raises(DepthError):
        list(horocycle_section(ray, 0, 3))


def test_count_examples():
    assert all(sphere_horocycle_count(P34, h, h) == 1 for h in range(4))
    assert sphere_horocycle_count(P34, 1, 0) == 1  # sigma
    assert sphere_horocycle_count(P34, 2, -2) == 36  # q^2


def test_counts_match_enumeration():
    rng = random.Random(5)
    nmax = 4
    for k, r in itertools.product((2, 3, 4), repeat=2):
        params = GraphParams(k, r)
        rays = [BoundaryRay.alternating(params, nmax + 1)]
        rays += [BoundaryRay.random(params, nmax + 1, rng) for _ in range(3)]
        for ray in rays:
            seen: dict = {}
            for x in ball(params, nmax):
                key = (len(x), busemann(x, ray))
                seen[key] = seen.get(key, 0) + 1
            for n in range(nmax + 1):
                for h in range(-nmax, nmax + 1):
                    assert seen.get((n, h), 0) == sphere_horocycle_count(params, n, h)
                assert sum(c for (m, _), c in seen.items() if m == n) == params.delta(n)


def test_section_matches_counts():
    ray = BoundaryRay.alternating(P34, 4)
    for h in range(-3, 4):
        section = list(horocycle_section(ray, h, 3))
        expected = sum(sphere_horocycle_count(P34, n, h) for n in range(4))
        assert len(section) == expected
        assert len(set(section)) == len(section)


@pytest.mark.parametrize("params", [GraphParams(2, 3), GraphParams(3, 4), GraphParams(4, 3)])
def test_shell_sums_match_a_brute_force_fold(params):
    words = list(ball(params, 3))
    pairs = [(y, (Fraction(i + 1, 3), i * i - 5)) for i, y in enumerate(words)]
    for x in words[::19]:
        # the syllable count of the quotient, not distance(), fixes the shell
        profile = [len(~x * y) for y in words]
        for radius in range(7):
            want = [[0] * (radius + 1) for _ in range(2)]
            for d, (_, parts) in zip(profile, pairs):
                if d <= radius:
                    for j in range(2):
                        want[j][d] += parts[j]
            assert shell_sums(x, pairs, radius, 2) == want
            assert shell_sums(x, [], radius, 2) == [[0] * (radius + 1)] * 2
    # radius 6 holds every pair at distance <= 6, so nothing further is dropped
    x = words[-1]
    assert sum(shell_sums(x, pairs, 6, 1)[0]) == sum(parts[0] for _, parts in pairs)
    assert sum(shell_sums(x, pairs, 1, 1)[0]) < sum(parts[0] for _, parts in pairs)


def test_shell_sums_keep_the_pair_order_and_refuse_a_negative_radius():
    x = P34.generator(1, 2)
    spread = [(x, (1e16,)), (x, (1.0,)), (x, (-1e16,))]
    assert shell_sums(x, spread, 0, 1, 0.0) == [[0.0]]
    assert shell_sums(x, [spread[0], spread[2], spread[1]], 0, 1, 0.0) == [[1.0]]
    assert shell_sums(x, [], 2, 1, 0.0) == [[0.0, 0.0, 0.0]]
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        shell_sums(x, spread, -1, 1)


def test_walks_make_one_distance_call_per_word(monkeypatch):
    import symgraph.boundary
    from symgraph.spectral import VertexFun, helgason_norm_sq, phi_oracle
    from symgraph.wave import CauchyData, wave_closed_at

    calls = []

    def counted(x, y):
        calls.append(None)
        return distance(x, y)

    monkeypatch.setattr(symgraph.boundary, "distance", counted)
    a, b = P34.generator(0), P34.generator(1, 2)
    f = VertexFun.of(P34, {P34.identity(): 1, a: Fraction(1, 2)})
    data = CauchyData(f, VertexFun.of(P34, {a: 3, b * a: -1}))
    for n, want in ((0, 0), (1, 3), (-2, 3), (3, 3)):
        calls.clear()
        wave_closed_at(P34, data, b, n)
        assert len(calls) == want, n
    calls.clear()
    phi_oracle(P34, 0.4, b * a, 3)
    assert len(calls) == P34.delta(3)
    calls.clear()
    helgason_norm_sq(f, 2)
    assert len(calls) == P34.delta(2) * len(f.data)
