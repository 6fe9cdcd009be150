import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from symgraph.boundary import (
    BoundaryRay,
    DepthError,
    _busemann_index,
    _horocycle_profile,
    _sphere_horocycle_row,
    branch_shell_sums,
    busemann,
    cylinder_measure,
    horocycle_section,
    poisson_power,
    poisson_power_exact,
    shell_sums,
    sphere_horocycle_count,
    translate_ray,
)
from symgraph.algebraic import AlgebraicValue
from symgraph.words import (GraphParams, ReducedWord, SpectralDomainError, _syllable_distance,
                            ball, distance, sphere)

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


def test_tuple_busemann_index_is_busemann():
    rng = random.Random(5)
    for params in (P34, P23, GraphParams(4, 3)):
        for depth in (1, 2, 4):
            ray = BoundaryRay.random(params, depth, rng)
            prefix, parent = ray.prefix.syllables, ray.parent.syllables
            for x in ball(params, 3):
                if len(x) < depth:
                    assert _busemann_index(x.syllables, prefix, parent) == busemann(x, ray)
                    continue
                # a ray no deeper than |x| is too shallow on both routes
                with pytest.raises(DepthError):
                    _busemann_index(x.syllables, prefix, parent)
                with pytest.raises(DepthError):
                    busemann(x, ray)
    # a parent that is not the prefix's trips the depth-stability check
    prefix = BoundaryRay.alternating(P34, 4).prefix.syllables
    with pytest.raises(AssertionError, match="^busemann depth instability$"):
        _busemann_index((), prefix, prefix)
    with pytest.raises(ValueError, match="different graphs"):
        busemann(P23.identity(), BoundaryRay.alternating(P34, 2))


def test_busemann_checks_the_held_parent(monkeypatch):
    # the ray holds its parent node once; a distance that disagrees there
    # must still trip the depth-stability check on every call
    ray = BoundaryRay.alternating(P34, 4)
    assert ray.parent == ray.node(3)
    assert ray.parent is ray.parent

    def off_at_parent(a, b):
        return _syllable_distance(a, b) + (b == ray.node(3).syllables)

    monkeypatch.setattr("symgraph.boundary._syllable_distance", off_at_parent)
    for _ in range(2):
        with pytest.raises(AssertionError, match="^busemann depth instability$"):
            busemann(P34.identity(), ray)


def test_busemann_check_survives_optimized_mode():
    # python -O drops assert statements; the depth-stability check is an
    # explicit raise, so a distance one off at the parent still trips it
    script = (
        "import symgraph.boundary as boundary\n"
        "from symgraph.words import GraphParams, _syllable_distance\n"
        "ray = boundary.BoundaryRay.alternating(GraphParams(3, 4), 4)\n"
        "boundary._syllable_distance = lambda a, b: (\n"
        "    _syllable_distance(a, b) + (b == ray.parent.syllables))\n"
        "print(__debug__)\n"
        "try:\n"
        "    boundary.busemann(ray.params.identity(), ray)\n"
        "except AssertionError as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\nAssertionError busemann depth instability\n"


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


def _reference_sphere_horocycle_count(params, n, h):
    # the scalar closed form the row replaced, case by case
    q = params.q
    h_minus = min(0, h)
    if n < abs(h):
        return 0
    if n == abs(h):
        return q ** (-h_minus)
    gap = n - abs(h)
    if gap % 2:
        j = (gap + 1) // 2
        return params.sigma * q ** (-h_minus + j - 1)
    j = gap // 2
    return (params.r - 2) * (params.k - 1) * q ** (-h_minus + j - 1)


@pytest.mark.parametrize("k", range(2, 8))
def test_row_matches_the_case_by_case_formula(k):
    for r in range(2, 8):
        params = GraphParams(k, r)
        profile = _horocycle_profile(params, 61)
        for n in range(31):
            want = [_reference_sphere_horocycle_count(params, n, h) for h in range(-n, n + 1)]
            assert _sphere_horocycle_row(params, n, n) == want, (k, r, n)
            assert _sphere_horocycle_row(params, n, n + 5, profile) == want, (k, r, n)
            for width in (0, 1, n // 2):  # the middle of the full row
                assert _sphere_horocycle_row(params, n, width) == want[n - width: n + width + 1]
            for h in range(-n - 2, n + 3):
                assert sphere_horocycle_count(params, n, h) == (
                    _reference_sphere_horocycle_count(params, n, h)), (k, r, n, h)
    with pytest.raises(ValueError):
        _sphere_horocycle_row(P34, -1, 0)


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


def split_cases(params, rng):
    """(CauchyData, points) over sparse supports of radius 0-3, with and
    without the origin, the velocity empty or on half the support, in both
    lanes; then the empty data.  No support word starts with the syllable
    (r - 1, k - 1), so the first point's syllable is missing from it."""
    from symgraph.spectral import VertexFun
    from symgraph.wave import CauchyData

    missing = (params.r - 1, params.k - 1)
    outside = ReducedWord(params, (missing, (0, 1)))
    pool = [y for y in ball(params, 4) if y.syllables[:1] != (missing,)]
    for radius in range(4):
        for origin in (True, False):
            support = [y for y in ball(params, radius)
                       if y.syllables[:1] != (missing,) and (len(y) or origin)
                       and (len(y) < 2 or rng.random() < 0.7)]
            for exact in (True, False):
                def value():
                    a, b = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7))), Fraction(1, 5)
                    return AlgebraicValue(a, b, params.q) if exact else rng.uniform(-1, 1)

                f = VertexFun.of(params, {y: value() for y in support}, exact)
                for g in ({}, {y: value() for y in support[::2]}):
                    points = [outside, params.identity(), *rng.sample(pool, 4)]
                    yield CauchyData(f, VertexFun.of(params, g, exact)), points
    for exact in (True, False):
        empty = VertexFun.of(params, {}, exact)
        yield CauchyData(empty, empty), [outside, params.identity(), pool[-1]]


@pytest.mark.parametrize("params", [GraphParams(2, 2), GraphParams(2, 3), GraphParams(3, 2),
                                    GraphParams(3, 4), GraphParams(4, 3), GraphParams(4, 4),
                                    GraphParams(3, 5)])
def test_branch_split_matches_the_walk_over_every_pair(params):
    # k = 2 has no sibling exponents, and (2, 2) has q = 1; the encoded parts
    # are integers in both lanes, so the sums agree exactly
    rng = random.Random(params.k * 10 + params.r)
    for data, points in split_cases(params, rng):
        words, _, columns, branches = data._encoded
        width = 2 * len(columns[0])
        pairs = list(zip(words, zip(*(part for parts in columns for part in parts))))
        for x in points:
            for radius in range(len(x) + 6):
                want = shell_sums(x, pairs, radius, width)
                assert branch_shell_sums(x, branches, radius) == want, (x, radius)
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        branch_shell_sums(params.identity(), branches, -1)


def test_walks_make_one_distance_call_per_word(monkeypatch):
    import symgraph.boundary
    import symgraph.spectral
    from symgraph.spectral import VertexFun, helgason_norm_sq, phi_oracle
    from symgraph.wave import CauchyData, wave_closed_at

    calls = []

    def counted(x, y):
        calls.append(None)
        return distance(x, y)

    def counted_tuples(a, b):
        calls.append(None)
        return _syllable_distance(a, b)

    walks, walk_distances = [], symgraph.spectral._walk_distances

    def counted_rows(walk, centre):
        calls.extend([None] * len(walk.codes))
        walks.append(walk.spheres)
        return walk_distances(walk, centre)

    monkeypatch.setattr(symgraph.boundary, "distance", counted)
    monkeypatch.setattr(symgraph.boundary, "_syllable_distance", counted_tuples)
    monkeypatch.setattr(symgraph.spectral, "_walk_distances", counted_rows)
    a, b = P34.generator(0), P34.generator(1, 2)
    f = VertexFun.of(P34, {P34.identity(): 1, a: Fraction(1, 2)})
    data = CauchyData(f, VertexFun.of(P34, {a: 3, b * a: -1}))
    # the closed form measures only the words under x's first syllable: b a
    # under b's, none at e; e and a enter through the per-length sums.  The
    # profile of x is built on the first nonzero time and read at the others,
    # once per data
    for x, want in ((b, 1), (P34.identity(), 0)):
        for fresh in (data, CauchyData(data.initial, data.velocity)):
            for n, first in ((0, False), (1, True), (-2, False), (3, False)):
                calls.clear()
                wave_closed_at(P34, fresh, x, n)
                assert len(calls) == (want if first else 0), (x, n)
    calls.clear()
    # the boundary integral measures each cylinder once, walking only sphere 3
    phi_oracle(P34, 0.4, b * a, 3)
    assert len(calls) == P34.delta(3) and walks == [[(3, 0, P34.delta(3))]]
    calls.clear()
    helgason_norm_sq(f, 2)
    assert len(calls) == P34.delta(2) * len(f.data)
