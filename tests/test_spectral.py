import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from symgraph.algebraic import AlgebraicValue, ring_of
from symgraph.boundary import BoundaryRay, DepthError, shell_sums
from symgraph.spectral import (
    VertexFun,
    _cylinder_profile,
    _plancherel_integral,
    c_func,
    convolve,
    convolve_radial,
    fourier_grid,
    fourier_z,
    fourier_z_inv,
    gamma_atom,
    gamma_of,
    gauss_legendre_adaptive,
    helgason_norm_sq,
    helgason_transform,
    helgason_via_horocycles,
    invert_helgason,
    invert_spherical,
    kunze_stein_check,
    phi_oracle,
    plancherel_density,
    plancherel_norm,
    plancherel_segment,
    radialize,
    spherical_means_at,
    spherical_phi,
    spherical_transform,
    spherical_transform_atom,
)
from symgraph.transforms import EvenSeq, RadialSeq, abel
from symgraph.words import GraphParams, ReducedWord, SpectralDomainError, ball, sphere

P34 = GraphParams(3, 4)
SPECTRAL_GRID = [
    GraphParams(k, r) for k, r in itertools.product((2, 3, 4), repeat=2)
    if (k - 1) * (r - 1) >= 2
]


def random_vertex_fun(params, radius, rng, exact=False):
    pool = list(ball(params, radius))
    data = {w: rng.uniform(-1, 1) for w in pool if rng.random() < 0.8}
    if not data:
        data = {params.identity(): 1.0}
    return VertexFun.of(params, data, exact=exact)


def test_gamma_values():
    assert gamma_of(P34, 0.0) == pytest.approx((2 * math.sqrt(6) + 1) / 8)
    assert gamma_of(P34, 0.0) == pytest.approx(0.73737, abs=5e-6)
    assert gamma_of(P34, P34.tau / 2) == pytest.approx((1 - 2 * math.sqrt(6)) / 8)
    lo, hi = plancherel_segment(P34)
    assert (lo, hi) == (pytest.approx(gamma_of(P34, P34.tau / 2)), pytest.approx(gamma_of(P34, 0.0)))
    # alpha - beta = 1 - gamma(0)
    assert float(P34.spectral_gap) == pytest.approx(1 - gamma_of(P34, 0.0))
    with pytest.raises(SpectralDomainError):
        gamma_of(GraphParams(2, 2), 0.1)


def test_gamma_atom_value():
    assert gamma_atom(GraphParams(3, 2)) == Fraction(-1, 2)


def test_spherical_phi_basics():
    table = spherical_phi(P34, gamma_of(P34, 0.3), 5)
    assert table[0] == 1.0
    assert table[1] == pytest.approx(gamma_of(P34, 0.3))


def test_phi_recurrence_matches_boundary_oracle():
    for params in (P34, GraphParams(3, 2), GraphParams(4, 4)):
        lam = 0.21 * params.tau
        table = spherical_phi(params, gamma_of(params, lam), 3)
        for n in range(4):
            x = next(iter(sphere(params, n)))
            assert abs(phi_oracle(params, lam, x, n + 1) - table[n]) < 1e-12


def test_phi_oracle_is_radial():
    lam = 0.4
    values = {complex(round(phi_oracle(P34, lam, x, 3).real, 10),
                      round(phi_oracle(P34, lam, x, 3).imag, 10))
              for x in sphere(P34, 2)}
    assert len(values) == 1


def test_phi_bounded_by_phi0():
    for params in SPECTRAL_GRID:
        phi0 = spherical_phi(params, gamma_of(params, 0.0), 10)
        for lam in np.linspace(0.05, params.tau / 2, 7):
            table = spherical_phi(params, gamma_of(params, lam), 10)
            for n in range(11):
                assert abs(table[n]) <= phi0[n] + 1e-12


def test_c_func_symmetry_and_poles():
    lam = 0.37
    assert c_func(P34, -lam) == pytest.approx(c_func(P34, lam).conjugate())
    with pytest.raises(ValueError):
        c_func(P34, 0.0)
    # density vanishes at both endpoints and is finite inside
    assert plancherel_density(P34, 0.0) == 0.0
    assert plancherel_density(P34, P34.tau / 2) == pytest.approx(0.0, abs=1e-12)
    mid = plancherel_density(P34, P34.tau / 4)
    assert mid == pytest.approx(
        P34.q * math.log(P34.q) / (2 * math.pi * P34.degree) / abs(c_func(P34, P34.tau / 4)) ** 2
    )


def test_density_removable_point_at_k_equals_r():
    p = GraphParams(3, 3)
    half = p.tau / 2
    limit = plancherel_density(p, half)
    assert math.isfinite(limit) and limit > 0
    assert plancherel_density(p, half - 1e-7) == pytest.approx(limit, rel=1e-4)


def test_density_total_mass():
    for params in SPECTRAL_GRID:
        value, err = gauss_legendre_adaptive(
            lambda lams: plancherel_density(params, lams), 0.0, params.tau / 2, 1e-10
        )
        atom = (params.k - params.r) / params.k if params.k > params.r else 0.0
        assert value + atom == pytest.approx(1.0, abs=1e-8)


def test_fourier_z_examples():
    g = EvenSeq.of(P34, [1])
    assert fourier_z(g, 0.7) == 1.0
    g = EvenSeq.of(P34, [0, 1, Fraction(-1, 2)])
    lam = 0.3
    assert fourier_z(g, lam + P34.tau) == pytest.approx(fourier_z(g, lam))
    assert fourier_z(g, -lam) == pytest.approx(fourier_z(g, lam))


def test_fourier_roundtrip():
    rng = random.Random(4)
    g = EvenSeq.of(P34, [rng.uniform(-1, 1) for _ in range(9)], exact=False)
    samples = fourier_z(g, fourier_grid(P34, 64))
    back = fourier_z_inv(P34, samples, 8)
    for n in range(9):
        assert abs(back.value(n) - g.value(n)) < 1e-10


def test_spherical_transform_factorizes():
    rng = random.Random(8)
    for params in SPECTRAL_GRID:
        f = RadialSeq.of(params, [rng.randint(-4, 4) for _ in range(5)])
        af = abel(f)
        for lam in np.linspace(0.01, params.tau / 2, 9):
            assert abs(spherical_transform(f, lam) - complex(fourier_z(af, lam))) < 1e-10


def test_spherical_transform_point_mass():
    f = RadialSeq.delta_origin(P34)
    assert spherical_transform(f, 0.456) == pytest.approx(1.0)


def test_transform_of_unit_sphere():
    f = RadialSeq.of(P34, [0, 1])
    lam = 0.77
    expected = 1 + 2 * math.sqrt(6) * math.cos(lam * math.log(6))
    assert spherical_transform(f, lam) == pytest.approx(expected)
    assert complex(fourier_z(abel(f), lam)) == pytest.approx(expected)


def test_atom_transform_exact():
    p = GraphParams(3, 2)
    f = RadialSeq.of(p, [1, Fraction(1, 2), 3])
    value = spherical_transform_atom(f)
    phi = spherical_phi(p, gamma_atom(p), 2)
    expected = 1 + Fraction(1, 2) * phi[1] * p.delta(1) + 3 * phi[2] * p.delta(2)
    assert value == expected


@pytest.mark.parametrize("k, r", [(4, 3), (3, 2)])
@pytest.mark.parametrize("size", [100, 300])
def test_atom_transform_of_floats_rounds_the_exact_sum_once(k, r, size):
    # the float recurrence at 1/(1-k) excites its second root, which delta(n)
    # amplifies: 300 float ones at (4, 3) read -1.94e126 against -1.02e90
    p = GraphParams(k, r)
    rng = random.Random(size)
    for values in ([1] * size, [Fraction(rng.randint(-9, 9), 8) for _ in range(size)]):
        want = float(spherical_transform_atom(RadialSeq.of(p, values)))
        got = spherical_transform_atom(RadialSeq.of(p, [float(v) for v in values], exact=False))
        assert type(got) is float and abs(got - want) <= 1e-12 * abs(want)
        mixed = [complex(v, -2 * v) for v in values]
        got = spherical_transform_atom(RadialSeq.of(p, mixed, exact=False))
        assert type(got) is complex
        assert abs(got - complex(want, -2 * want)) <= 1e-12 * abs(complex(want, -2 * want))


def test_helgason_point_mass_and_radial_agreement():
    rng = random.Random(2)
    lam = 0.52
    for ray in (BoundaryRay.alternating(P34, 5), BoundaryRay.random(P34, 5, rng)):
        assert helgason_transform(VertexFun.delta_at(P34.identity()), lam, ray) == pytest.approx(1.0)
    f = RadialSeq.of(P34, [1, Fraction(-1, 2), 2])
    fun = VertexFun.from_radial(f)
    want = complex(spherical_transform(f, lam))
    for ray in (BoundaryRay.alternating(P34, 4), BoundaryRay.random(P34, 4, rng)):
        got = helgason_transform(fun, lam, ray)
        assert got == pytest.approx(want)
        assert helgason_via_horocycles(fun, lam, ray) == pytest.approx(got)


def test_convolution_identity_on_transforms():
    rng = random.Random(6)
    f = random_vertex_fun(P34, 1, rng)
    chi = RadialSeq.of(P34, [rng.uniform(-1, 1) for _ in range(2)], exact=False)
    conv = convolve(f, VertexFun.from_radial(chi))
    ray = BoundaryRay.alternating(P34, 4)
    for lam in (0.2, 0.9):
        lhs = helgason_transform(conv, lam, ray)
        rhs = helgason_transform(f, lam, ray) * complex(spherical_transform(chi, lam))
        assert abs(lhs - rhs) < 1e-10


def test_plancherel_norm():
    rng = random.Random(12)
    assert plancherel_norm(RadialSeq.delta_origin(P34)).value == pytest.approx(1.0, abs=1e-6)
    for params in SPECTRAL_GRID:
        f = RadialSeq.of(params, [rng.uniform(-1, 1) for _ in range(4)], exact=False)
        direct = f.norm_sq()
        res = plancherel_norm(f, tol=1e-9)
        assert res.value == pytest.approx(direct, rel=1e-6)
        assert res.error < 1e-8


def test_plancherel_atom_regime():
    p = GraphParams(3, 2)
    assert plancherel_norm(RadialSeq.delta_origin(p)).value == pytest.approx(1.0, abs=1e-6)
    f = RadialSeq.of(p, [1, Fraction(1, 3), Fraction(-1, 2)])
    assert plancherel_norm(f).value == pytest.approx(float(f.norm_sq()), rel=1e-6)


def test_plancherel_atom_lifts_float_lanes_exactly():
    # a float-lane atom term is summed on the exact ring too, each plane of a
    # complex function apart: in floats the recurrence at 1/(1-k) read 300
    # ones at (4, 3) about 1e19 times too large
    p = GraphParams(4, 3)
    ones = RadialSeq.of(p, [1.0] * 300, exact=False)
    assert plancherel_norm(ones).value == pytest.approx(ones.norm_sq(), rel=1e-9)
    f = RadialSeq.of(p, [1 + 2j, 0.5 - 1j, 0.25j, 2.0], exact=False)
    assert plancherel_norm(f).value == pytest.approx(f.norm_sq(), rel=1e-9)
    for n in range(4):
        recovered = invert_spherical(f, next(iter(sphere(p, n)))).value
        assert recovered == pytest.approx(f.value(n).real, abs=1e-9)


def test_plancherel_norm_at_radius_8():
    # exact values out to radius 8, atom regimes (3,2), (4,2), (4,3) included
    rng = random.Random(8)
    for params in SPECTRAL_GRID:
        f = RadialSeq.of(params, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                  for _ in range(9)])
        direct = float(f.norm_sq())
        assert plancherel_norm(f).value == pytest.approx(direct, rel=1e-9), params


def test_inversion_radial():
    rng = random.Random(14)
    for params in SPECTRAL_GRID:
        f = RadialSeq.of(params, [rng.uniform(-1, 1) for _ in range(5)], exact=False)
        for n in range(5):
            x = next(iter(sphere(params, n)))
            res = invert_spherical(f, x)
            assert res.value == pytest.approx(f.value(n), abs=1e-6)


def test_nonradial_plancherel_and_inversion():
    rng = random.Random(16)
    for params in (GraphParams(2, 3), GraphParams(3, 3)):
        f = random_vertex_fun(params, 1, rng)
        res = helgason_norm_sq(f, depth=3)
        assert res.value == pytest.approx(f.norm_sq(), rel=1e-6)
        for x in list(ball(params, 1))[:3]:
            got = invert_helgason(f, x, depth=3)
            assert got.value == pytest.approx(f.value(x), abs=1e-6)


def test_nonradial_requires_k_below_r():
    p = GraphParams(3, 2)
    f = VertexFun.delta_at(p.identity(), exact=False)
    with pytest.raises(ValueError):
        helgason_norm_sq(f, depth=2)
    with pytest.raises(ValueError):
        invert_helgason(f, p.identity(), depth=2)


def test_boundary_integrals_refuse_a_depth_at_the_support_or_the_target():
    p = GraphParams(2, 3)
    f = VertexFun.of(p, {p.identity(): 1.0, next(iter(sphere(p, 2))): 0.5}, exact=False)
    x = next(iter(sphere(p, 3)))
    with pytest.raises(DepthError, match="depth > 2"):
        helgason_norm_sq(f, depth=2)
    with pytest.raises(DepthError, match="depth > 3"):
        invert_helgason(f, x, depth=3)
    assert invert_helgason(f, x, depth=4).value == pytest.approx(0.0, abs=1e-6)


# -- the nonradial integrals against their per-cylinder fold ----------------------
#
# Both integrals read one array walk of the cylinders.  These are the loops it
# replaces: one word and one ``shell_sums`` over the support per cylinder, a
# second ``shell_sums`` that pairs the amplitudes by the target's Busemann
# index, and the norm's 128-lambda chunks.  The amplitudes and the inversion
# must agree with ==, the norm to rounding.


def _reference_cylinder_profile(f, depth):
    params, radius = f.params, f.support_radius()
    support = [(x, (complex(v),)) for x, v in f.items()]
    cylinders = list(sphere(params, depth))
    z_values = np.arange(-radius, depth + 1)
    amp = np.zeros((len(cylinders), len(z_values)), dtype=complex)
    for i, y in enumerate(cylinders):
        amp[i] = shell_sums(y, support, depth + radius, 1, 0j)[0][::-1]
    return cylinders, z_values, amp, params.delta(depth)


def _reference_helgason_norm_sq(f, depth):
    _, z_values, amp, mass = _reference_cylinder_profile(f, depth)
    lnq = math.log(f.params.q)

    def factors(lams, gamma):
        out = np.empty(len(lams))
        for start in range(0, len(lams), 128):
            chunk = lams[start:start + 128]
            powers = np.exp(np.multiply.outer((0.5 + 1j * chunk) * lnq, z_values))
            fhat = powers @ amp.T
            out[start:start + 128] = (np.abs(fhat) ** 2).sum(axis=1) / mass
        return (out,)

    return _plancherel_integral(f.params, factors, 1e-9)


def _reference_invert_helgason(f, x, depth):
    cylinders, z_values, amp, mass = _reference_cylinder_profile(f, depth)
    lnq = math.log(f.params.q)
    sums = shell_sums(x, zip(cylinders, amp), depth + len(x), len(z_values), 0j)
    paired = np.array(list(zip(*sums))[depth + len(x):depth - len(x) - 1:-1])

    def factors(lams, gamma):
        fwd = np.exp(np.multiply.outer((0.5 + 1j * lams) * lnq, z_values))
        back = np.exp(np.multiply.outer((0.5 - 1j * lams) * lnq, np.arange(-len(x), len(x) + 1)))
        return (np.einsum("lz,lw,wz->l", fwd, back, paired) / mass,)

    return _plancherel_integral(f.params, factors, 1e-9)


def _support(params, radius, lane, rng):
    """A random function on ball(radius) in one lane: float, complex or exact
    with values a/b + c/d sqrt(q)."""
    def value():
        if lane == "exact":
            return AlgebraicValue(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                                  Fraction(rng.randint(-9, 9), rng.randint(1, 9)), params.q)
        if lane == "complex":
            return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return rng.uniform(-1, 1)

    data = {w: value() for w in ball(params, radius) if rng.random() < 0.7}
    return VertexFun.of(params, data or {params.identity(): value()}, exact=lane == "exact")


@pytest.mark.parametrize("k, r", [(2, 3), (3, 3), (3, 4), (2, 5)])
@pytest.mark.parametrize("lane", ["float", "complex", "exact"])
def test_cylinder_walk_equals_the_per_cylinder_fold(k, r, lane):
    params = GraphParams(k, r)
    rng = random.Random(k * 10 + r)
    targets = [next(iter(sphere(params, n))) for n in range(3)] + [list(sphere(params, 2))[-1]]
    for radius in range(3):
        f = _support(params, radius, lane, rng)
        for depth in range(f.support_radius() + 1, 5):
            _, z_values, amp, mass = _cylinder_profile(f, depth)
            _, want_z, want_amp, want_mass = _reference_cylinder_profile(f, depth)
            # the walk keeps the indices z <= radius; the reference's columns
            # past them are all zero
            width = 2 * f.support_radius() + 1
            assert np.array_equal(z_values, want_z[:width]) and mass == want_mass
            assert not want_amp[:, width:].any(), (radius, depth)
            assert amp.dtype == want_amp.dtype, (radius, depth)
            assert np.array_equal(amp, want_amp[:, :width]), (radius, depth)
            got, want = helgason_norm_sq(f, depth), _reference_helgason_norm_sq(f, depth)
            assert abs(got.value - want.value) <= 1e-14 * abs(want.value), (radius, depth)
            for x in targets:
                if len(x) < depth:
                    got = invert_helgason(f, x, depth)
                    assert got == _reference_invert_helgason(f, x, depth), (radius, depth, x)


def test_convolution_group_identities():
    rng = random.Random(18)
    f = random_vertex_fun(P34, 1, rng)
    delta = VertexFun.delta_at(P34.identity(), exact=False)
    conv = convolve(f, delta)
    assert set(conv.data) == set(f.data)
    for x, v in f.items():
        assert conv.value(x) == pytest.approx(v)
    a, b = P34.generator(0), P34.generator(1, 2)
    point = convolve(VertexFun.delta_at(a), VertexFun.delta_at(b))
    assert point.data == {a * b: AlgebraicValue(1, 0, 6)}


def reference_convolve(f, g):
    """The pairwise sum of f(y) g(z) over y * z, in pair order."""
    ring = ring_of(f.params.q, f.exact and g.exact)
    out = {}
    for y, fv in f.items():
        for z, gv in g.items():
            w = y * z
            out[w] = out.get(w, ring.zero) + ring.coerce(fv) * ring.coerce(gv)
    return out


@pytest.mark.parametrize("k, r", [(2, 3), (2, 4), (3, 3), (3, 4), (4, 3)])
@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
def test_convolve_matches_the_pairwise_products(k, r, exact):
    # same keys in the same order, values == in the exact lane and bit for
    # bit in the float lane; g holds inverses of f's words, so some products
    # cancel to the identity and many more merge or cancel at the junction
    params = GraphParams(k, r)
    rng = random.Random(k * 10 + r)
    pool = list(ball(params, 2))
    for _ in range(3):
        support = rng.sample(pool, min(12, len(pool)))
        others = [~x for x in support[:6]] + rng.sample(pool, 6)
        if exact:
            def value():
                return AlgebraicValue(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                                      Fraction(rng.randint(-9, 9), rng.randint(1, 5)), params.q)
        else:
            def value():
                return rng.uniform(-1, 1)
        f = VertexFun.of(params, {x: value() for x in support}, exact)
        g = VertexFun.of(params, {x: value() for x in others}, exact)
        got, expected = convolve(f, g).data, reference_convolve(f, g)
        assert list(got) == list(expected)
        assert params.identity() in got
        for w, v in got.items():
            assert v == expected[w] and repr(v) == repr(expected[w])
            assert w.params is params and hash(w) == hash(ReducedWord(params, w.syllables))


def test_convolve_radial_path_agrees():
    # the gather adds each output's terms in convolve's order, so the two
    # agree bit for bit, word for word and in order, in both lanes
    rng = random.Random(19)
    root = AlgebraicValue(0, 1, P34.q)
    float_f = random_vertex_fun(P34, 1, rng)
    exact_f = VertexFun.of(P34, {w: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                 for w in ball(P34, 2) if rng.random() < 0.5})
    for f, chi in (
            (float_f, RadialSeq.of(P34, [rng.uniform(0, 1) for _ in range(3)], exact=False)),
            (float_f, RadialSeq.of(P34, [Fraction(1, 3), root, 0, 2])),
            (exact_f, RadialSeq.of(P34, [Fraction(1, 3), root, Fraction(-2, 7)])),
            (exact_f, RadialSeq.of(P34, [0.25, -1.5], exact=False))):
        direct = convolve(f, VertexFun.from_radial(chi))
        gathered = convolve_radial(f, chi)
        assert gathered.exact == direct.exact == (f.exact and chi.exact)
        assert list(gathered.data) == list(direct.data)
        for x, v in direct.items():
            assert gathered.data[x] == v and repr(gathered.data[x]) == repr(v)
            assert hash(x) == hash(ReducedWord(P34, x.syllables))


def test_radial_convolution_is_radial():
    chi = RadialSeq.of(P34, [1, Fraction(1, 2)])
    psi = RadialSeq.of(P34, [0, 1])
    conv = convolve(VertexFun.from_radial(chi), VertexFun.from_radial(psi))
    rad = radialize(conv)
    for x, v in conv.items():
        assert v == rad.value(len(x))


def test_spherical_means_refuse_a_negative_radius_and_vanish_past_the_support():
    # a ValueError as from delta(-1), not an IndexError from the shell list
    f = VertexFun.delta_at(P34.identity())
    with pytest.raises(ValueError, match="radius must be nonnegative"):
        spherical_means_at(f, P34.identity(), -1)
    # past |x| + the support radius no word is on the sphere
    x = P34.generator(0)
    assert spherical_means_at(f, x, 1) == Fraction(1, P34.delta(1))
    for n in (0, 2, 3, 400):
        assert spherical_means_at(f, x, n) == 0


def test_radialize_and_means():
    rng = random.Random(21)
    f = random_vertex_fun(P34, 2, rng)
    rad = radialize(f)
    # projection fixes radial functions
    g = VertexFun.from_radial(RadialSeq.of(P34, [1, 2], ))
    assert radialize(g).values[:2] == (AlgebraicValue(1, 0, 6), AlgebraicValue(2, 0, 6))
    assert spherical_means_at(f, P34.identity(), 1) == pytest.approx(rad.value(1))
    # pairing <f#, g> = <f, g#> over the vertex set
    g = random_vertex_fun(P34, 2, rng)
    radf, radg = radialize(f), radialize(g)
    lhs = sum(radf.value(len(x)) * v for x, v in g.items())
    rhs = sum(radg.value(len(x)) * v for x, v in f.items())
    assert lhs == pytest.approx(rhs)


def test_kunze_stein_report():
    rng = random.Random(25)
    for params in [p for p in SPECTRAL_GRID if p.k <= p.r]:
        for _ in range(10):
            f = random_vertex_fun(params, 1, rng)
            chi = RadialSeq.of(params, [rng.uniform(0, 1) for _ in range(3)], exact=False)
            report = kunze_stein_check(f, chi)
            assert report.core_ratio <= 1 + 1e-12
            assert report.young_ratio <= 1 + 1e-12
            assert report.holder_ratio <= 1 + 1e-12
            # the check reads the sums of the public convolution, in its order
            conv = convolve(f, VertexFun.from_radial(chi))
            assert report.conv_l2 == math.sqrt(abs(conv.norm_sq()))


def test_kunze_stein_exact_lane():
    # exact f and kernel: the convolution and both L2 norms are summed exactly
    # and rounded once, and the ratios agree with the float lane's
    rng = random.Random(26)
    for params in (GraphParams(2, 3), P34):
        root = AlgebraicValue(0, 1, params.q)
        data = {w: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for w in ball(params, 1) if rng.random() < 0.8}
        data[params.identity()] = root
        f = VertexFun.of(params, data)
        chi = RadialSeq.of(params, [Fraction(1, 2), root / 5, Fraction(1, 7)])
        report = kunze_stein_check(f, chi)
        conv = convolve(f, VertexFun.from_radial(chi))
        assert conv.exact and report.conv_l2 == math.sqrt(abs(conv.norm_sq()))
        as_float = kunze_stein_check(
            VertexFun.of(params, {w: float(v) for w, v in data.items()}, exact=False),
            RadialSeq.of(params, [float(v) for v in chi.values], exact=False))
        for name in ("core_ratio", "young_ratio", "holder_ratio", "core_bound", "conv_l2"):
            assert getattr(report, name) == pytest.approx(getattr(as_float, name), rel=1e-12)
        assert max(report.core_ratio, report.young_ratio, report.holder_ratio) <= 1 + 1e-12


def test_kunze_stein_point_mass():
    f = VertexFun.delta_at(P34.identity(), exact=False)
    chi = RadialSeq.of(P34, [1, Fraction(1, 2)])
    report = kunze_stein_check(f, chi)
    assert report.core_ratio <= 1 + 1e-12
    with pytest.raises(ValueError):
        kunze_stein_check(f, RadialSeq.of(P34, [-1], exact=False))
    with pytest.raises(ValueError):
        kunze_stein_check(
            VertexFun.delta_at(GraphParams(3, 2).identity(), exact=False),
            RadialSeq.of(GraphParams(3, 2), [1], exact=False),
        )


def test_quadrature_reports_error():
    value, err = gauss_legendre_adaptive(lambda xs: np.sin(xs), 0.0, math.pi, 1e-12)
    assert value == pytest.approx(2.0, abs=1e-12)
    assert err <= 1e-12


def test_gauss_legendre_nodes_are_built_once_per_order_and_read_only():
    from symgraph.spectral import _gauss_legendre_nodes

    assert _gauss_legendre_nodes.cache_info().maxsize == 8
    for order in (32, 64, 128, 256, 512):
        nodes, weights = _gauss_legendre_nodes(order)
        want_nodes, want_weights = np.polynomial.legendre.leggauss(order)
        assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)
        assert _gauss_legendre_nodes(order)[0] is nodes
        for array in (nodes, weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


def test_quadrature_failure_carries_achieved_error():
    from symgraph.spectral import QuadratureError

    with pytest.raises(QuadratureError) as err:
        gauss_legendre_adaptive(lambda xs: np.sin(997.3 * xs), 0.0, 3.0,
                                tol=1e-15, start_order=8, max_order=32)
    # the last change between levels, which missed the tolerance
    assert math.isfinite(err.value.achieved) and err.value.achieved > 1e-15


def test_degenerate_ring_rejected_everywhere():
    p = GraphParams(2, 2)
    f = RadialSeq.of(p, [1], exact=False)
    fun = VertexFun.delta_at(p.identity(), exact=False)
    ray = BoundaryRay.alternating(p, 3)
    for call in (
        lambda: gamma_of(p, 0.1),
        lambda: p.tau,
        lambda: spherical_transform(f, 0.1),
        lambda: fourier_z(EvenSeq.of(p, [1], exact=False), 0.1),
        lambda: phi_oracle(p, 0.1, p.identity(), 2),
        lambda: c_func(p, 0.1),
        lambda: plancherel_density(p, 0.1),
        lambda: plancherel_norm(f),
        lambda: invert_spherical(f, p.identity()),
        lambda: helgason_transform(fun, 0.1, ray),
        lambda: helgason_norm_sq(fun, 2),
        lambda: kunze_stein_check(fun, f),
    ):
        with pytest.raises(SpectralDomainError):
            call()


def test_pair_product_identity():
    # the spherical function of the quotient equals the cylinder average of
    # P(x, .)^(1/2 + i lam) P(y, .)^(1/2 - i lam), with cylinder depth
    # max(|x|, |y|) + 1 (checked empirically; the binding depth constraint)
    from symgraph.words import distance

    for params in (P34, GraphParams(2, 3)):
        lam = 0.4
        lnq = math.log(params.q)
        table = spherical_phi(params, gamma_of(params, lam), 4)
        for x in ball(params, 2):
            for y in list(ball(params, 2))[::3]:
                depth = max(len(x), len(y)) + 1
                total = 0.0 + 0.0j
                for w in sphere(params, depth):
                    zx = depth - distance(x, w)
                    zy = depth - distance(y, w)
                    total += cmath.exp((0.5 + 1j * lam) * zx * lnq) * cmath.exp(
                        (0.5 - 1j * lam) * zy * lnq
                    )
                total /= params.delta(depth)
                assert abs(total - table[distance(y, x)]) < 1e-12


OTHER = GraphParams(2, 3)


@pytest.mark.parametrize("call, error", [
    (lambda f: convolve(f, VertexFun.delta_at(OTHER.identity())), ValueError),
    (lambda f: convolve_radial(f, RadialSeq.of(OTHER, [1, 1])), ValueError),
    (lambda f: kunze_stein_check(f, RadialSeq.of(OTHER, [1, 1])), ValueError),
    (lambda f: helgason_transform(f, 0.3, BoundaryRay.alternating(P34, 1)), DepthError),
    (lambda f: helgason_via_horocycles(f, 0.3, BoundaryRay.alternating(P34, 1)), DepthError),
    (lambda f: phi_oracle(P34, 0.3, P34.generator(0), 1), DepthError),
], ids=["convolve", "convolve_radial", "kunze_stein_check", "helgason_transform",
        "helgason_via_horocycles", "phi_oracle"])
def test_operands_from_another_graph_and_shallow_rays_are_refused(call, error):
    # f sits at |x| = 1: a ray or cylinder depth of 1 is no deeper than it
    with pytest.raises(error):
        call(VertexFun.delta_at(P34.generator(0)))
