import cmath
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from symgraph.algebraic import AlgebraicValue
from symgraph.boundary import BoundaryRay
from symgraph.spectral import (
    VertexFun,
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
from symgraph.words import GraphParams, SpectralDomainError, ball, sphere

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


def test_inversion_radial():
    rng = random.Random(14)
    for params in (P34, GraphParams(3, 2)):
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


def test_convolve_radial_path_agrees():
    rng = random.Random(19)
    f = random_vertex_fun(P34, 1, rng)
    chi = RadialSeq.of(P34, [rng.uniform(0, 1) for _ in range(3)], exact=False)
    direct = convolve(f, VertexFun.from_radial(chi))
    shell = convolve_radial(f, chi)
    for x in set(direct.data) | set(shell.data):
        assert shell.value(x) == pytest.approx(direct.value(x), abs=1e-12)


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
