"""Self-verification suites behind the ``verify`` CLI command.

Each suite replays the defining identities of one layer against an
independent evaluation path (vertex enumeration, adjoint pairing, direct
stepping) on deterministic pseudorandom fixtures.

A check is a generator of failures: for each discrepancy it yields a pair
(failure name, witness), the witness holding the inputs, the expected value
and the value obtained.  ``_check`` reads the first pair and stops there, so
a failed check does no further work and draws no further random numbers;
a check that yields nothing passes under its own name.  A suite is a short
list of ``_check`` calls sharing one seeded ``random.Random``.

The environment variable SYMGRAPH_FAULT exists for meta-testing: setting it
to "abel-coeff" perturbs one coefficient inside the Abel suite's candidate
path, which a healthy run must report as a failure (the suite is expected to
catch seeded faults, not only to pass).
"""

from __future__ import annotations

import os
import random
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from .boundary import BoundaryRay, _sphere_horocycle_row, busemann, translate_ray
from .spectral import (
    VertexFun,
    fourier_z,
    gamma_of,
    phi_oracle,
    plancherel_norm,
    spherical_phi,
    spherical_transform,
)
from .transforms import (
    EvenSeq,
    RadialSeq,
    _abel_via_radon_rays,
    abel,
    abel_inv,
    abel_inv_rearranged,
    dual_abel,
    dual_abel_inv,
    dual_abel_inv_recurrence,
    dual_abel_via_counts,
)
from .wave import CauchyData, wave_closed_at, wave_direct
from .words import (GraphParams, _walk, _walk_counts, _walk_distances, ball, ball_size, distance,
                    sphere)

__all__ = ["CheckResult", "SUITES", "run_suite", "grid_params"]

_Failures = Iterator[tuple[str, dict]]


@dataclass
class CheckResult:
    name: str
    ok: bool
    witness: dict = field(default_factory=dict)


def grid_params(kmin: int = 2, kmax: int = 4) -> list[GraphParams]:
    return [GraphParams(k, r) for k in range(kmin, kmax + 1) for r in range(kmin, kmax + 1)]


def _random_fractions(rng: random.Random, count: int) -> list[Fraction]:
    return [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(count)]


def _check(name: str, failures: _Failures) -> CheckResult:
    """The first failure that ``failures`` yields, with its witness as text,
    or a pass under ``name`` when it yields none."""
    for failed, witness in failures:
        return CheckResult(failed, False, {k: str(v) for k, v in witness.items()})
    return CheckResult(name, True)


# -- group suite ---------------------------------------------------------------


def _sphere_failures(params: GraphParams) -> _Failures:
    for n in range(5):
        words = list(sphere(params, n))
        if len(words) != params.delta(n) or any(len(w) != n for w in words):
            yield "sphere-count", dict(n=n, got=len(words), expected=params.delta(n))
        if len(set(words)) != len(words):
            yield "sphere-distinct", dict(n=n)


def _word_failures(params: GraphParams, rng: random.Random) -> _Failures:
    pool = list(ball(params, 3))
    for _ in range(60):
        x, y, z = (rng.choice(pool) for _ in range(3))
        if (x * y) * z != x * (y * z):
            yield "associativity", dict(x=x, y=y, z=z)
        if (x * ~x).syllables or distance(x, y) != len(~x * y):
            yield "inverse-distance", dict(x=x, y=y)
        if distance(x * y, x * z) != distance(y, z):
            yield "left-invariance", dict(x=x, y=y, z=z)
        if distance(x, z) > distance(x, y) + distance(y, z):
            yield "triangle", dict(x=x, y=y, z=z)


def suite_group(params: GraphParams, seed: int) -> list[CheckResult]:
    return [_check("sphere-count", _sphere_failures(params)),
            _check("word-algebra", _word_failures(params, random.Random(seed)))]


# -- boundary suite ---------------------------------------------------------------


def _fixture_rays(params: GraphParams, depth: int, rng: random.Random) -> list[BoundaryRay]:
    base = BoundaryRay.alternating(params, depth)
    other = BoundaryRay.random(params, depth, rng)
    while other.prefix == base.prefix:
        other = BoundaryRay.random(params, depth, rng)
    return [base, other]


def _horocycle_failures(params: GraphParams, rng: random.Random) -> _Failures:
    nmax = 4
    depth = nmax + 1
    rays = _fixture_rays(params, depth, rng)
    walk = _walk(params, nmax)  # one walk of the ball, measured for every ray
    # busemann's depth-stability check, on the words shorter than depth - 1:
    # depth - d(x, prefix) == (depth - 1) - d(x, parent)
    shorter = ball_size(params, depth - 2)
    tallies = []
    for ray in rays:
        distances = _walk_distances(walk, ray.prefix.syllables)
        parent = _walk_distances(walk, ray.parent.syllables)
        if (distances[:shorter] != parent[:shorter] + 1).any():
            raise AssertionError("busemann depth instability")
        tallies.append(_walk_counts(walk, distances))
    for ray, counts in zip(rays, tallies):  # counts[n][d]: horocycle depth - d of sphere n
        for n in range(nmax + 1):
            row = _sphere_horocycle_row(params, n, nmax)  # b(n, h) for |h| <= n
            for h in range(-nmax, nmax + 1):
                expected = row[n + h] if abs(h) <= n else 0
                got = counts[n][depth - h]
                if got != expected:
                    yield "horocycle-count", dict(ray=ray.prefix, n=n, h=h,
                                                  got=got, expected=expected)
        for n in range(nmax + 1):
            if sum(counts[n]) != params.delta(n):
                yield "horocycle-partition", dict(n=n, got=sum(counts[n]))


def _cocycle_failures(params: GraphParams, rng: random.Random) -> _Failures:
    deep = BoundaryRay.alternating(params, 8)
    pool = list(ball(params, 2))
    for _ in range(40):
        x, y = rng.choice(pool), rng.choice(pool)
        lhs = busemann(x * y, deep)
        rhs = busemann(y, translate_ray(x, deep)) + busemann(x, deep)
        if lhs != rhs:
            yield "cocycle", dict(x=x, y=y, got=lhs, expected=rhs)


def suite_boundary(params: GraphParams, seed: int) -> list[CheckResult]:
    rng = random.Random(seed)
    horocycles = _check("horocycle-count", _horocycle_failures(params, rng))
    if not horocycles.ok:  # a horocycle failure skips the cocycle check
        return [horocycles]
    return [horocycles, _check("cocycle", _cocycle_failures(params, rng))]


# -- Abel suite ----------------------------------------------------------------------


def _abel_failures(params: GraphParams, rng: random.Random) -> _Failures:
    for trial in range(6):
        f = RadialSeq.of(params, _random_fractions(rng, rng.randint(1, 5)))
        g = abel(f)
        if os.environ.get("SYMGRAPH_FAULT") == "abel-coeff":
            g = EvenSeq(params, (g.values[0] + 1, *g.values[1:]), True)
        rays = _fixture_rays(params, f.support_radius + 1, rng)
        for ray, oracle in zip(rays, _abel_via_radon_rays(f, rays)):  # one walk, both rays
            if g.values != oracle.values:
                yield "abel-oracle", dict(trial=trial, ray=ray.prefix,
                                          got=[str(v) for v in g.values],
                                          expected=[str(v) for v in oracle.values])
        back = abel_inv(g)
        if back.values != f.values:
            yield "abel-roundtrip", dict(trial=trial, f=[str(v) for v in f.values])
        if abel_inv_rearranged(g).values != back.values:
            yield "abel-inv-variants", dict(trial=trial)


def suite_abel(params: GraphParams, seed: int) -> list[CheckResult]:
    return [_check("abel-forward-inverse", _abel_failures(params, random.Random(seed)))]


# -- dual suite -----------------------------------------------------------------------


def _dual_failures(params: GraphParams, rng: random.Random) -> _Failures:
    for trial in range(6):
        g = EvenSeq.of(params, _random_fractions(rng, rng.randint(1, 6)))
        f = RadialSeq.of(params, _random_fractions(rng, g.support_radius + 1))
        fwd = dual_abel(g)
        if fwd.values != dual_abel_via_counts(g).values:
            yield "dual-closed-vs-counts", dict(trial=trial)
        lhs = 0
        for n in range(fwd.support_radius + 1):
            lhs = lhs + fwd.value(n) * f.value(n) * params.delta(n)
        af = abel(f)
        rhs = af.value(0) * g.value(0)
        for h in range(1, max(af.support_radius, g.support_radius) + 1):
            rhs = rhs + af.value(h) * g.value(h) * 2
        if lhs != rhs:
            yield "dual-pairing", dict(trial=trial, got=lhs, expected=rhs)
        back = dual_abel_inv(fwd)
        if back.values != g.values:
            yield "dual-roundtrip", dict(trial=trial)
        if dual_abel_inv_recurrence(fwd).values != back.values:
            yield "dual-inv-variants", dict(trial=trial)


def suite_dual(params: GraphParams, seed: int) -> list[CheckResult]:
    return [_check("dual-abel", _dual_failures(params, random.Random(seed)))]


# -- spectral suite ---------------------------------------------------------------------


def _factorization_failures(params: GraphParams, f: RadialSeq) -> _Failures:
    af = abel(f)
    for j in range(16):
        lam = (j + 0.5) * params.tau / 32.0
        gap = abs(spherical_transform(f, lam) - complex(fourier_z(af, lam)))
        if gap > 1e-10:
            yield "factorization", dict(lam=lam, gap=gap)


def _phi_failures(params: GraphParams) -> _Failures:
    lam = 0.25 * params.tau
    table = spherical_phi(params, gamma_of(params, lam), 3)
    for n in range(4):
        oracle = phi_oracle(params, lam, next(iter(sphere(params, n))), n + 1)
        if abs(table[n] - oracle) > 1e-12:
            yield "phi-oracle", dict(n=n, got=oracle, expected=table[n])


def _plancherel_failures(params: GraphParams) -> _Failures:
    result = plancherel_norm(RadialSeq.delta_origin(params), tol=1e-9)
    if abs(result.value - 1.0) > 1e-6:
        yield "plancherel-mass", dict(got=result.value)


def suite_spectral(params: GraphParams, seed: int) -> list[CheckResult]:
    if params.q < 2:
        return [CheckResult("spectral-skipped-q1", True)]
    f = RadialSeq.of(params, _random_fractions(random.Random(seed), 4))
    return [_check("factorization", _factorization_failures(params, f)),
            _check("phi-oracle", _phi_failures(params)),
            _check("plancherel-mass", _plancherel_failures(params))]


# -- wave suite -------------------------------------------------------------------------


def _closed_failures(params: GraphParams, data: CauchyData, pool: list, steps: int) -> _Failures:
    field = wave_direct(params, data, steps, observe_radius=1)
    for n in range(-steps, steps + 1):
        for x in pool:
            got, expected = wave_closed_at(params, data, x, n), field.at(x, n)
            if got != expected:
                yield "wave-closed-vs-direct", dict(n=n, x=x, got=got, expected=expected)


def _symmetry_failures(params: GraphParams, data: CauchyData, pool: list,
                       steps: int) -> _Failures:
    still = CauchyData(data.initial, VertexFun.of(params, {}))
    field = wave_direct(params, still, steps, observe_radius=1)
    for n in range(1, steps + 1):
        for x in pool:
            if field.at(x, n) != field.at(x, -n):
                yield "wave-time-symmetry", dict(n=n, x=x)


def suite_wave(params: GraphParams, seed: int) -> list[CheckResult]:
    if params.q < 2:
        return [CheckResult("wave-skipped-q1", True)]
    rng = random.Random(seed)
    pool = list(ball(params, 1))
    data = CauchyData(
        VertexFun.of(params, {w: rng.randint(-3, 3) for w in pool}),
        VertexFun.of(params, {w: rng.randint(-3, 3) for w in pool}),
    )
    return [_check("wave-closed-vs-direct", _closed_failures(params, data, pool, 3)),
            _check("wave-time-symmetry", _symmetry_failures(params, data, pool, 3))]


SUITES = {
    "group": suite_group,
    "boundary": suite_boundary,
    "abel": suite_abel,
    "dual": suite_dual,
    "spectral": suite_spectral,
    "wave": suite_wave,
}


def run_suite(name: str, params_list: list[GraphParams], seed: int):
    """Run one suite (or "all") over a parameter grid.

    Returns (ok, results) where results is a list of
    (params, suite name, CheckResult).
    """
    names = list(SUITES) if name == "all" else [name]
    collected = [(params, suite_name, result)
                 for suite_name in names for params in params_list
                 for result in SUITES[suite_name](params, seed)]
    return all(result.ok for _, _, result in collected), collected
