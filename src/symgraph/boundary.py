"""Boundary rays, cylinder measure, Busemann cocycle, horocycles, shell sums.

A boundary point is an infinite geodesic ray from the origin; the code only
ever holds a finite truncation (a reduced word of m syllables, designating
the cylinder of rays that begin with it).  Every operation states the depth
it needs and raises ``DepthError`` rather than extending a ray implicitly:
silent extension would hide depth-dependence bugs.

``shell_sums`` is the one distance-profile walk that every shell and
horocycle sum of the other layers reads (a horocycle is a shell around a
ray prefix).  It lives outside ``words``, so each of its ``distance``
calls is a call into that layer.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .algebraic import AlgebraicValue, q_half_power
from .words import GraphParams, ReducedWord, SpectralDomainError, ball, distance

__all__ = [
    "BoundaryRay",
    "DepthError",
    "cylinder_measure",
    "busemann",
    "poisson_power",
    "poisson_power_exact",
    "translate_ray",
    "horocycle_section",
    "sphere_horocycle_count",
]


class DepthError(ValueError):
    """The ray truncation is too shallow for the requested computation."""


@dataclass(frozen=True)
class BoundaryRay:
    """A depth-m truncation of a boundary ray: the reduced word of its first m nodes."""

    prefix: ReducedWord

    def __post_init__(self):
        if len(self.prefix) < 1:
            raise ValueError("a boundary ray needs at least one syllable")

    @property
    def params(self) -> GraphParams:
        return self.prefix.params

    @property
    def depth(self) -> int:
        return len(self.prefix)

    def node(self, m: int) -> ReducedWord:
        """The m-th point on the ray (the length-m prefix)."""
        if not 0 <= m <= self.depth:
            raise DepthError(f"node {m} not available at depth {self.depth}")
        return ReducedWord._make(self.params, self.prefix.syllables[:m])

    def truncate(self, m: int) -> "BoundaryRay":
        if not 1 <= m <= self.depth:
            raise DepthError(f"cannot truncate depth-{self.depth} ray to {m}")
        return BoundaryRay(self.node(m))

    @classmethod
    def alternating(cls, params: GraphParams, depth: int) -> "BoundaryRay":
        """The canonical test ray a0^1.a1^1.a0^1... used by fixtures."""
        return cls(ReducedWord(params, tuple((i % 2, 1) for i in range(depth))))

    @classmethod
    def random(cls, params: GraphParams, depth: int, rng: random.Random) -> "BoundaryRay":
        syllables = []
        last = -1
        for _ in range(depth):
            g = rng.choice([g for g in range(params.r) if g != last])
            syllables.append((g, rng.randrange(1, params.k)))
            last = g
        return cls(ReducedWord(params, tuple(syllables)))


def cylinder_measure(x: ReducedWord) -> Fraction:
    """Mass 1/delta(|x|) of the cylinder of rays through x; 1 for the full boundary."""
    n = len(x)
    if n == 0:
        return Fraction(1)
    return Fraction(1, x.params.delta(n))


def busemann(x: ReducedWord, ray: BoundaryRay) -> int:
    """Horocycle index of x along the ray: depth - d(x, prefix).

    Stable in the truncation depth once depth > |x|; shallower rays raise.
    """
    m = ray.depth
    if m <= len(x):
        raise DepthError(f"busemann at |x| = {len(x)} needs ray depth > {len(x)}, got {m}")
    value = m - distance(x, ray.prefix)
    if m - 1 > len(x):
        assert value == (m - 1) - distance(x, ray.node(m - 1)), "busemann depth instability"
    return value


def shell_sums(x: ReducedWord, pairs, radius: int, width: int, zero=0) -> list[list]:
    """The distance profile around x: ``sums[j][d]`` adds part j of the
    (word y, ``width`` parts) ``pairs`` with d(x, y) = d <= radius, from
    ``zero`` in pair order, with one ``distance`` call per pair."""
    if radius < 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    sums = [[zero] * (radius + 1) for _ in range(width)]
    for y, parts in pairs:
        d = distance(x, y)
        if d <= radius:
            for shell, value in zip(sums, parts):
                shell[d] += value
    return sums


def poisson_power(x: ReducedWord, ray: BoundaryRay, s: complex) -> complex:
    """P(x, ray)^s where the Poisson kernel P is q raised to the Busemann index."""
    params = x.params
    s = complex(s)
    if params.q == 1 and s.imag:
        raise SpectralDomainError("q = 1: complex powers of the Poisson kernel degenerate")
    zeta = busemann(x, ray)
    return cmath.exp(s * zeta * math.log(params.q))


def poisson_power_exact(x: ReducedWord, ray: BoundaryRay, two_s: int) -> AlgebraicValue:
    """P(x, ray)^(two_s/2) as an exact ring element (s rational with 2s integral)."""
    return q_half_power(x.params.q, two_s * busemann(x, ray))


def translate_ray(x: ReducedWord, ray: BoundaryRay) -> BoundaryRay:
    """The truncation of x^-1 * ray, for cocycle identities.

    Left translation can cancel up to |x| leading syllables, so the result is
    shallower; it raises when nothing of the prefix survives.
    """
    moved = (~x) * ray.prefix
    if len(moved) == 0:
        raise DepthError("translation consumed the whole ray prefix; use a deeper ray")
    return BoundaryRay(moved)


def horocycle_section(ray: BoundaryRay, h: int, radius: int) -> Iterator[ReducedWord]:
    """All x with |x| <= radius on the h-th horocycle of the ray, each once."""
    if ray.depth <= radius:
        raise DepthError(f"sections up to radius {radius} need ray depth > {radius}")
    m = ray.depth
    prefix = ray.prefix
    for x in ball(ray.params, radius):
        if m - distance(x, prefix) == h:
            yield x


def sphere_horocycle_count(params: GraphParams, n: int, h: int) -> int:
    """Closed-form size of (sphere of radius n) intersected with (horocycle h).

    Zero below |h|; on the diagonal n = |h| it is q to the -min(0, h); after
    that it alternates between a (k-2)-coefficient at odd offsets and an
    (r-2)(k-1)-coefficient at even offsets, gaining a factor q every two steps.
    """
    if n < 0:
        raise ValueError(f"radius must be nonnegative, got {n}")
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
