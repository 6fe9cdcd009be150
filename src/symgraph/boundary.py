"""Boundary rays, cylinder measure, Busemann cocycle, horocycles, shell sums.

A boundary point is an infinite geodesic ray from the origin; the code only
ever holds a finite truncation (a reduced word of m syllables, designating
the cylinder of rays that begin with it).  Every operation states the depth
it needs and raises ``DepthError`` rather than extending a ray implicitly:
silent extension would hide depth-dependence bugs.

``shell_sums`` is the distance-profile walk over (word, parts) pairs that
the spherical means read.  ``branch_shell_sums`` gives the same sums from
a ``branch_index`` of the pairs, walking only the words that share the
centre's first syllable; every other word enters from the index's part sums
per word length, and the closed-form wave value reads it.  Both live
outside ``words``, so each of their ``distance`` calls is a call into that
layer.  The enumeration oracles and the boundary integrals of ``spectral``
build no word: they walk the ball, or the sphere of cylinders, once as an
array of syllable codes (``words._walk``) and measure every row from each
ray prefix or support word in one array pass (``words._walk_distances``),
the word on horocycle depth - d at distance d.

The sphere-horocycle counts b(n, h) have one closed form,
``_sphere_horocycle_row``: the counts of one sphere as a row read from a
gap profile.  ``sphere_horocycle_count`` is one entry of it, and the
counts paths of ``transforms`` (``dual_abel_via_counts`` and
``radon_via_counts``), the ``verify`` boundary suite and ``table b``
read whole rows.
"""

from __future__ import annotations

import cmath
import math
import random
from operator import add
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterator

from .algebraic import AlgebraicValue, q_half_power
from .words import (GraphParams, ReducedWord, SpectralDomainError, _syllable_distance, ball,
                    distance)

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

    @cached_property
    def parent(self) -> ReducedWord:
        """The node one step short of the prefix, built once per ray."""
        return self.node(self.depth - 1)

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
    Where the ray is deeper than |x| + 1, the index is checked against the
    ray's ``parent`` node, which the ray holds once, so the check costs one
    more measurement and no word.
    """
    if x.params is not ray.params and x.params != ray.params:
        raise ValueError("cannot measure distance between different graphs")
    return _busemann_index(x.syllables, ray.prefix.syllables, ray.parent.syllables)


def _busemann_index(x: tuple, prefix: tuple, parent: tuple) -> int:
    """``busemann`` of the syllables x along the ray of ``prefix`` and its ``parent``."""
    m, size = len(prefix), len(x)
    if m <= size:
        raise DepthError(f"busemann at |x| = {size} needs ray depth > {size}, got {m}")
    value = m - _syllable_distance(x, prefix)
    if m - 1 > size and value != (m - 1) - _syllable_distance(x, parent):
        raise AssertionError("busemann depth instability")
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


def branch_index(pairs, width: int) -> tuple:
    """(word y, ``width`` parts) pairs indexed for ``branch_shell_sums``:
    the pairs under each first syllable, one dict of part sums per word
    length L, the longest word length, ``width``, and a dict that
    ``branch_shell_sums`` fills with each first syllable's off-branch rows
    on first use.

    The dict of length L holds the part sums under each first syllable s,
    under each first generator g (from the sums under its syllables) and over
    all words (key None, which holds the origin at L = 0)."""
    under, groups = {}, {}
    for pair in pairs:
        syllables = pair[0].syllables
        s = syllables[0] if syllables else None
        if s is not None:
            under.setdefault(s, []).append(pair)
        groups.setdefault((s, len(syllables)), []).append(pair[1])
    zero = [0] * width
    sums = {}
    for (s, size), parts in groups.items():
        level = sums.setdefault(size, {})
        level[s] = own = [sum(column) for column in zip(*parts)]
        if s is not None:
            for key in (s[0], None):
                level[key] = list(map(add, level.get(key, zero), own))
    return under, sums, max(sums, default=0), width, {}


def branch_shell_sums(x: ReducedWord, index: tuple, radius: int) -> list[list]:
    """``shell_sums(x, pairs, radius, width)`` from the ``branch_index`` of
    the pairs, with ``distance`` calls for the words under x's first
    syllable s = (g, e) only, and none at x = e.

    The graph is tree-like at the origin: a word y of another first
    syllable lies at |x| + |y| when its first generator is not g and at
    |x| + |y| - 1 when it is (a sibling exponent of s), and the origin at
    |x|.  So for each length L, the sums of all words less those under g
    enter shell |x| + L, and those under g less those under s enter shell
    |x| + L - 1.  These rows depend on s alone, so the index keeps them
    once built.  The parts are integers, so the sums are exact in any order.
    """
    under, sums, longest, width, off_branch = index
    # the origin is under no syllable: () keys nothing, so at x = e no word
    # is walked and every word enters at its own length
    s = x.syllables[0] if x.syllables else ()
    shells = shell_sums(x, under.get(s, ()), radius, width)
    rows = off_branch.get(s)
    if rows is None:  # row j enters shell |x| + j
        g, zero = s[0] if s else (), [0] * width
        rows = off_branch[s] = [[0] * width for _ in range(longest + 1)]
        for size, level in sums.items():
            for i, (t, b, a) in enumerate(zip(level[None], level.get(g, zero),
                                              level.get(s, zero))):
                rows[size][i] += t - b
                if size:
                    rows[size - 1][i] += b - a
    for d, parts in enumerate(rows, len(x)):
        if d > radius:
            break
        for shell, value in zip(shells, parts):
            shell[d] += value
    return shells


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
    for x in ball(ray.params, radius):
        if busemann(x, ray) == h:
            yield x


def _horocycle_profile(params: GraphParams, size: int) -> list[int]:
    """The gap profile of the counts, p(g) for g = 0, ..., size - 1: 1, sigma,
    (r-2)(k-1), then q times the entry two gaps back.  ``_sphere_horocycle_row``
    reads b(n, h) = p(n - h) from it."""
    q = params.q
    profile = [1, params.sigma, (params.r - 2) * (params.k - 1)][:size]
    for _ in range(3, size):
        profile.append(q * profile[-2])
    return profile


def _sphere_horocycle_row(params: GraphParams, n: int, width: int,
                          profile: list[int] | None = None) -> list[int]:
    """The closed form of the counts: b(n, h), the size of (sphere of radius
    n) intersected with (horocycle h), for h = -w, ..., w with
    w = min(n, width) and width >= 0, as one list; b(n, h) = 0 for |h| > n.

    Along the gap n - h, the counts of h >= 0 are the ``_horocycle_profile``
    p: b(n, h) = p(n - h), which is 1 on the diagonal h = n, then sigma at odd
    gaps and (r-2)(k-1) at even ones, gaining a factor q every two steps.
    Horocycle -t holds q^t times the words of horocycle t, and
    q^t p(n - t) = p(n + t) for t < n, so b(n, h) = p(n - h) for every
    h > -n, and b(n, -n) = q^n.  A ``profile`` of at least n + w + 1 gaps is
    read as given, so a caller reading many rows builds it once.
    """
    if n < 0:
        raise ValueError(f"radius must be nonnegative, got {n}")
    w = min(n, width)
    if profile is None:
        profile = _horocycle_profile(params, n + w + 1)
    row = profile[n - w: n + w + 1]
    row.reverse()
    if w == n:
        row[0] = params.q ** n
    return row


def sphere_horocycle_count(params: GraphParams, n: int, h: int) -> int:
    """Size of (sphere of radius n) intersected with (horocycle h): the
    entry h of ``_sphere_horocycle_row``, zero below |h|."""
    if n < 0:
        raise ValueError(f"radius must be nonnegative, got {n}")
    if n < abs(h):
        return 0
    return _sphere_horocycle_row(params, n, abs(h))[0 if h < 0 else -1]
