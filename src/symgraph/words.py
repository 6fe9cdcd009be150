"""Vertices of a polygon-symmetric graph as reduced words.

A graph of type k and order r is glued from k-gons, with r polygons through
every vertex and no two sharing more than one vertex.  Its vertex set is
modelled by the free product of r copies of Z/kZ: a vertex is a reduced word
``a_{i1}^{e1} ... a_{in}^{en}`` with adjacent generator indices distinct and
exponents in [1, k-1], and the polygon distance d(x, y) is the syllable count
of the reduced quotient x^-1 y.  For k = 2 polygons are single edges and the
graph is the homogeneous tree of degree r, with every exponent equal to 1.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

import numpy as np

from .algebraic import AlgebraicValue, q_half_power

__all__ = [
    "GraphParams",
    "ReducedWord",
    "SpectralDomainError",
    "distance",
    "sphere",
    "ball",
    "parse_word",
]


class SpectralDomainError(ValueError):
    """Raised by spectral quantities that degenerate when q = (r-1)(k-1) < 2."""


@dataclass(frozen=True)
class GraphParams:
    """Polygon side count k and polygons-per-vertex count r, both >= 2."""

    k: int
    r: int

    def __post_init__(self):
        if self.k < 2 or self.r < 2:
            raise ValueError(f"need k >= 2 and r >= 2, got k={self.k}, r={self.r}")

    @property
    def q(self) -> int:
        return (self.r - 1) * (self.k - 1)

    @property
    def sigma(self) -> int:
        return self.k - 2

    @property
    def degree(self) -> int:
        """Number of neighbours of a vertex, r(k-1)."""
        return self.r * (self.k - 1)

    @property
    def tau(self) -> float:
        """Period 2*pi/ln(q) of the spectral parameter; needs q >= 2."""
        self.require_spectral()
        return 2.0 * math.pi / math.log(self.q)

    @property
    def alpha(self) -> Fraction:
        """(q+1)/degree, the diagonal constant of the radial Laplacian."""
        return Fraction(self.q + 1, self.degree)

    @property
    def beta(self) -> AlgebraicValue:
        """2*sqrt(q)/degree, the off-diagonal constant of the radial Laplacian."""
        return q_half_power(self.q, 1) * Fraction(2, self.degree)

    @property
    def spectral_gap(self) -> AlgebraicValue:
        """alpha - beta = 1 - gamma(0), the distance of the L2 spectrum from 1."""
        return self.alpha - self.beta

    def require_spectral(self) -> None:
        if self.q < 2:
            raise SpectralDomainError(
                f"(k, r) = ({self.k}, {self.r}) has q = 1; spectral calculus is degenerate"
            )

    def delta(self, n: int) -> int:
        """Cardinality of the sphere of radius n: 1 for n = 0, r(k-1)q^(n-1) after."""
        if n < 0:
            raise ValueError(f"radius must be nonnegative, got {n}")
        if n == 0:
            return 1
        return self.degree * self.q ** (n - 1)

    def identity(self) -> "ReducedWord":
        return ReducedWord(self, ())

    def generator(self, index: int, exponent: int = 1) -> "ReducedWord":
        return ReducedWord(self, ((index, exponent),))


class ReducedWord:
    """An element of the free product of r copies of Z/kZ, kept reduced.

    Supports ``x * y`` (product with reduction), ``~x`` (inverse) and
    ``len(x)`` (syllable count, which is the polygon distance to the origin).
    """

    __slots__ = ("params", "syllables", "_hash")

    def __init__(self, params: GraphParams, syllables=()):
        syllables = tuple((int(g), int(e)) for g, e in syllables)
        for i, (g, e) in enumerate(syllables):
            if not 0 <= g < params.r:
                raise ValueError(f"generator index {g} outside [0, {params.r})")
            if not 1 <= e < params.k:
                raise ValueError(f"exponent {e} outside [1, {params.k})")
            if i and syllables[i - 1][0] == g:
                raise ValueError(f"word is not reduced at syllable {i}")
        self.params = params
        self.syllables = syllables
        self._hash = hash(syllables)

    @classmethod
    def _make(cls, params: GraphParams, syllables: tuple) -> "ReducedWord":
        word = object.__new__(cls)
        word.params = params
        word.syllables = syllables
        word._hash = hash(syllables)
        return word

    def __len__(self) -> int:
        return len(self.syllables)

    def __mul__(self, other: "ReducedWord") -> "ReducedWord":
        params = self.params
        if other.params is not params and other.params != params:
            raise ValueError("cannot multiply words over different graph parameters")
        return ReducedWord._make(params, _product(self.syllables, other.syllables, params.k))

    def __invert__(self) -> "ReducedWord":
        k = self.params.k
        return ReducedWord._make(
            self.params, tuple((g, k - e) for g, e in reversed(self.syllables))
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReducedWord):
            return NotImplemented
        return self.syllables == other.syllables and (
            self.params is other.params or self.params == other.params
        )

    def __hash__(self):
        return self._hash

    def __str__(self) -> str:
        if not self.syllables:
            return "e"
        return ".".join(f"a{g}^{e}" for g, e in self.syllables)

    def __repr__(self) -> str:
        return f"<word {self} (k={self.params.k}, r={self.params.r})>"


def distance(x: ReducedWord, y: ReducedWord) -> int:
    """Polygon distance: the syllable count of x^-1 y.

    Computed through the longest common prefix; the first differing syllable
    pair merges into one syllable exactly when it shares a generator.
    """
    if x.params is not y.params and x.params != y.params:
        raise ValueError("cannot measure distance between different graphs")
    return _syllable_distance(x.syllables, y.syllables)


def _syllable_distance(a: tuple, b: tuple) -> int:
    """``distance`` between the words of one graph with syllables a and b."""
    common = 0
    for sa, sb in zip(a, b):
        if sa != sb:
            break
        common += 1
    la = len(a) - common
    lb = len(b) - common
    if la and lb and a[common][0] == b[common][0]:
        return la + lb - 1
    return la + lb


def _product(a: tuple, b: tuple, k: int) -> tuple:
    """The syllables of the product of reduced words with syllables a and b.

    Both factors are reduced, so only the junction reduces: a's last syllable
    cancels or merges with b's first while they share a generator, and a
    merge that leaves a nonzero exponent ends it.  Most products have
    distinct junction generators and are the plain concatenation.
    """
    if not a or not b or a[-1][0] != b[0][0]:
        return a + b
    i, j = len(a), 0
    while i and j < len(b) and a[i - 1][0] == b[j][0]:
        g, e = a[i - 1]
        merged = (e + b[j][1]) % k
        i, j = i - 1, j + 1
        if merged:
            return a[:i] + ((g, merged),) + b[j:]
    return a[:i] + b[j:]


@lru_cache(maxsize=64)
def _steps(params: GraphParams) -> tuple:
    """The one-syllable suffixes ``((g, e),)`` that extend a reduced word,
    in ``_children`` order, indexed by the word's last generator; entry -1
    (the last) is the identity's.  Every word of a walk shares these pairs."""
    def after(last: int) -> tuple:
        return tuple(((g, e),) for g in range(params.r) if g != last
                     for e in range(1, params.k))
    return tuple(after(last) for last in range(params.r)) + (after(-1),)


def _next_level(level, steps: tuple):
    """The words one syllable longer than those of ``level``, as syllable
    tuples in ``_children`` order, each parent's children in turn."""
    return (word + step for word in level for step in steps[word[-1][0] if word else -1])


def _children(params: GraphParams, syllables: tuple) -> list[tuple]:
    """The reduced words one syllable longer than ``syllables``, in increasing
    order: a_g^e appended for every generator g but the last and every e in
    [1, k-1], read from the shared ``_steps`` table.

    This rule is the ball layout.  ``sphere`` and ``ball`` list each level as
    the children of the level before, so a sphere is in increasing syllable
    order, the q children of word j of sphere m >= 1 are words jq..jq+q-1 of
    sphere m+1, its parent is word j // q of sphere m-1 and its k-2 polygon
    siblings share its aligned block of k-1.  ``position``, ``neighbors`` and
    ``_self_plus_neighbors`` read it back.
    """
    return list(_next_level((syllables,), _steps(params)))


def _narrow(top: int):
    """The narrowest integer type of a walk array with entries in [-2, top]."""
    return np.int8 if top < 2 ** 7 else np.int16 if top < 2 ** 15 else np.int64


@lru_cache(maxsize=64)
def _step_codes(params: GraphParams) -> tuple:
    """``_steps`` as syllable codes g*k + e, never 0 since e >= 1, in read-only
    tables of the narrowest integer type that holds them:

    - ``after``: row c holds the codes that extend a word whose last code
      is c, the steps after generator c // k;
    - ``first``: the codes that extend the identity;
    - ``generator``: entry c is the generator of code c, and -1 at c = 0,
      which stands past a word's end."""
    k, steps, dtype = params.k, _steps(params), _narrow(params.r * params.k)

    def table(rows: list) -> np.ndarray:
        made = np.array(rows, dtype=dtype)
        made.setflags(write=False)
        return made
    after = table([[g * k + e for ((g, e),) in steps[c // k]] for c in range(params.r * k)])
    first = table([g * k + e for ((g, e),) in steps[-1]])
    return after, first, table([-1] + [c // k for c in range(1, params.r * k)])


class _Walk(NamedTuple):
    """Words in ``ball()`` order as arrays: row i of ``codes`` holds word i's
    syllable codes (see ``_step_codes``), then 0 to the end of the row, and
    every row ends in at least one 0.  ``lengths[i]`` is word i's syllable
    count, and ``spheres`` lists (n, start, end): rows start..end-1 are the
    words of sphere n."""

    params: GraphParams
    codes: np.ndarray
    lengths: np.ndarray
    spheres: list


def _walk(params: GraphParams, radius: int, inner: int = 0) -> _Walk:
    """The ``_Walk`` of spheres inner..radius, extended level by level from
    the ``_steps`` codes, so row order is ``sphere()`` order: the children
    of each parent in turn.  Spheres below ``inner`` are built and dropped."""
    if not 0 <= inner <= radius:
        raise ValueError(f"need 0 <= inner <= radius, got {inner} and {radius}")
    after, first, _ = _step_codes(params)
    q, width = params.q, radius + 1
    sizes = [params.delta(n) for n in range(width)]
    spheres, start = [], 0
    for n in range(inner, width):
        spheres.append((n, start, start + sizes[n]))
        start += sizes[n]
    codes = np.zeros((start, width), dtype=after.dtype)
    # the identity: no code, so a row of 0s
    level = codes[:1] if inner == 0 else np.zeros((1, width), dtype=after.dtype)
    for n in range(1, width):
        if n >= inner:  # whole rows of ``codes``, so a view of it
            _, start, end = spheres[n - inner]
            child = codes[start:end]
        else:
            child = np.zeros((sizes[n], width), dtype=after.dtype)
        if n == 1:
            child[:, 0] = first
        else:  # the q children of each parent: its codes, then each step after them
            grid = child.reshape(len(level), q, width)
            grid[:, :, :n - 1] = level[:, None, :n - 1]
            grid[:, :, n - 1] = after.take(level[:, n - 2], axis=0)
        level = child
    lengths = np.arange(inner, width, dtype=_narrow(radius)).repeat(sizes[inner:])
    return _Walk(params, codes, lengths, spheres)


def _walk_distances(walk: _Walk, center: tuple) -> np.ndarray:
    """``_syllable_distance(center, y)`` for every row y of the walk, one array
    pass per step: the longest common prefix, then the merge of the first
    differing syllables when they share a generator.

    The centre's codes are followed by a -1, and every row ends in a 0, so
    each row differs from the centre within its first min(width, |c| + 1)
    columns, and the first difference is the common prefix length.  There a
    row past its end has generator -1, and the centre past its end -2, so a
    word that ends at the common prefix never merges."""
    k, codes = walk.params.k, walk.codes
    own = np.array([[g * k + e for g, e in center] + [-1], [g for g, _ in center] + [-2]],
                   dtype=codes.dtype)
    columns = min(codes.shape[1], len(center) + 1)
    common = (codes[:, :columns] == own[0, :columns]).argmin(1)
    here = codes[np.arange(len(codes)), common]
    merge = _step_codes(walk.params)[2].take(here) == own[1].take(common)
    # |c| + |y| - 2 common - merge, in place: a walk may hold 10^5 rows
    common *= -2
    common += walk.lengths
    common += len(center)
    common -= merge
    return common


def _walk_counts(walk: _Walk, distances: np.ndarray) -> list[list[int]]:
    """Per sphere of the walk, ``counts[d]``: its words at ``distances`` d,
    for d up to the largest distance, as ``int`` lists."""
    size = int(distances.max()) + 1
    return [np.bincount(distances[start:end], minlength=size).tolist()
            for _, start, end in walk.spheres]


def _words(params: GraphParams, level):
    """The words with the syllable tuples of ``level``, in its order."""
    new = object.__new__
    for syllables in level:
        # built as ``ReducedWord._make`` builds, without a call per word
        word = new(ReducedWord)
        word.params = params
        word.syllables = syllables
        word._hash = hash(syllables)
        yield word


def sphere(params: GraphParams, n: int) -> Iterator[ReducedWord]:
    """Yield every reduced word of exactly n syllables once, in increasing
    syllable order; the order is part of the CLI output contract."""
    if n < 0:
        raise ValueError(f"radius must be nonnegative, got {n}")
    steps = _steps(params)
    level = iter([()])
    for _ in range(n):
        level = _next_level(level, steps)
    yield from _words(params, level)


def ball(params: GraphParams, n: int) -> Iterator[ReducedWord]:
    """Yield every word of length <= n, sphere by sphere."""
    steps = _steps(params)
    level = [()]
    for m in range(n + 1):
        yield from _words(params, level)
        if m < n:
            level = list(_next_level(level, steps))


def ball_size(params: GraphParams, radius: int, cap: int | None = None) -> int:
    """Number of words of length <= radius (0 for a negative radius).  A ball
    of more than ``cap`` words may be reported by any size above cap, so a
    capped call is cheap at any radius."""
    q, degree = params.q, params.degree
    if radius < 0:
        return 0
    if q == 1:
        return 1 + degree * radius
    if cap is not None:
        # the sphere of radius cap.bit_length() alone holds more than cap words
        radius = min(radius, cap.bit_length())
    return 1 + degree * (q ** radius - 1) // (q - 1)


def position(x: ReducedWord) -> int:
    """Index of x within its sphere in ``sphere()`` order.

    The first syllable a_g^e takes slot g(k-1) + e - 1 of r(k-1); every later
    one takes a slot of q = (r-1)(k-1), skipping the previous generator.
    """
    k, q = x.params.k, x.params.q
    index, last = 0, -1
    for g, e in x.syllables:
        slot = g - 1 if 0 <= last < g else g
        index = index * q + slot * (k - 1) + e - 1
        last = g
    return index


def neighbors(x: ReducedWord) -> list[ReducedWord]:
    """The r(k-1) polygon neighbours of x: the k-1 other exponents of its
    last syllable (its parent where the exponent cancels, its polygon
    siblings otherwise), then its children."""
    params, syllables = x.params, x.syllables
    near = []
    if syllables:
        head, (g, e), k = syllables[:-1], syllables[-1], params.k
        near = [head + ((g, (e + d) % k),) if (e + d) % k else head for d in range(1, k)]
    return [ReducedWord._make(params, s) for s in near + _children(params, syllables)]


def _self_plus_neighbors(part, radius: int, target: int, params: GraphParams,
                         offsets: list[int]):
    """(2 - k) w + (neighbour sum of w) on ball(target), for w given on
    ball(radius) in ball() order and zero beyond; target <= radius + 1.
    ``offsets[m]`` is ``ball_size(params, m - 1)``, where sphere m starts.
    Each word's neighbours sit where ``_children`` puts them: its parent, the
    rest of its block of k - 1 siblings and its block of q children; the
    origin's are all of sphere 1.
    """
    k = params.k
    pieces = []
    for m in range(target + 1):
        size = offsets[m + 1] - offsets[m]
        terms = []
        if m <= radius and k > 2:
            here = part[offsets[m]:offsets[m + 1]]
            block = k - 1 if m else 1
            # self and siblings: (2 - k) w + (block sum - w)
            terms.append(np.repeat(here.reshape(-1, block).sum(axis=1), block) - here * (k - 1))
        if 1 <= m <= radius + 1:
            parents = part[offsets[m - 1]:offsets[m]]
            terms.append(np.repeat(parents, size // len(parents)))
        if m + 1 <= radius:
            terms.append(part[offsets[m + 1]:offsets[m + 2]].reshape(size, -1).sum(axis=1))
        pieces.append(sum(terms[1:], terms[0]) if terms else np.zeros(size, dtype=part.dtype))
    return np.concatenate(pieces)


_SYLLABLE_RE = re.compile(r"^a(\d+)\^(\d+)$")


def parse_word(params: GraphParams, text: str) -> ReducedWord:
    """Parse the CLI word literal "a0^1.a1^2"; the identity is "e"."""
    text = text.strip()
    if text in ("e", ""):
        return params.identity()
    syllables = []
    for part in text.split("."):
        m = _SYLLABLE_RE.match(part.strip())
        if not m:
            raise ValueError(f"cannot parse syllable {part!r} (expected e.g. 'a0^1')")
        syllables.append((int(m.group(1)), int(m.group(2))))
    return ReducedWord(params, syllables)
