"""Horocyclic Radon/Abel transforms, their inverses, and the dual pair.

Radial functions are finitely supported sequences f(0..N) indexed by polygon
distance; even functions on Z are stored as g(0..M).  A sequence's ``ring``
(``ring_of(q, exact)``) is its arithmetic lane: the exact quadratic ring,
where identities hold with ==, or floats and complexes.  It supplies the
zero and q^(m/2) in that lane, every transform runs unchanged in both lanes,
and its output stays in the lane of its input.

Conventions:

* the Radon transform of f at (ray, h) sums f over the h-th horocycle;
* the Abel transform weights horocycle sums by q^(h/2); on radial input it is
  independent of the ray and even in h, which the oracle tests assert rather
  than assume;
* the dual transform is adjoint to the Abel transform under the pairing
  sum_n A*g(n) f(n) delta(n) = sum_h g(h) Af(h), which is the identity that
  fixes every coefficient below.

The closed forms state the paper's formulas as double sums.  Each kernel is a
sum of at most two geometric series, with ratios q and 1-k, so each form is
evaluated with running prefix or suffix sums in O(N) ring operations; the
float lane scales the sums to the size of the values and multiplies them by
no rounded constant repeatedly.  The oracles (``radon``, ``abel_via_radon``,
``dual_abel_via_counts``, ``dual_abel_inv_recurrence``) keep their direct
paths.  A closed form of N values holds about N^2 log2(q) bits, and one past
``MAX_CLOSED_BITS`` is refused with ``ValueError`` before any arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebraic import ring_of
from .boundary import BoundaryRay, DepthError, horocycle_section, shell_sums, sphere_horocycle_count
from .words import GraphParams, ball

__all__ = [
    "RadialSeq",
    "EvenSeq",
    "radon",
    "radon_via_counts",
    "abel",
    "abel_via_radon",
    "abel_inv",
    "abel_inv_rearranged",
    "dual_abel",
    "dual_abel_via_counts",
    "dual_abel_inv",
    "dual_abel_inv_recurrence",
    "schwartz_norm",
    "even_norm",
]


@dataclass(frozen=True)
class _Seq:
    """Values f(0), ..., f(N) in one arithmetic lane: ``ring``, chosen by ``exact``."""

    params: GraphParams
    values: tuple
    exact: bool = True

    def __post_init__(self):
        object.__setattr__(self, "ring", ring_of(self.params.q, self.exact))

    @classmethod
    def of(cls, params: GraphParams, values, exact: bool = True):
        ring = ring_of(params.q, exact)
        values = tuple(ring.coerce(v) for v in values)
        if not values:
            raise ValueError(f"{cls.__name__} needs at least the value at 0")
        return cls(params, values, exact)

    @property
    def support_radius(self) -> int:
        return len(self.values) - 1

    def last_nonzero(self) -> int | None:
        for n in range(len(self.values) - 1, -1, -1):
            if self.values[n]:
                return n
        return None


class RadialSeq(_Seq):
    """A radial function x -> f(|x|), stored as f(0), ..., f(N)."""

    @classmethod
    def delta_origin(cls, params: GraphParams, exact: bool = True) -> "RadialSeq":
        return cls.of(params, (1,), exact)

    def value(self, n: int):
        if 0 <= n < len(self.values):
            return self.values[n]
        return self.ring.zero

    def norm_sq(self):
        """Squared L2 norm under counting measure: sum |f(n)|^2 delta(n)."""
        total = self.ring.zero
        for n, v in enumerate(self.values):
            sq = abs(v) ** 2 if isinstance(v, complex) else v * v
            total = total + sq * self.params.delta(n)
        return total


class EvenSeq(_Seq):
    """An even function on Z, stored as g(0), ..., g(M) with g(-n) = g(n)."""

    def value(self, h: int):
        h = abs(h)
        if h < len(self.values):
            return self.values[h]
        return self.ring.zero


MAX_CLOSED_BITS = 10**8
"""Most bits one closed form may hold, refused up front: the N values of a
radial transform, whose n-th value carries q^(n/2) in the numerators and
denominators of both parts, hold about N^2 log2(q) bits; the weights of one
closed-form wave value at time n hold about n^2 log2(k) / 2.  The work of
either grows with its bits."""


def _check_size(params: GraphParams, length: int) -> None:
    # the work bound of the radial closed forms, before any arithmetic
    if length * length * params.q.bit_length() > MAX_CLOSED_BITS:
        raise ValueError(
            f"{length} values on the ({params.k}, {params.r}) graph need a closed form "
            f"of more than {MAX_CLOSED_BITS} bits"
        )


# -- Radon transform ----------------------------------------------------------


def radon(f: RadialSeq, ray: BoundaryRay, h: int):
    """Horocycle sum of f by explicit vertex enumeration (the oracle path).

    Adds f(|x|) over the section of the h-th horocycle of the ray by the
    ball of the support radius; needs ray depth > support radius.
    """
    section = horocycle_section(ray, h, f.support_radius)
    return sum((f.value(len(x)) for x in section), f.ring.zero)


def radon_via_counts(f: RadialSeq, h: int):
    """Horocycle sum via the closed sphere-intersection counts (the fast path)."""
    total = f.ring.zero
    for n in range(abs(h), f.support_radius + 1):
        count = sphere_horocycle_count(f.params, n, h)
        if count:
            total = total + f.value(n) * count
    return total


# -- Abel transform and inverses ------------------------------------------------


def abel(f: RadialSeq) -> EvenSeq:
    """Abel transform: q^(h/2)-weighted horocycle sums, in closed form.

    Af(h) collects f(|h|) with weight q^(|h|/2), the odd offsets f(|h|+2j-1)
    with weight (k-2) q^(|h|/2+j-1), and the even offsets f(|h|+2j) with
    weight (r-2)/(r-1) q^(|h|/2+j).  The support radius is preserved.

    Evaluated as Af(h) = q^(h/2) T(h) with the suffix recurrence
    T(h) = f(h) + (k-2) f(h+1) - (k-1) f(h+2) + q T(h+2), since
    ((r-2)/(r-1) - 1) q = -(k-1): O(N) ring operations.  N values past
    ``MAX_CLOSED_BITS`` raise ``ValueError`` first.
    """
    params, ring = f.params, f.ring
    N = f.support_radius
    _check_size(params, N + 1)
    k, q, value = params.k, params.q, f.value
    t = [ring.zero] * (N + 3)
    for h in range(N, -1, -1):
        t[h] = value(h) + value(h + 1) * (k - 2) - value(h + 2) * (k - 1) + t[h + 2] * q
    return EvenSeq(params, tuple(ring.qpow(h) * t[h] for h in range(N + 1)), f.exact)


def abel_via_radon(f: RadialSeq, ray: BoundaryRay) -> EvenSeq:
    """Abel transform computed from enumerated horocycle sums on one ray."""
    radius = f.support_radius
    if ray.depth <= radius:
        raise DepthError(f"needs ray depth > {radius}")
    params, ring, depth = f.params, f.ring, ray.depth
    # horocycle h is the shell at distance depth - h around the prefix
    pairs = ((x, (f.value(len(x)),)) for x in ball(params, radius))
    sums = shell_sums(ray.prefix, pairs, depth + radius, 1, ring.zero)[0]
    out = tuple(ring.qpow(h) * sums[depth - h] for h in range(radius + 1))
    return EvenSeq(params, out, f.exact)


def abel_inv(g: EvenSeq) -> RadialSeq:
    """Inverse Abel transform (telescoped alternating form).

    f(n) = (1/k) q^(-(n-1)/2) sum_{m>=1} [1 + (-1)^(m-1) (k-1)^m] q^(-m/2)
           [g(n+m-1) - g(n+m+1)]; the sum is finite on finitely supported g.

    Evaluated as f(n) = (1/k) q^(1/2) (U(n) - V(n)) over e(j) = q^(-j/2)
    [g(j-1) - g(j+1)], with the suffix sums U(n) = U(n+1) + e(n+1) and
    V(n) = (1-k) (V(n+1) + e(n+1)): O(N) ring operations.  N values past
    ``MAX_CLOSED_BITS`` raise ``ValueError`` first.
    """
    params, ring = g.params, g.ring
    k = params.k
    M = g.support_radius
    _check_size(params, M + 1)
    scale = ring.qpow(1) * Fraction(1, k)
    plain = geometric = ring.zero  # U(n), V(n)
    out = []
    for n in range(M, -1, -1):
        e = ring.qpow(-n - 1) * (g.value(n) - g.value(n + 2))
        plain = plain + e
        geometric = (geometric + e) * (1 - k)
        out.append((plain - geometric) * scale)
    return RadialSeq(params, tuple(reversed(out)), g.exact)


def abel_inv_rearranged(g: EvenSeq) -> RadialSeq:
    """Inverse Abel transform, grouped by g(n+m) instead of by differences.

    f(n) = q^(-n/2) { g(n) - (k-2) q^(-1/2) g(n+1)
                      - sum_{m>=2} [(q-1)/k + ((r-k)/k)(-1)^m (k-1)^m] q^(-m/2) g(n+m) }.

    The m = 1 term of the bracketed sum is exactly the explicit g(n+1) term,
    so the sum starts at m = 2.  Agrees with ``abel_inv`` identically.

    Evaluated over e(j) = q^(-j/2) g(j) as f(n) = e(n) - (k-2) e(n+1)
    - ((q-1)/k) U(n) - ((r-k)/k) V(n), with the suffix sums
    U(n) = U(n+1) + e(n+2) and V(n) = (1-k) (V(n+1) + (1-k) e(n+2)):
    O(N) ring operations.  N values past ``MAX_CLOSED_BITS`` raise
    ``ValueError`` first.
    """
    params, ring = g.params, g.ring
    k, r, q = params.k, params.r, params.q
    M = g.support_radius
    _check_size(params, M + 1)
    e = [ring.qpow(-j) * g.value(j) for j in range(M + 1)] + [ring.zero, ring.zero]
    plain = geometric = ring.zero  # U(n), V(n)
    out = []
    for n in range(M, -1, -1):
        plain = plain + e[n + 2]
        geometric = (geometric + e[n + 2] * (1 - k)) * (1 - k)
        out.append(e[n] - e[n + 1] * (k - 2)
                   - plain * Fraction(q - 1, k) - geometric * Fraction(r - k, k))
    return RadialSeq(params, tuple(reversed(out)), g.exact)


# -- dual Abel transform and inverses ---------------------------------------------


def dual_abel(g: EvenSeq, n_max: int | None = None) -> RadialSeq:
    """Dual Abel transform in closed form.

    A*g(0) = g(0) and, for n >= 1,

        A*g(n) = 2 (r-1)/r q^(-n/2) g(n)
                 + (k-2) (r-1)/r q^(-(n+1)/2) sum' g(j)   (j - n odd)
                 + (r-2)/r q^(-n/2) sum' g(j)             (j - n even)

    where sum' runs over the signed integers -n < j < n of the stated parity
    (j = 0 once).  The middle exponent -(n+1)/2 is the one forced by the
    duality pairing, which the tests enforce against the counting definition.
    The result is generally not finitely supported, hence ``n_max``.

    The two parity sums are running sums: from n to n+1 the window gains
    j = +-n, so (same, diff) becomes (diff, same + 2 g(n)).  O(n_max) ring
    operations; an n_max past ``MAX_CLOSED_BITS`` raises ``ValueError`` first.
    """
    params, ring = g.params, g.ring
    r = params.r
    if n_max is None:
        n_max = g.support_radius
    _check_size(params, n_max + 1)
    out = [g.value(0)]
    same, diff = ring.zero, g.value(0)
    for n in range(1, n_max + 1):
        gn = g.value(n)
        acc = ring.qpow(-n) * (gn * Fraction(2 * (r - 1), r) + same * Fraction(r - 2, r))
        acc = acc + ring.qpow(-(n + 1)) * diff * Fraction(params.sigma * (r - 1), r)
        out.append(acc)
        same, diff = diff, same + gn * 2
    return RadialSeq(params, tuple(out), g.exact)


def dual_abel_via_counts(g: EvenSeq, n_max: int | None = None) -> RadialSeq:
    """Dual Abel transform straight from its defining sum.

    A*g(n) = (1/delta(n)) sum_h g(h) q^(h/2) b(n, h) with b the closed
    sphere-horocycle counts; this is the adjoint of the Abel transform under
    the counting pairing and serves as the arbiter for the closed form.
    """
    params, ring = g.params, g.ring
    if n_max is None:
        n_max = g.support_radius
    out = []
    for n in range(n_max + 1):
        acc = ring.zero
        for h in range(-n, n + 1):
            count = sphere_horocycle_count(params, n, h)
            if count:
                acc = acc + ring.qpow(h) * g.value(h) * count
        out.append(acc * Fraction(1, params.delta(n)))
    return RadialSeq(params, tuple(out), g.exact)


def dual_abel_inv(f: RadialSeq, n_max: int | None = None) -> EvenSeq:
    """Inverse of the dual Abel transform, in closed form.

    g(0) = f(0); g(1) = -((k-2)/2) q^(-1/2) f(0) + (r(k-1)/2) q^(-1/2) f(1);
    and for n >= 2 a window combination of f(0..n) whose inner coefficients
    {q - 1 + (r-k)(1-k)^(n-j)} come from solving the two-term recurrence of
    the scaled sequence q^(n/2) g(n); see ``dual_abel_inv_recurrence``.

    The inverse image of compactly supported data is not compactly
    supported; ``n_max`` (default: the input support radius, which keeps
    windowed round trips exact) bounds the returned values.

    The window splits into two prefix sums over j <= n-2, both scaled by
    q^(-(n+2)/2) so that neither outgrows the values:
    P(n) = sum q^(j-(n+2)/2) f~(j) and Q(n) = sum (1-k)^(n-j) q^(j-(n+2)/2) f~(j),
    where f~(0) = ((r-1)/r) f(0) folds the f(0) term in and f~(j) = f(j)
    after.  Each sum steps from n-2 to n: divide by q (times (1-k)^2 for Q)
    and add the terms j = n-3, n-2, so no rounded constant compounds in the
    float lane.  O(N) ring operations; N past ``MAX_CLOSED_BITS`` raises
    ``ValueError`` first.
    """
    params, ring = f.params, f.ring
    k, r, q = params.k, params.r, params.q
    deg = params.degree
    sigma = params.sigma
    N = f.support_radius if n_max is None else n_max
    _check_size(params, N + 1)
    out = [f.value(0)]
    out.append(ring.qpow(-1) * (f.value(1) * Fraction(deg, 2) - f.value(0) * Fraction(sigma, 2)))
    root_inv = ring.qpow(-1)
    t = (1 - k) ** 2
    plain = [ring.zero, ring.zero]  # P(n) at the last even and the last odd n
    geometric = [ring.zero, ring.zero]  # Q(n) likewise
    newest = ring.zero  # the j = n-3 term of P(n-1)
    for n in range(2, N + 1):
        previous = newest * root_inv  # the j = n-3 term of P(n)
        newest = ring.qpow(n - 6) * (f.value(n - 2) if n > 2 else f.value(0) * Fraction(r - 1, r))
        plain[n % 2] = plain[n % 2] / q + previous + newest
        geometric[n % 2] = geometric[n % 2] * t / q + (previous * (1 - k) + newest) * t
        acc = (plain[n % 2] * (q - 1) + geometric[n % 2] * (r - k)) * Fraction(-deg, 2 * k)
        acc = acc - ring.qpow(n - 4) * f.value(n - 1) * Fraction(deg * sigma, 2)
        acc = acc + ring.qpow(n - 2) * f.value(n) * Fraction(deg, 2)
        out.append(acc)
    return EvenSeq(params, tuple(out[: N + 1]), f.exact)


def dual_abel_inv_recurrence(f: RadialSeq, n_max: int | None = None) -> EvenSeq:
    """Inverse dual Abel transform by forward substitution.

    The scaled values G(n) = q^(n/2) g(n) satisfy

        G(n+2) + (k-2) G(n+1) - (k-1) G(n)
            = (r(k-1)/2) q^(n/2) { q^((n+2)/2) f(n+2) - q^(n/2) f(n) }

    with G(0) = f(0) and G(1) = (r(k-1)/2) f(1) - ((k-2)/2) f(0).  Solving
    forwards gives an evaluation path independent of the closed form.
    """
    params, ring = f.params, f.ring
    sigma, k = params.sigma, params.k
    deg = params.degree
    N = f.support_radius if n_max is None else n_max
    half = Fraction(1, 2)

    big_g = [f.value(0)]
    big_g.append((f.value(1) * deg - f.value(0) * sigma) * half)
    for n in range(N - 1):
        forcing = (
            ring.qpow(n)
            * (ring.qpow(n + 2) * f.value(n + 2) - ring.qpow(n) * f.value(n))
            * Fraction(deg, 2)
        )
        big_g.append(forcing - big_g[n + 1] * sigma + big_g[n] * (k - 1))
    out = [ring.qpow(-n) * big_g[n] for n in range(N + 1)]
    return EvenSeq(params, tuple(out), f.exact)


# -- Schwartz-type norms -----------------------------------------------------------


def schwartz_norm(f: RadialSeq, p, m: int) -> float:
    """max over the support of (1+n)^m q^(n/p) |f(n)| (finite-truncation norm)."""
    p = float(p)
    if not 1.0 <= p <= 2.0:
        raise ValueError(f"p must lie in [1, 2], got {p}")
    q = f.params.q
    best = 0.0
    for n, v in enumerate(f.values):
        best = max(best, (1 + n) ** m * q ** (n / p) * abs(v))
    return best


def even_norm(g: EvenSeq, m: int) -> float:
    """max over the support of (1+|n|)^m |g(n)|."""
    best = 0.0
    for n, v in enumerate(g.values):
        best = max(best, (1 + n) ** m * abs(v))
    return best
