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
evaluated with running prefix or suffix sums in O(N) operations.  ``abel``
runs on ring values; its float lane runs the same recurrence in float
arithmetic and multiplies T(h) by the rounded q^(h/2).  The two Abel inverses,
the dual pair and the two dual oracles run on the ring's encoded parts
(``encode``, ``times_root``, ``decoder``), exact in both lanes (see
``algebraic.FloatRing``): integer combinations of the input's parts over one
denominator, each output value decoded by one decoder call, so a float output
is float() of the exact transform of the lifted inputs.  Shared arithmetic is
not a shared formula: each form keeps its own, so the two inverses check each
other and the round trip through ``abel``, the counts sum (h and -h apart) and
the forward recurrence check the dual pair, and ``radon`` and
``abel_via_radon`` check ``abel`` by enumeration, from integer counts per
sphere and horocycle over one array walk of the ball (``words._walk``), so
their ring arithmetic grows with the shells, not the words.

A closed form of N values holds about N^2 log2(q) bits, and one past
``MAX_CLOSED_BITS`` is refused with ``ValueError`` before any arithmetic;
the dual oracles share that bound.  The dual transforms refuse a negative
``n_max`` with ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul

from .algebraic import ring_of
from .boundary import BoundaryRay, DepthError, _horocycle_profile, _sphere_horocycle_row
from .words import GraphParams, _walk, _walk_counts, _walk_distances

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


def _n_max(seq: _Seq, n_max: int | None) -> int:
    # the last index a dual transform returns: the support radius by default
    if n_max is None:
        return seq.support_radius
    if n_max < 0:
        raise ValueError(f"n_max must be nonnegative, got {n_max}")
    return n_max


# -- Radon transform ----------------------------------------------------------


def _sphere_counts(f: RadialSeq, rays) -> list[list[list[int]]]:
    """For each ray, and each n from 0 to f's support radius N, the number of
    words of the sphere of radius n at each distance d <= depth + N from the
    ray's prefix, that is on horocycle depth - d: plain integer counts.  The
    ball is walked once for all rays, and each word is measured once per ray
    from its own codes.  Needs every ray's depth > N."""
    radius = f.support_radius
    if any(ray.depth <= radius for ray in rays):
        raise DepthError(f"needs ray depth > {radius}")
    walk = _walk(f.params, radius)
    return [_walk_counts(walk, _walk_distances(walk, ray.prefix.syllables)) for ray in rays]


def radon(f: RadialSeq, ray: BoundaryRay, h: int):
    """Horocycle sum of f by explicit vertex enumeration (the oracle path).

    Counts the words of the ball of the support radius on the h-th
    horocycle of the ray sphere by sphere, and adds f(n) times the count
    of sphere n; needs ray depth > support radius.
    """
    d = ray.depth - h
    total = f.ring.zero
    (spheres,) = _sphere_counts(f, (ray,))
    for n, counts in enumerate(spheres):
        if 0 <= d < len(counts) and counts[d]:
            total = total + f.value(n) * counts[d]
    return total


def radon_via_counts(f: RadialSeq, h: int):
    """Horocycle sum via the closed sphere-intersection counts (the fast path):
    f(n) times entry h of the row of each sphere n >= |h|, the rows read
    from one gap profile."""
    params, t, N = f.params, abs(h), f.support_radius
    profile = _horocycle_profile(params, N + t + 1)
    total = f.ring.zero
    for n in range(t, N + 1):
        count = _sphere_horocycle_row(params, n, t, profile)[h + t]
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
    """Abel transform computed from enumerated horocycle sums on one ray.

    Every word of the ball is counted into its horocycle sphere by sphere,
    and each nonzero count of sphere n adds f(n) times the count once."""
    return _abel_via_radon_rays(f, (ray,))[0]


def _abel_via_radon_rays(f: RadialSeq, rays) -> list[EvenSeq]:
    """``abel_via_radon`` on each of several rays, with one walk of the ball."""
    radius, ring = f.support_radius, f.ring
    # horocycle h is the shell at distance depth - h around the prefix
    sums = [[ring.zero] * (ray.depth + radius + 1) for ray in rays]
    for shells, spheres in zip(sums, _sphere_counts(f, rays)):
        for n, counts in enumerate(spheres):
            value = f.value(n)
            for d, count in enumerate(counts):
                if count:
                    shells[d] = shells[d] + value * count
    return [EvenSeq(f.params, tuple(ring.qpow(h) * shells[ray.depth - h]
                                    for h in range(radius + 1)), f.exact)
            for ray, shells in zip(rays, sums)]


def _scaled_parts(g: EvenSeq) -> tuple[int, list]:
    """After the size check, the denominator D of g's encoded parts and the
    columns t(0..M+2) of t(j) = D sqrt(q)^(M-j) g(j), 0 past M, in parts."""
    ring, M = g.ring, g.support_radius
    _check_size(g.params, M + 1)
    scale, (parts,) = ring.encode([g.values])
    stairs = [ring.q ** e for e in range(M // 2 + 1)]  # q^((M-j)//2), odd M-j by times_root
    rows = ([stairs[(M - j) // 2] * x for x in row] for j, row in enumerate(zip(*parts)))
    rows = [ring.times_root(row) if (M - j) % 2 else row for j, row in enumerate(rows)]
    return scale, [column + (0, 0) for column in zip(*rows)]


def abel_inv(g: EvenSeq) -> RadialSeq:
    """Inverse Abel transform (telescoped alternating form).

    f(n) = (1/k) q^(-(n-1)/2) sum_{m>=1} [1 + (-1)^(m-1) (k-1)^m] q^(-m/2)
           [g(n+m-1) - g(n+m+1)]; the sum is finite on finitely supported g.

    Evaluated over e(n) = t(n) - q t(n+2) with t(j) = D sqrt(q)^(M-j) g(j)
    (``_scaled_parts``) as k D sqrt(q)^M f(n) = U(n) - V(n), integer suffix
    sums U(n) = U(n+1) + e(n) and V(n) = (1-k) (V(n+1) + e(n)): O(N) integer
    operations.  N values past ``MAX_CLOSED_BITS`` raise ``ValueError`` first.
    """
    k, q, M = g.params.k, g.params.q, g.support_radius
    scale, columns = _scaled_parts(g)
    out = []
    for t in columns:
        plain = geometric = 0  # U(n), V(n)
        sums = []
        for n in range(M, -1, -1):
            e = t[n] - q * t[n + 2]
            plain += e
            geometric = (1 - k) * (geometric + e)
            sums.append(plain - geometric)
        out.append(sums[::-1])
    return RadialSeq(g.params, tuple(map(g.ring.decoder(k * scale, M), *out)), g.exact)


def abel_inv_rearranged(g: EvenSeq) -> RadialSeq:
    """Inverse Abel transform, grouped by g(n+m) instead of by differences.

    f(n) = q^(-n/2) { g(n) - (k-2) q^(-1/2) g(n+1)
                      - sum_{m>=2} [(q-1)/k + ((r-k)/k)(-1)^m (k-1)^m] q^(-m/2) g(n+m) }.

    The m = 1 term of the bracketed sum is exactly the explicit g(n+1) term,
    so the sum starts at m = 2.  Agrees with ``abel_inv`` identically.

    Evaluated over t(j) = D sqrt(q)^(M-j) g(j) (``_scaled_parts``) as
    k D sqrt(q)^M f(n) = k t(n) - k(k-2) t(n+1) - (q-1) U(n) - (r-k) V(n),
    with the integer suffix sums U(n) = U(n+1) + t(n+2) and
    V(n) = (1-k) (V(n+1) + (1-k) t(n+2)): O(N) integer operations.  N values
    past ``MAX_CLOSED_BITS`` raise ``ValueError`` first.
    """
    k, r, q, M = g.params.k, g.params.r, g.params.q, g.support_radius
    scale, columns = _scaled_parts(g)
    out = []
    for t in columns:
        plain = geometric = 0  # U(n), V(n)
        sums = []
        for n in range(M, -1, -1):
            plain += t[n + 2]
            geometric = (1 - k) * (geometric + (1 - k) * t[n + 2])
            sums.append(k * (t[n] - (k - 2) * t[n + 1]) - (q - 1) * plain - (r - k) * geometric)
        out.append(sums[::-1])
    return RadialSeq(g.params, tuple(map(g.ring.decoder(k * scale, M), *out)), g.exact)


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
    The result is generally not finitely supported, hence ``n_max`` (default:
    the input support radius; a negative one raises ``ValueError``).

    The two parity sums are running sums: from n to n+1 the window gains
    j = +-n, so (same, diff) becomes (diff, same + 2 g(n)).  They run on the
    parts of g as the ring's ``encode`` gives them, over one denominator D.
    Times r sqrt(q)^(n+1), A*g(n) is sqrt(q) (2 (r-1) g(n) + (r-2) same)
    + (k-2) (r-1) diff, an integer combination taking its sqrt(q) by one
    ``times_root``, and one decoder call over r D sqrt(q)^(n+1) gives A*g(n),
    in either lane.  O(n_max) integer operations; an n_max past
    ``MAX_CLOSED_BITS`` raises ``ValueError`` first.
    """
    params, ring = g.params, g.ring
    r, sigma = params.r, params.sigma
    n_max = _n_max(g, n_max)
    _check_size(params, n_max + 1)
    scale, (parts,) = ring.encode([g.values[: n_max + 1]])
    columns = [column + (0,) * (n_max + 1 - len(column)) for column in parts]
    same, diff = [0] * len(columns), [column[0] for column in columns]
    out = [ring.decoder(scale, 0)(*diff)]
    for n in range(1, n_max + 1):
        inner = [2 * (r - 1) * column[n] + (r - 2) * s for column, s in zip(columns, same)]
        total = [x + sigma * (r - 1) * d for x, d in zip(ring.times_root(inner), diff)]
        out.append(ring.decoder(r * scale, n + 1)(*total))
        same, diff = diff, [s + 2 * column[n] for column, s in zip(columns, same)]
    return RadialSeq(params, tuple(out), g.exact)


def dual_abel_via_counts(g: EvenSeq, n_max: int | None = None) -> RadialSeq:
    """Dual Abel transform straight from its defining sum.

    A*g(n) = (1/delta(n)) sum_h g(h) q^(h/2) b(n, h) with b the closed
    sphere-horocycle counts; this is the adjoint of the Abel transform under
    the counting pairing and serves as the arbiter for the closed form.

    The counts of sphere n are read as one row, b(n, h) for |h| <= min(n, M)
    with M the support radius of g (``boundary._sphere_horocycle_row``, its
    gap profile built once per call), so no count is read one at a time.
    The sum runs on the parts of g as the ring's ``encode`` gives them, over
    one denominator D.  Times sqrt(q)^n, the weight q^(h/2) b(n, h) is the
    integer b(n, h) q^((h+n)//2), with one more sqrt(q) when h + n is odd.
    The weights of a row are formed once and serve every part: the products
    with g(h) over the signed h of each parity add as plain integers in one
    C-level sum, the odd sum takes its sqrt(q) by one ``times_root``, and
    one decoder call over D delta(n) sqrt(q)^n gives A*g(n); h and -h stay
    apart, never grouped as in ``dual_abel``.  A negative ``n_max``, or one
    past ``MAX_CLOSED_BITS``, raises ``ValueError`` before any arithmetic.
    """
    params, ring = g.params, g.ring
    q, M = params.q, g.support_radius
    n_max = _n_max(g, n_max)
    _check_size(params, n_max + 1)
    scale, (parts,) = ring.encode([g.values])
    profile = _horocycle_profile(params, n_max + min(n_max, M) + 1)  # rows read p(0..n + w)
    stairs = [q ** (e // 2) for e in range(2 * n_max + 1)]  # q^((h+n)//2) at h + n
    signed = [column[:0:-1] + column for column in parts]  # g(h) at M + h, h = -M, ..., M
    out = []
    for n in range(n_max + 1):
        w = min(n, M)
        # b(n, h) q^((h+n)//2) for h = -w, ..., w
        weights = list(map(mul, _sphere_horocycle_row(params, n, M, profile), stairs[n - w:]))
        even = (n + w) % 2  # the first entry with h + n even
        sums = [[], []]  # h + n even, h + n odd
        for column in signed:
            terms = list(map(mul, weights, column[M - w: M + w + 1]))
            sums[0].append(sum(terms[even::2]))
            sums[1].append(sum(terms[1 - even::2]))
        total = map(add, sums[0], ring.times_root(sums[1]))
        out.append(ring.decoder(scale * params.delta(n), n)(*total))
    return RadialSeq(params, tuple(out), g.exact)


def dual_abel_inv(f: RadialSeq, n_max: int | None = None) -> EvenSeq:
    """Inverse of the dual Abel transform, in closed form.

    g(0) = f(0); g(1) = -((k-2)/2) q^(-1/2) f(0) + (r(k-1)/2) q^(-1/2) f(1);
    and for n >= 2 a window combination of f(0..n) whose inner coefficients
    {q - 1 + (r-k)(1-k)^(n-j)} come from solving the two-term recurrence of
    the scaled sequence q^(n/2) g(n); see ``dual_abel_inv_recurrence``.

    The inverse image of compactly supported data is not compactly
    supported; ``n_max`` (default: the input support radius, which keeps
    windowed round trips exact; a negative one raises ``ValueError``) bounds
    the returned values.

    The window runs on the parts of f as the ring's ``encode`` gives them,
    over one denominator D.  With F(0) = (r-1) f(0) and F(j) = r f(j) after,
    it splits into two prefix sums over j <= n-2,
    P(n) = sum q^j F(j) and Q(n) = sum (1-k)^(n-j) q^j F(j), each a plain
    integer stepped from n-1 to n.  Times 2kr sqrt(q)^(n+2), g(n) is

        -deg [(q-1) P(n) + (r-k) Q(n)] + k r deg q^(n-1) (q f(n) - sigma f(n-1))

    with deg = r(k-1) and sigma = k-2, an integer with no sqrt(q), so one
    decoder call over 2krD sqrt(q)^(n+2) gives g(n); g(0) and g(1) are decoded
    over the same denominator.  O(N) integer operations; N past
    ``MAX_CLOSED_BITS`` raises ``ValueError`` first.

    The integers carry q^n, past a float's range long before the values
    (about 1e325 at (3, 4) and N = 420, values near 1e163); the float lane's
    parts are exact, so it overflows only where the values do.
    """
    params, ring = f.params, f.ring
    k, r, q = params.k, params.r, params.q
    deg, sigma = params.degree, params.sigma
    N = _n_max(f, n_max)
    _check_size(params, N + 1)
    scale, (parts,) = ring.encode([f.values[: N + 1]])
    columns = []
    for column in parts:
        part = column + (0,) * (N + 2 - len(column))  # f(0), ..., f(N+1)
        # g(0) and g(1) times 2kr sqrt(q)^2 and 2kr sqrt(q)^3
        scaled = [2 * k * r * q * part[0], k * r * q * (deg * part[1] - sigma * part[0])]
        plain = geometric = 0  # P(n), Q(n)
        power = 1  # q^(n-2)
        for n in range(2, N + 1):
            term = power * (r * part[n - 2] if n > 2 else (r - 1) * part[0])  # q^(n-2) F(n-2)
            plain += term
            geometric = (1 - k) * (geometric + (1 - k) * term)
            power *= q
            scaled.append(k * r * deg * power * (q * part[n] - sigma * part[n - 1])
                          - deg * ((q - 1) * plain + (r - k) * geometric))
        columns.append(scaled[: N + 1])
    out = [ring.decoder(2 * k * r * scale, n + 2)(*column)
           for n, column in enumerate(zip(*columns))]
    return EvenSeq(params, tuple(out), f.exact)


def dual_abel_inv_recurrence(f: RadialSeq, n_max: int | None = None) -> EvenSeq:
    """Inverse dual Abel transform by forward substitution.

    The scaled values G(n) = q^(n/2) g(n) satisfy

        G(n+2) + (k-2) G(n+1) - (k-1) G(n)
            = (r(k-1)/2) q^(n/2) { q^((n+2)/2) f(n+2) - q^(n/2) f(n) }

    with G(0) = f(0) and G(1) = (r(k-1)/2) f(1) - ((k-2)/2) f(0).  Solving
    forwards gives an evaluation path independent of the closed form.

    The forcing term is (r(k-1)/2) (q^(n+1) f(n+2) - q^n f(n)), with no
    sqrt(q), so H(n) = 2 D G(n) runs on the parts of f as the ring's
    ``encode`` gives them, over one denominator D, with integer coefficients;
    one decoder call over 2 D sqrt(q)^n gives g(n).  A negative ``n_max``, or
    one past ``MAX_CLOSED_BITS``, raises ``ValueError`` before any arithmetic.
    """
    params, ring = f.params, f.ring
    sigma, k, q = params.sigma, params.k, params.q
    deg = params.degree
    N = _n_max(f, n_max)
    _check_size(params, N + 1)
    scale, (parts,) = ring.encode([f.values[: N + 1]])
    columns = []
    for column in parts:
        part = column + (0,) * (N + 2 - len(column))  # f(0), ..., f(N+1)
        big_h = [2 * part[0], deg * part[1] - sigma * part[0]]
        power = 1  # q^n
        for n in range(N - 1):
            forcing = deg * power * (q * part[n + 2] - part[n])
            big_h.append(forcing - sigma * big_h[n + 1] + (k - 1) * big_h[n])
            power *= q
        columns.append(big_h[: N + 1])
    out = [ring.decoder(2 * scale, n)(*column) for n, column in enumerate(zip(*columns))]
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
