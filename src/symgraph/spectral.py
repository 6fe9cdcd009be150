"""Spherical functions, Fourier transforms, Plancherel calculus and convolution.

The spectral parameter lives on [0, tau/2] with tau = 2*pi/ln(q); everything
here needs q >= 2 and raises ``SpectralDomainError`` otherwise.  When k > r
the Plancherel measure gains an atom at the parameter whose averaging
eigenvalue is 1/(1-k); the atom is always handled through that rational
eigenvalue rather than a complex spectral parameter.

Quadrature is adaptive Gauss-Legendre: the order doubles until two successive
levels agree to the requested tolerance, or to the rounding bound of the float
sum when a large integral puts that above it, and every result carries the
achieved error estimate.  Integrands vanish at both endpoints (zeros of the
Plancherel density), so no endpoint handling is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul
from typing import NamedTuple

import numpy as np

from .algebraic import FloatRing, ring_of
from .boundary import BoundaryRay, DepthError, busemann, shell_sums
from .transforms import EvenSeq, RadialSeq
from .words import (GraphParams, ReducedWord, _product, _walk, _walk_counts, _walk_distances,
                    ball, sphere)  # noqa: F401  (test_tracer_restores_the_package reads sphere)

__all__ = [
    "VertexFun",
    "QuadResult",
    "QuadratureError",
    "KSReport",
    "gamma_of",
    "gamma_atom",
    "plancherel_segment",
    "spherical_phi",
    "phi_oracle",
    "check_depth",
    "MAX_CYLINDERS",
    "MAX_CYLINDER_WORK",
    "c_func",
    "plancherel_density",
    "fourier_grid",
    "fourier_z",
    "fourier_z_inv",
    "spherical_transform",
    "spherical_transform_atom",
    "helgason_transform",
    "helgason_via_horocycles",
    "plancherel_norm",
    "invert_spherical",
    "helgason_norm_sq",
    "invert_helgason",
    "convolve",
    "convolve_radial",
    "radialize",
    "spherical_means_at",
    "kunze_stein_check",
    "gauss_legendre_adaptive",
]


_EPS = np.finfo(float).eps


class QuadratureError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(message)
        self.achieved = achieved


@dataclass(frozen=True)
class QuadResult:
    value: float
    error: float


@lru_cache(maxsize=8)
def _gauss_legendre_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """``leggauss(order)``, read-only, built once per order: 32 to 4096 by default."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_legendre_adaptive(fn, a: float, b: float, tol: float = 1e-9,
                            start_order: int = 32, max_order: int = 4096):
    """Integrate a vectorized callable on [a, b], doubling the order until stable.

    Returns (value, error_estimate).  Two levels agree when they differ by
    at most ``tol``, or by at most the rounding bound of the level's float
    sum, order * machine epsilon * sum |weight * f(node)|, when that is
    larger: no order resolves a large integral more finely than its own
    rounding, so the tolerance grows with the integral's magnitude.  The
    estimate is the larger of the difference of the last two levels and
    that rounding bound, since a level accepted on the bound is known only
    to it.  Raises
    ``QuadratureError`` when max_order is not enough, reporting the error it
    did achieve.
    """
    previous, change = None, math.inf
    order = start_order
    while order <= max_order:
        nodes, weights = _gauss_legendre_nodes(order)
        xs = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        terms = weights * fn(xs)
        value = complex(0.5 * (b - a) * np.sum(terms))
        if value.imag == 0:
            value = value.real
        if previous is not None:
            change = abs(value - previous)
            rounding = order * _EPS * 0.5 * abs(b - a) * float(np.sum(np.abs(terms)))
            if change <= max(tol, rounding):
                return value, max(change, rounding)
        previous = value
        order *= 2
    raise QuadratureError(
        f"quadrature did not converge to {tol} by order {max_order}", change
    )


# -- spectral parameters ------------------------------------------------------


def _finite(phase):
    """phase, a multiple of lam ln q about to go into cos or exp; raises
    ``ValueError`` when it is past the float range, where they give nan."""
    if not np.all(np.isfinite(phase)):
        raise ValueError("the spectral parameter times ln q is past the float range")
    return phase


def gamma_of(params: GraphParams, lam) -> float:
    """Averaging eigenvalue (2 sqrt(q) cos(lam ln q) + k - 2) / (r(k-1)).

    Over lam in [0, tau/2] this sweeps exactly the continuous Plancherel
    segment.  Accepts scalars or numpy arrays.
    """
    params.require_spectral()
    q = params.q
    return (2.0 * math.sqrt(q) * np.cos(_finite(lam * math.log(q))) + params.sigma) / params.degree


def gamma_atom(params: GraphParams) -> Fraction:
    """Eigenvalue 1/(1-k) of the spectral atom present when k > r."""
    return Fraction(1, 1 - params.k)


def plancherel_segment(params: GraphParams) -> tuple[float, float]:
    """Endpoints [(sigma - 2 sqrt(q))/deg, (sigma + 2 sqrt(q))/deg] of the segment."""
    params.require_spectral()
    root = 2.0 * math.sqrt(params.q)
    return ((params.sigma - root) / params.degree, (params.sigma + root) / params.degree)


def spherical_phi(params: GraphParams, gamma, n_max: int) -> list:
    """Radial eigenfunction of the one-step averaging operator, normalized to 1.

    phi(0) = 1, phi(1) = gamma and q phi(n+1) = (r(k-1) gamma - (k-2)) phi(n)
    - phi(n-1).  The value type follows gamma: exact input (Fraction or ring
    element) stays exact, floats and numpy arrays stay numeric.
    """
    phi = [gamma * 0 + 1, gamma]
    deg, sigma, q = params.degree, params.sigma, params.q
    for n in range(1, n_max):
        phi.append(((gamma * deg - sigma) * phi[n] - phi[n - 1]) / q)
    return phi[: n_max + 1]


MAX_CYLINDERS = 100_000
"""Most depth-m cylinders (words of the sphere of radius m) that one
boundary walk may visit."""

MAX_CYLINDER_WORK = 850_000
"""Most work that the walk of a nonradial integral may do, counted as
cylinders x (support words + 4): one unit per (cylinder, support word)
pair it measures, about 0.07 us on a 2-vCPU machine, and four more per
cylinder, about 0.4 us.  The slowest walks at the bound, 4 support words
at (2, 3) against the 98304 cylinders of depth 16 and 77 at (3, 4) against
the 10368 of depth 5, invert in about 0.08 and 0.04 s."""


def check_depth(params: GraphParams, depth: int) -> None:
    """Raise ``ValueError`` for a negative cylinder depth or one with more
    than ``MAX_CYLINDERS`` cylinders; nothing is enumerated."""
    # delta(m) >= 2^m when q >= 2 and delta is constant in m >= 1 when q = 1,
    # so capping m at the bound's bit length keeps the comparison exact
    if params.delta(min(depth, MAX_CYLINDERS.bit_length())) > MAX_CYLINDERS:
        raise ValueError(
            f"depth {depth} on the ({params.k}, {params.r}) graph has more than "
            f"{MAX_CYLINDERS} cylinders"
        )


def phi_oracle(params: GraphParams, lam, x: ReducedWord, depth: int):
    """Boundary-integral evaluation of the spherical function at x.

    Averages the (1/2 + i lam)-power of the Poisson kernel over all depth-m
    cylinders; exact on cylinders because the Busemann index is constant on
    each once depth > |x|.  The cylinders are the words of the sphere of
    radius depth, walked alone as one array of syllable codes
    (``words._walk``), each measured once from x in one array pass and
    counted per distance.  This path is independent of the recurrence and
    arbitrates it in the tests.  ``lam`` may be an array; the cylinder walk
    is shared across its entries.  A depth past ``MAX_CYLINDERS`` cylinders
    raises ``ValueError`` before the walk.
    """
    return _phi_oracles(params, lam, [x], depth)[0]


def _phi_oracles(params: GraphParams, lam, words: list, depth: int) -> list:
    """``phi_oracle`` at each of ``words``, on one walk of the cylinders that
    every word measures in turn, as it would alone."""
    params.require_spectral()
    longest = max(len(x) for x in words)
    if depth <= longest:
        raise DepthError(f"phi oracle at |x| = {longest} needs cylinder depth > {longest}")
    check_depth(params, depth)
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    lnq = math.log(params.q)
    cylinders = _walk(params, depth, depth)
    out = []
    for x in words:
        totals = np.zeros(len(lams), dtype=complex)
        # the cylinders by their Busemann index z = depth - d(x, y) at x
        (counts,) = _walk_counts(cylinders, _walk_distances(cylinders, x.syllables))
        for d, count in enumerate(counts):
            if count:
                totals += count * np.exp((0.5 + 1j * lams) * (depth - d) * lnq)
        totals /= params.delta(depth)
        out.append(complex(totals[0]) if np.ndim(lam) == 0 else totals)
    return out


# -- the c-function and the Plancherel density ---------------------------------


def c_func(params: GraphParams, lam: float) -> complex:
    """Meromorphic normalization coefficient of the spherical expansion."""
    params.require_spectral()
    q, k = params.q, params.k
    theta = lam * math.log(q)
    if math.sin(theta) == 0.0:
        raise ValueError(f"c-function pole at lam = {lam}")
    e = complex(math.cos(theta), math.sin(theta))
    num = math.sqrt(q) * e - (k - 1) / math.sqrt(q) / e + params.sigma
    den = e * e - 1.0
    return math.sqrt(q) / params.degree * num * e / den


def plancherel_density(params: GraphParams, lam):
    """Continuous Plancherel density (q ln q / (2 pi r(k-1))) |c(lam)|^-2.

    Written through 4 sin^2 so the endpoint zeros are exact; the 0/0 point
    that appears at lam = tau/2 when k = r is filled with its limit.
    Accepts scalars or numpy arrays.
    """
    params.require_spectral()
    q, k, deg, sigma = params.q, params.k, params.degree, params.sigma
    theta = np.asarray(lam, dtype=float) * math.log(q)
    root = math.sqrt(q)
    re = (root - (k - 1) / root) * np.cos(theta) + sigma
    im = (root + (k - 1) / root) * np.sin(theta)
    norm = re * re + im * im
    scale = deg * math.log(q) / (2.0 * math.pi)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = scale * 4.0 * np.sin(theta) ** 2 / norm
    out = np.where(norm == 0.0, scale * 4.0 / (k * k), out)
    if np.ndim(lam) == 0:
        return float(out)
    return out


# -- Fourier transform on Z -----------------------------------------------------


def fourier_grid(params: GraphParams, size: int) -> np.ndarray:
    """Uniform sampling grid lam_j = j tau / size, j = 0..size-1 (one full period)."""
    return np.arange(size) * (params.tau / size)


def fourier_z(g: EvenSeq, lam):
    """Fourier transform on Z at base q: g(0) + 2 sum cos(n lam ln q) g(n)."""
    params = g.params
    params.require_spectral()
    lnq = math.log(params.q)
    values = [complex(v) for v in g.values] if g.exact else g.values
    total = values[0] * (np.cos(lam * 0.0) if np.ndim(lam) else 1.0)
    for n in range(1, len(values)):
        total = total + 2.0 * np.cos(n * lam * lnq) * values[n]
    return total


def fourier_z_inv(params: GraphParams, samples, n_max: int) -> EvenSeq:
    """Inverse Fourier transform from samples on the ``fourier_grid`` of their length.

    g(n) = (1/M) sum_j samples_j q^(-i n lam_j); exact for trigonometric
    polynomials of degree below M - n_max.
    """
    params.require_spectral()
    samples = np.asarray(samples, dtype=complex)
    size = len(samples)
    lams = fourier_grid(params, size)
    lnq = math.log(params.q)
    values = []
    for n in range(n_max + 1):
        values.append(complex(np.mean(samples * np.exp(-1j * n * lams * lnq))))
    return EvenSeq.of(params, values, exact=False)


# -- spherical and Helgason transforms -------------------------------------------


def _float_values(f: RadialSeq) -> np.ndarray:
    if f.exact:
        return np.array([float(v) for v in f.values])
    return np.asarray(f.values)


def _spherical_sum(params: GraphParams, values, gamma, squared: bool = False):
    """sum_n values[n] phi_gamma(n) delta(n), or its squared modulus, for an
    averaging eigenvalue gamma that is a float, an array or exact; the value
    type follows both.  A float past the float range raises ``ValueError``."""
    phi = spherical_phi(params, gamma, len(values) - 1)
    total = values[0] * phi[0]
    try:
        with np.errstate(over="raise", under="raise"):  # numpy floats only
            for n in range(1, len(values)):
                delta = params.delta(n)
                try:
                    total = total + values[n] * phi[n] * delta
                except (OverflowError, FloatingPointError):
                    # float(delta) overflows, or values[n] * phi[n] underflows
                    # before delta applies: put about sqrt(delta) in phi first
                    shift = delta.bit_length() // 2
                    with np.errstate(under="ignore"):
                        total = total + values[n] * np.ldexp(phi[n], shift) * (delta >> shift)
            with np.errstate(under="ignore"):
                return np.abs(total) ** 2 if squared else total
    except (OverflowError, FloatingPointError):  # an overflow: underflows are handled above
        raise ValueError(f"the {'squared ' * squared}transform overflows the float range") from None


def spherical_transform(f: RadialSeq, lam):
    """sum_n f(n) phi_lam(n) delta(n); vectorizes over a lam array."""
    return _spherical_sum(f.params, _float_values(f), gamma_of(f.params, lam))


def spherical_transform_atom(f: RadialSeq):
    """The spherical transform evaluated at the atom eigenvalue 1/(1-k).

    Summed on the exact ring (``_atom_planes``): exact input gives an exact
    value, float or complex input each plane of it rounded once.
    """
    real, *imag = _atom_planes(f)
    if f.exact:
        return real
    return complex(float(real), float(*imag)) if imag else float(real)


def _atom_planes(f: RadialSeq) -> list:
    """The spherical transform at the atom eigenvalue 1/(1-k), on the exact
    ring, of each plane of f: its real part and, when a value is complex, its
    imaginary part.  Floats lift exactly (``FloatRing.encode``): in floats the
    recurrence at the atom excites its second root, which delta(n) amplifies."""
    ring = ring_of(f.params.q)
    if f.exact:
        planes = [f.values]
    else:
        # parts (A, B), or (A, B, A', B') for complex values, over scale; a
        # lifted float is rational, so B and B' are 0
        scale, parts = f.ring.encode([f.values])
        planes = [[ring.coerce(Fraction(a, scale)) for a in plane] for plane in parts[0][::2]]
    return [_spherical_sum(f.params, plane, ring.coerce(gamma_atom(f.params))) for plane in planes]


class VertexFun:
    """A finitely supported function on the vertex set."""

    __slots__ = ("params", "data", "exact", "ring")

    def __init__(self, params: GraphParams, data: dict, exact: bool = True):
        self.params = params
        self.data = data
        self.exact = exact
        self.ring = ring_of(params.q, exact)

    @classmethod
    def of(cls, params: GraphParams, mapping, exact: bool = True) -> "VertexFun":
        ring = ring_of(params.q, exact)
        return cls(params, {x: ring.coerce(v) for x, v in dict(mapping).items()}, exact)

    @classmethod
    def delta_at(cls, x: ReducedWord, exact: bool = True) -> "VertexFun":
        return cls.of(x.params, {x: 1}, exact)

    @classmethod
    def from_radial(cls, f: RadialSeq) -> "VertexFun":
        data = {}
        for x in ball(f.params, f.support_radius):
            data[x] = f.value(len(x))
        return cls(f.params, data, f.exact)

    def value(self, x: ReducedWord):
        try:
            return self.data[x]
        except KeyError:
            return self.ring.zero

    def items(self):
        return self.data.items()

    def support_radius(self) -> int:
        return max((len(x) for x in self.data), default=0)

    def norm_sq(self):
        return _norm_sq(self.data.values(), self.ring)

    def lp_norm(self, p: float) -> float:
        return _lp_norm(self.data.values(), p)


def _norm_sq(values, ring):
    """sum |v|^2 over values of ``ring``: exact on the exact ring."""
    if isinstance(ring, FloatRing):
        return sum(abs(v) ** 2 for v in values)
    return sum((v * v for v in values), ring.zero)


def _lp_norm(values, p: float) -> float:
    if p == math.inf:
        return max((abs(v) for v in values), default=0.0)
    return sum(abs(v) ** p for v in values) ** (1.0 / p)


def helgason_transform(f: VertexFun, lam: float, ray: BoundaryRay) -> complex:
    """Fourier transform of a (not necessarily radial) f against one boundary ray."""
    f.params.require_spectral()
    radius = f.support_radius()
    if ray.depth <= radius:
        raise DepthError(f"needs ray depth > {radius}")
    s = 0.5 + 1j * lam
    lnq = math.log(f.params.q)
    total = 0.0 + 0.0j
    for x, v in f.items():
        total += complex(v) * np.exp(_finite(s * busemann(x, ray) * lnq))
    return complex(total)


def helgason_via_horocycles(f: VertexFun, lam: float, ray: BoundaryRay) -> complex:
    """Same transform, grouped as the Z-Fourier transform of weighted horocycle sums."""
    f.params.require_spectral()
    radius = f.support_radius()
    if ray.depth <= radius:
        raise DepthError(f"needs ray depth > {radius}")
    sums: dict[int, complex] = {}
    for x, v in f.items():
        h = busemann(x, ray)
        sums[h] = sums.get(h, 0.0 + 0.0j) + complex(v)
    s = 0.5 + 1j * lam
    lnq = math.log(f.params.q)
    return complex(sum(total * np.exp(_finite(s * h * lnq)) for h, total in sums.items()))


# -- Plancherel and inversion -----------------------------------------------------


def _plancherel_integral(params: GraphParams, factors, tol: float, atom=None) -> QuadResult:
    """Integrate against the Plancherel measure an integrand given as the
    tuple ``factors(lams, gamma)`` at spectral parameters lams with averaging
    eigenvalues gamma: their product, left to right, times the density over
    [0, tau/2] and, when k > r, the atom mass (k-r)/k times ``atom()``, the
    integrand at the atom eigenvalue 1/(1-k) on the exact ring, rounded once
    (see ``_atom_planes``)."""

    def on_segment(lams: np.ndarray) -> np.ndarray:
        return reduce(mul, factors(lams, gamma_of(params, lams))) * plancherel_density(params, lams)

    value, err = gauss_legendre_adaptive(on_segment, 0.0, params.tau / 2.0, tol)
    if params.k > params.r:
        value += float(atom() * Fraction(params.k - params.r, params.k))
    return QuadResult(float(np.real(value)), err)


def plancherel_norm(f: RadialSeq, tol: float = 1e-9) -> QuadResult:
    """Spectral-side squared L2 norm of a radial function.

    Integrates |Hf|^2 against the continuous density over [0, tau/2] and,
    when k > r, adds the atom mass (k-r)/k |Hf(atom)|^2, summed exactly.
    Agrees with ``f.norm_sq()`` to quadrature accuracy.  Raises
    ``ValueError`` when |Hf|^2 on the segment passes the float range.
    """
    values = _float_values(f)
    return _plancherel_integral(
        f.params, lambda lams, gamma: (_spherical_sum(f.params, values, gamma, squared=True),),
        tol, lambda: sum(h * h for h in _atom_planes(f)))


def invert_spherical(f: RadialSeq, x: ReducedWord, tol: float = 1e-9) -> QuadResult:
    """Recover f(|x|) from its spherical transform by quadrature (atom included)."""
    params, n, values = f.params, len(x), _float_values(f)

    def atom():
        # the real part only: the recovered value is the real part
        gamma = ring_of(params.q).coerce(gamma_atom(params))
        return _atom_planes(f)[0] * spherical_phi(params, gamma, n)[n]

    return _plancherel_integral(params, lambda lams, gamma: (
        _spherical_sum(params, values, gamma), spherical_phi(params, gamma, n)[n]), tol, atom)


def _cylinder_profile(f: VertexFun, depth: int, reach: int = 0):
    """The boundary walk of the nonradial integrals (k <= r only): the
    depth-m cylinders as one ``words._walk``, the support's Busemann indices
    z, the per-cylinder amplitudes A[y, z] = sum over support of f at index z,
    added in f's order, and the cylinder mass delta(depth).  The depth must
    exceed the support radius and reach, and a walk past ``MAX_CYLINDER_WORK``
    raises ``ValueError`` before it starts."""
    params = f.params
    params.require_spectral()
    if params.k > params.r:
        raise ValueError("the nonradial Plancherel measure is implemented for k <= r only")
    radius = f.support_radius()
    floor = max(radius, reach)
    if depth <= floor:
        raise DepthError(f"needs cylinder depth > {floor}")
    check_depth(params, depth)
    if params.delta(depth) * (len(f.data) + 4) > MAX_CYLINDER_WORK:
        raise ValueError(
            f"depth {depth} on the ({params.k}, {params.r}) graph pairs {params.delta(depth)} "
            f"cylinders with {len(f.data)} support words, past the bound of "
            f"{MAX_CYLINDER_WORK} units of cylinders x (support words + 4)"
        )
    cylinders = _walk(params, depth, depth)
    # d >= depth - |y| >= depth - radius, so no word lands past index 2 radius
    z_values = np.arange(-radius, radius + 1)
    amp = np.zeros((params.delta(depth), len(z_values)), dtype=complex)
    rows = np.arange(len(amp))
    for y, v in f.items():
        # the cylinder at distance d from y holds y at index z = depth - d
        amp[rows, depth + radius - _walk_distances(cylinders, y.syllables)] += complex(v)
    return cylinders, z_values, amp, params.delta(depth)


def helgason_norm_sq(f: VertexFun, depth: int, tol: float = 1e-9) -> QuadResult:
    """Boundary-integrated Plancherel norm of a nonradial function (k <= r only)."""
    _, z_values, amp, mass = _cylinder_profile(f, depth)
    lnq = math.log(f.params.q)
    gram = amp.T @ amp.conj()

    def factors(lams, gamma):
        powers = np.exp(np.multiply.outer((0.5 + 1j * lams) * lnq, z_values))
        return (np.einsum("lz,lw,zw->l", powers, powers.conj(), gram).real / mass,)

    return _plancherel_integral(f.params, factors, tol)


def invert_helgason(f: VertexFun, x: ReducedWord, depth: int, tol: float = 1e-9) -> QuadResult:
    """Recover f(x) from the boundary transform (k <= r only).

    Needs cylinder depth above both the support radius and |x|; a depth past
    ``MAX_CYLINDERS`` cylinders, or a walk past ``MAX_CYLINDER_WORK``,
    raises ``ValueError`` before any walk.
    """
    cylinders, z_values, amp, mass = _cylinder_profile(f, depth, len(x))
    lnq = math.log(f.params.q)

    # the amplitudes summed by the target's Busemann index w = depth - d(x, y),
    # from w = -|x| up to w = |x|, unbuffered and in cylinder order
    paired = np.zeros((2 * len(x) + 1, len(z_values)), dtype=complex)
    np.add.at(paired, depth + len(x) - _walk_distances(cylinders, x.syllables), amp)

    def factors(lams, gamma):
        fwd = np.exp(np.multiply.outer((0.5 + 1j * lams) * lnq, z_values))
        back = np.exp(np.multiply.outer((0.5 - 1j * lams) * lnq, np.arange(-len(x), len(x) + 1)))
        return (np.einsum("lz,lw,wz->l", fwd, back, paired) / mass,)

    return _plancherel_integral(f.params, factors, tol)


# -- convolution and radialization -------------------------------------------------


def convolve(f: VertexFun, g: VertexFun) -> VertexFun:
    """Group convolution sum_y f(y) g(y^-1 x), by support pairs.

    Products are taken and summed on syllable tuples, in pair order, and
    each distinct output word is built once at the end."""
    params = f.params
    if params != g.params:
        raise ValueError("convolution operands live on different graphs")
    ring = ring_of(params.q, f.exact and g.exact)
    k, zero = params.k, ring.zero
    out: dict = {}
    left = [(y.syllables, ring.coerce(v)) for y, v in f.items()]
    right = [(z.syllables, ring.coerce(v)) for z, v in g.items()]
    for y, fv in left:
        for z, gv in right:
            w = _product(y, z, k)
            out[w] = out.get(w, zero) + fv * gv
    return VertexFun(params, {ReducedWord._make(params, w): v for w, v in out.items()},
                     f.exact and g.exact)


class _RadialGather(NamedTuple):
    """Where a convolution against a radial kernel of radius R puts its terms,
    for fixed support words y_0, y_1, ...: ``slots[i, j]`` is the output slot
    of y_i z_j for the words z_j of ball(R) in ``ball()`` order, the slots
    numbered by first appearance, ``lengths[j]`` is |z_j| and ``words[s]``
    holds the syllables of slot s's word.  Since d(y, y z) = |z|, a kernel
    chi sends f(y_i) chi(|z_j|) to slot ``slots[i, j]``."""

    params: GraphParams
    slots: np.ndarray
    lengths: np.ndarray
    words: list


def _radial_gather(params: GraphParams, support: list, radius: int) -> _RadialGather:
    """The ``_RadialGather`` of the support words, given as syllable tuples,
    from len(support) * |ball(radius)| products and no word built."""
    k, slot_of = params.k, {}
    ball_words = [z.syllables for z in ball(params, radius)]
    slots = [slot_of.setdefault(_product(y, z, k), len(slot_of))
             for y in support for z in ball_words]
    return _RadialGather(params, np.array(slots, dtype=np.intp).reshape(-1, len(ball_words)),
                         np.array([len(z) for z in ball_words]), list(slot_of))


def _radial_sums(index: _RadialGather, rows, values, kernel, exact: bool) -> tuple:
    """(order, sums): the convolution of the function with ``values`` on the
    support rows ``rows`` of ``index`` against the radial ``kernel``, with
    its used slots in first-appearance order and their sums as a list.

    Each slot adds its terms in row order, starting from the ring's zero, as
    ``convolve`` adds them, so the sums are bit for bit ``convolve``'s.  The
    float lane runs on float or complex arrays, the exact lane on object
    arrays of ring values."""
    ring = ring_of(index.params.q, exact)
    dtype = object if exact else None
    terms = np.multiply.outer(np.array([ring.coerce(v) for v in values], dtype),
                              np.array([ring.coerce(v) for v in kernel], dtype)[index.lengths])
    slots = index.slots[rows]
    sums = np.full(len(index.words), ring.zero, terms.dtype)
    np.add.at(sums, slots, terms)  # unbuffered, in row order
    used = slots.ravel()
    order = used[np.sort(np.unique(used, return_index=True)[1])]
    return order, sums[order].tolist()


def convolve_radial(f: VertexFun, chi: RadialSeq) -> VertexFun:
    """Convolution against a radial kernel, sum_y f(y) chi(d(y, x)).

    Runs on the ``_RadialGather`` of f's support: f(y) chi(|z|) goes to the
    slot of y z, each slot's terms are added in ``convolve``'s order and
    each output word is built once at the end, so the result equals
    ``convolve(f, VertexFun.from_radial(chi))`` value for value and in
    order."""
    params = f.params
    if chi.params != params:
        raise ValueError("kernel lives on a different graph")
    index = _radial_gather(params, [y.syllables for y in f.data], chi.support_radius)
    exact = f.exact and chi.exact
    order, sums = _radial_sums(index, np.arange(len(f.data)), f.data.values(), chi.values, exact)
    return VertexFun(params, {ReducedWord._make(params, index.words[s]): v
                              for s, v in zip(order, sums)}, exact)


def radialize(f: VertexFun) -> RadialSeq:
    """Spherical means (1/delta(n)) sum over |y| = n; the projection onto radials."""
    params = f.params
    radius = f.support_radius()
    shells = [f.ring.zero] * (radius + 1)
    for x, v in f.items():
        shells[len(x)] = shells[len(x)] + v
    values = tuple(total * Fraction(1, params.delta(n)) for n, total in enumerate(shells))
    return RadialSeq(params, values, f.exact)


def spherical_means_at(f: VertexFun, x: ReducedWord, n: int):
    """(1/delta(n)) sum of f over the sphere of radius n around x."""
    pairs = ((y, (v,)) for y, v in f.items())
    # d(x, y) <= |x| + |y|: the shells past that reach are empty, and not built
    shells = shell_sums(x, pairs, min(n, len(x) + f.support_radius()), 1, f.ring.zero)[0]
    return (shells[n] if n < len(shells) else f.ring.zero) * Fraction(1, f.params.delta(n))


# -- Kunze-Stein checks --------------------------------------------------------------


@dataclass(frozen=True)
class KSReport:
    """Measured ratios for the convolution-smoothing inequalities (all must be <= 1)."""

    core_ratio: float
    young_ratio: float
    holder_ratio: float
    core_bound: float
    conv_l2: float


def kunze_stein_check(f: VertexFun, chi: RadialSeq, p: float = 2.0,
                      ptilde: float = 2.0) -> KSReport:
    """Measure the L2 smoothing bound and its Young/Hoelder endpoint companions.

    Core: ||f * chi||_2 <= ||f||_2 sum chi(n) delta(n) phi_0(n), valid for
    k <= r and chi >= 0.  Endpoints: ||f * chi||_p <= ||f||_1 ||chi||_p and
    ||f * chi||_inf <= ||f||_p' ||chi||_p with 1/p + 1/p' = 1 (p = ptilde).
    The convolution runs on the ``_RadialGather`` of f's support and the
    kernel's radius, and the norms read its sums in ``convolve``'s order.
    """
    if chi.params != f.params:
        raise ValueError("convolution operands live on different graphs")
    index = _radial_gather(f.params, [y.syllables for y in f.data], chi.support_radius)
    return _ks_trial(index, np.arange(len(f.data)), list(f.data.values()), chi.values,
                     f.exact, chi.exact, p, ptilde)


def _ks_trial(index: _RadialGather, rows, f_values: list, chi_values, f_exact: bool = False,
              chi_exact: bool = False, p: float = 2.0, ptilde: float = 2.0) -> KSReport:
    """``kunze_stein_check`` of the function with ``f_values`` on the support
    rows ``rows`` of ``index``, in the lane ``f_exact`` picks, and the kernel
    ``chi_values`` of the index's radius; one request's trials share one
    index, and no word or ``VertexFun`` is built."""
    params = index.params
    params.require_spectral()
    if params.k > params.r:
        raise ValueError("the L2 smoothing bound needs k <= r")
    chi_float = [float(v) for v in chi_values]
    if any(v < 0 for v in chi_float):
        raise ValueError("the kernel must be nonnegative")

    exact = f_exact and chi_exact
    _, conv = _radial_sums(index, rows, f_values, chi_values, exact)
    conv_l2 = math.sqrt(abs(_norm_sq(conv, ring_of(params.q, exact))))

    phi0 = spherical_phi(params, gamma_of(params, 0.0), len(chi_float) - 1)
    f_l2 = math.sqrt(abs(_norm_sq(f_values, ring_of(params.q, f_exact))))
    core_bound = f_l2 * sum(
        chi_float[n] * params.delta(n) * phi0[n] for n in range(len(chi_float))
    )

    def chi_lp(power: float) -> float:
        return sum(v ** power * params.delta(n) for n, v in enumerate(chi_float)) ** (1.0 / power)

    def ratio(num: float, den: float) -> float:
        if den == 0.0:
            return 0.0 if num == 0.0 else math.inf
        return num / den

    young = ratio(_lp_norm(conv, p), _lp_norm(f_values, 1.0) * chi_lp(p))
    pconj = math.inf if ptilde == 1.0 else ptilde / (ptilde - 1.0)
    holder = ratio(_lp_norm(conv, math.inf), _lp_norm(f_values, pconj) * chi_lp(ptilde))
    return KSReport(
        core_ratio=ratio(conv_l2, core_bound),
        young_ratio=young,
        holder_ratio=holder,
        core_bound=core_bound,
        conv_l2=conv_l2,
    )
