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

import numpy as np

from .algebraic import ring_of
from .boundary import BoundaryRay, DepthError, busemann, shell_sums
from .transforms import EvenSeq, RadialSeq
from .words import GraphParams, ReducedWord, ball, distance, sphere

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


def gauss_legendre_adaptive(fn, a: float, b: float, tol: float = 1e-9,
                            start_order: int = 32, max_order: int = 4096):
    """Integrate a vectorized callable on [a, b], doubling the order until stable.

    Returns (value, error_estimate) where the estimate is the difference of
    the last two levels.  Two levels agree when they differ by at most
    ``tol``, or by at most the rounding bound of the level's float sum,
    order * machine epsilon * sum |weight * f(node)|, when that is larger:
    no order resolves a large integral more finely than its own rounding,
    so the tolerance grows with the integral's magnitude.  Raises
    ``QuadratureError`` when max_order is not enough, reporting the error it
    did achieve.
    """
    previous, change = None, math.inf
    order = start_order
    while order <= max_order:
        nodes, weights = np.polynomial.legendre.leggauss(order)
        xs = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        terms = weights * fn(xs)
        value = complex(0.5 * (b - a) * np.sum(terms))
        if value.imag == 0:
            value = value.real
        if previous is not None:
            change = abs(value - previous)
            rounding = order * _EPS * 0.5 * abs(b - a) * float(np.sum(np.abs(terms)))
            if change <= max(tol, rounding):
                return value, change
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
    each once depth > |x|.  This path is independent of the recurrence and
    arbitrates it in the tests.  ``lam`` may be an array; the cylinder walk
    is shared across its entries.  A depth past ``MAX_CYLINDERS`` cylinders
    raises ``ValueError`` before the walk.
    """
    params.require_spectral()
    if depth <= len(x):
        raise DepthError(f"phi oracle at |x| = {len(x)} needs cylinder depth > {len(x)}")
    check_depth(params, depth)
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    lnq = math.log(params.q)
    totals = np.zeros(len(lams), dtype=complex)
    # the cylinders by their Busemann index z = depth - d(x, y) at x
    cylinders = ((y, (1,)) for y in sphere(params, depth))
    for d, count in enumerate(shell_sums(x, cylinders, depth + len(x), 1)[0]):
        if count:
            totals += count * np.exp((0.5 + 1j * lams) * (depth - d) * lnq)
    totals /= params.delta(depth)
    if np.ndim(lam) == 0:
        return complex(totals[0])
    return totals


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


def spherical_transform(f: RadialSeq, lam):
    """sum_n f(n) phi_lam(n) delta(n); vectorizes over a lam array."""
    params = f.params
    params.require_spectral()
    vals = _float_values(f)
    phi = spherical_phi(params, gamma_of(params, lam), f.support_radius)
    total = vals[0] * (phi[0] if np.ndim(lam) else 1.0)
    for n in range(1, len(vals)):
        total = total + vals[n] * phi[n] * params.delta(n)
    return total


def spherical_transform_atom(f: RadialSeq):
    """The spherical transform evaluated at the atom eigenvalue 1/(1-k).

    Exact input gives an exact value (the atom eigenvalue is rational), which
    matters for k > r Plancherel checks.
    """
    params = f.params
    gamma = gamma_atom(params)
    phi = spherical_phi(params, f.ring.coerce(gamma), f.support_radius)
    total = f.value(0) * phi[0]
    for n in range(1, f.support_radius + 1):
        total = total + f.value(n) * phi[n] * params.delta(n)
    return total


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
        if self.exact:
            return sum((v * v for v in self.data.values()), self.ring.zero)
        return sum(abs(v) ** 2 for v in self.data.values())

    def lp_norm(self, p: float) -> float:
        if p == math.inf:
            return max((abs(v) for v in self.data.values()), default=0.0)
        return sum(abs(v) ** p for v in self.data.values()) ** (1.0 / p)


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


def _atom_weight(params: GraphParams) -> float:
    return (params.k - params.r) / params.k if params.k > params.r else 0.0


def plancherel_norm(f: RadialSeq, tol: float = 1e-9) -> QuadResult:
    """Spectral-side squared L2 norm of a radial function.

    Integrates |Hf|^2 against the continuous density over [0, tau/2] and,
    when k > r, adds the atom mass (k-r)/k |Hf(atom)|^2.  Agrees with
    ``f.norm_sq()`` to quadrature accuracy.
    """
    params = f.params
    params.require_spectral()

    def integrand(lams: np.ndarray) -> np.ndarray:
        values = spherical_transform(f, lams)
        return np.abs(values) ** 2 * plancherel_density(params, lams)

    value, err = gauss_legendre_adaptive(integrand, 0.0, params.tau / 2.0, tol)
    weight = _atom_weight(params)
    if weight:
        atom = spherical_transform_atom(RadialSeq.of(params, f.values, exact=False))
        value += weight * abs(atom) ** 2
    return QuadResult(float(value), err)


def invert_spherical(f: RadialSeq, x: ReducedWord, tol: float = 1e-9) -> QuadResult:
    """Recover f(|x|) from its spherical transform by quadrature (atom included)."""
    params = f.params
    params.require_spectral()
    n = len(x)

    def integrand(lams: np.ndarray) -> np.ndarray:
        values = spherical_transform(f, lams)
        phi = spherical_phi(params, gamma_of(params, lams), n)[n]
        return values * phi * plancherel_density(params, lams)

    value, err = gauss_legendre_adaptive(integrand, 0.0, params.tau / 2.0, tol)
    weight = _atom_weight(params)
    if weight:
        atom_phi = spherical_phi(params, float(gamma_atom(params)), n)[n]
        atom = spherical_transform_atom(RadialSeq.of(params, f.values, exact=False))
        value += weight * float(atom) * atom_phi
    return QuadResult(float(value), err)


def _cylinder_profile(f: VertexFun, depth: int):
    """Per-cylinder amplitudes A[y, z] = sum over support of f at Busemann index z."""
    params = f.params
    radius = f.support_radius()
    if depth <= radius:
        raise DepthError(f"needs cylinder depth > {radius}")
    check_depth(params, depth)
    support = [(x, (complex(v),)) for x, v in f.items()]
    cylinders = list(sphere(params, depth))
    z_values = np.arange(-radius, depth + 1)
    amp = np.zeros((len(cylinders), len(z_values)), dtype=complex)
    for i, y in enumerate(cylinders):
        # the shell at distance d holds index z = depth - d
        amp[i] = shell_sums(y, support, depth + radius, 1, 0j)[0][::-1]
    return cylinders, z_values, amp


def helgason_norm_sq(f: VertexFun, depth: int, tol: float = 1e-9) -> QuadResult:
    """Boundary-integrated Plancherel norm of a nonradial function (k <= r only)."""
    params = f.params
    params.require_spectral()
    if params.k > params.r:
        raise ValueError("nonradial Plancherel is implemented for k <= r only")
    cylinders, z_values, amp = _cylinder_profile(f, depth)
    lnq = math.log(params.q)
    mass = params.delta(depth)

    def integrand(lams: np.ndarray) -> np.ndarray:
        out = np.empty(len(lams))
        for start in range(0, len(lams), 128):
            chunk = lams[start:start + 128]
            powers = np.exp(np.multiply.outer((0.5 + 1j * chunk) * lnq, z_values))
            fhat = powers @ amp.T
            out[start:start + 128] = (np.abs(fhat) ** 2).sum(axis=1) / mass
        return out * plancherel_density(params, lams)

    value, err = gauss_legendre_adaptive(integrand, 0.0, params.tau / 2.0, tol)
    return QuadResult(float(value), err)


def invert_helgason(f: VertexFun, x: ReducedWord, depth: int, tol: float = 1e-9) -> QuadResult:
    """Recover f(x) from the boundary transform (k <= r only).

    Needs cylinder depth above both the support radius and |x|; a depth past
    ``MAX_CYLINDERS`` cylinders raises ``ValueError`` before any walk.
    """
    params = f.params
    params.require_spectral()
    if params.k > params.r:
        raise ValueError("nonradial inversion is implemented for k <= r only")
    if depth <= len(x):
        raise DepthError(f"inversion at |x| = {len(x)} needs cylinder depth > {len(x)}")
    cylinders, z_values, amp = _cylinder_profile(f, depth)
    lnq = math.log(params.q)
    mass = params.delta(depth)

    # pair the cylinder amplitudes with the Busemann index of the target point
    x_index = np.array([depth - distance(x, y) for y in cylinders])
    x_range = np.arange(x_index.min(), x_index.max() + 1)
    paired = np.zeros((len(x_range), len(z_values)), dtype=complex)
    for i, z2 in enumerate(x_index):
        paired[z2 - x_range[0]] += amp[i]

    def integrand(lams: np.ndarray) -> np.ndarray:
        fwd = np.exp(np.multiply.outer((0.5 + 1j * lams) * lnq, z_values))
        back = np.exp(np.multiply.outer((0.5 - 1j * lams) * lnq, x_range))
        per_lam = np.einsum("lz,lw,wz->l", fwd, back, paired)
        return per_lam / mass * plancherel_density(params, lams)

    value, err = gauss_legendre_adaptive(integrand, 0.0, params.tau / 2.0, tol)
    return QuadResult(float(np.real(value)), err)


# -- convolution and radialization -------------------------------------------------


def convolve(f: VertexFun, g: VertexFun) -> VertexFun:
    """Group convolution sum_y f(y) g(y^-1 x), by support pairs."""
    if f.params != g.params:
        raise ValueError("convolution operands live on different graphs")
    exact = f.exact and g.exact
    ring = ring_of(f.params.q, exact)
    out: dict = {}
    left = [(y, ring.coerce(v)) for y, v in f.items()]
    right = [(z, ring.coerce(v)) for z, v in g.items()]
    for y, fv in left:
        for z, gv in right:
            w = y * z
            out[w] = out.get(w, ring.zero) + fv * gv
    return VertexFun(f.params, out, exact)


def convolve_radial(f: VertexFun, chi: RadialSeq) -> VertexFun:
    """Convolution against a radial kernel via distance shells around each point."""
    params = f.params
    if chi.params != params:
        raise ValueError("kernel lives on a different graph")
    exact = f.exact and chi.exact
    ring = ring_of(params.q, exact)
    support = [(y, (ring.coerce(v),)) for y, v in f.items()]
    kernel = [ring.coerce(v) for v in chi.values]
    candidates = set()
    for y in f.data:
        for w in ball(params, chi.support_radius):
            candidates.add(y * w)
    out = {}
    for x in candidates:
        shells = shell_sums(x, support, chi.support_radius, 1, ring.zero)[0]
        out[x] = sum((k * s for k, s in zip(kernel, shells) if s), ring.zero)
    return VertexFun(params, out, exact)


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
    """
    params = f.params
    params.require_spectral()
    if params.k > params.r:
        raise ValueError("the L2 smoothing bound needs k <= r")
    chi_float = [float(v) for v in chi.values]
    if any(v < 0 for v in chi_float):
        raise ValueError("the kernel must be nonnegative")

    conv = convolve(f, VertexFun.from_radial(chi))
    conv_l2 = math.sqrt(abs(conv.norm_sq()))

    phi0 = spherical_phi(params, gamma_of(params, 0.0), chi.support_radius)
    f_l2 = math.sqrt(abs(f.norm_sq()))
    core_bound = f_l2 * sum(
        chi_float[n] * params.delta(n) * phi0[n] for n in range(len(chi_float))
    )

    def chi_lp(power: float) -> float:
        return sum(v ** power * params.delta(n) for n, v in enumerate(chi_float)) ** (1.0 / power)

    def ratio(num: float, den: float) -> float:
        if den == 0.0:
            return 0.0 if num == 0.0 else math.inf
        return num / den

    young = ratio(conv.lp_norm(p), f.lp_norm(1.0) * chi_lp(p))
    pconj = math.inf if ptilde == 1.0 else ptilde / (ptilde - 1.0)
    holder = ratio(conv.lp_norm(math.inf), f.lp_norm(pconj) * chi_lp(ptilde))
    return KSReport(
        core_ratio=ratio(conv_l2, core_bound),
        young_ratio=young,
        holder_ratio=holder,
        core_bound=core_bound,
        conv_l2=conv_l2,
    )
