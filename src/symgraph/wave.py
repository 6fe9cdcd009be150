"""Laplacians and the shifted wave equation: stepping solver and closed forms.

The equation couples the second difference in discrete time, scaled by
beta = 2 sqrt(q)/(r(k-1)), to the graph Laplacian shifted by the spectral
gap alpha - beta.  The stencil only couples polygon neighbours, so a
solution observed on a ball of radius R up to time N needs data on the ball
of radius R + N and nothing else; the stepping solver works on exactly that
light cone.

Closed-form evaluation has two formulas: sphere sums for k <= r, and for
k > r the inverse dual Abel transform applied to spherical means, which is
valid in every regime and doubles as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebraic import AlgebraicValue
from .spectral import VertexFun
from .transforms import RadialSeq
from .words import GraphParams, ReducedWord, ball, distance, sphere

__all__ = [
    "CauchyData",
    "WaveField",
    "lap_full",
    "lap_radial",
    "lap_z",
    "wave_direct",
    "wave_closed_at",
    "wave_via_dual_abel_at",
    "asgeirsson_means",
]


def _neighbors(x: ReducedWord) -> list[ReducedWord]:
    params = x.params
    k, r = params.k, params.r
    syl = x.syllables
    out = []
    if syl:
        head, (last_g, last_e) = syl[:-1], syl[-1]
        for e in range(1, k):
            merged = (last_e + e) % k
            if merged:
                out.append(ReducedWord._make(params, head + ((last_g, merged),)))
            else:
                out.append(ReducedWord._make(params, head))
        for g in range(r):
            if g == last_g:
                continue
            for e in range(1, k):
                out.append(ReducedWord._make(params, syl + ((g, e),)))
    else:
        for g in range(r):
            for e in range(1, k):
                out.append(ReducedWord._make(params, ((g, e),)))
    return out


def _neighbor_sum(fun: VertexFun, x: ReducedWord):
    return sum((fun.value(y) for y in _neighbors(x)), fun.ring.zero)


def lap_full(f: VertexFun) -> VertexFun:
    """Graph Laplacian f(x) - mean of f over the r(k-1) neighbours of x."""
    params = f.params
    scale = Fraction(1, params.degree)
    domain = set(f.data)
    for x in f.data:
        domain.update(_neighbors(x))
    out = {x: f.value(x) - _neighbor_sum(f, x) * scale for x in domain}
    return VertexFun(params, out, f.exact)


def lap_radial(f: RadialSeq) -> RadialSeq:
    """Radial part of the Laplacian: f(0)-f(1) at the origin, then the
    three-point form {(q+1) f(n) - f(n-1) - q f(n+1)} / (r(k-1))."""
    params = f.params
    q = params.q
    out = [f.value(0) - f.value(1)]
    for n in range(1, f.support_radius + 2):
        acc = f.value(n) * (q + 1) - f.value(n - 1) - f.value(n + 1) * q
        out.append(acc * Fraction(1, params.degree))
    return RadialSeq(params, tuple(out), f.exact)


def lap_z(values: dict) -> dict:
    """Second-difference Laplacian on Z: g(n) - (g(n+1) + g(n-1)) / 2.

    This is the unique operator on Z making the horocyclic form of the graph
    Laplacian read beta q^(h/2) L_Z{q^(-h/2) f}(h) + (alpha - beta) f(h) for
    functions constant on horocycles.
    """
    domain = set(values)
    for n in values:
        domain.add(n + 1)
        domain.add(n - 1)
    zero = 0 * sum(values.values())
    out = {}
    for n in domain:
        here = values.get(n, zero)
        out[n] = here - (values.get(n + 1, zero) + values.get(n - 1, zero)) / 2
    return out


@dataclass(frozen=True)
class CauchyData:
    """Initial value f = u(., 0) and centred velocity g = (u(., 1) - u(., -1))/2."""

    initial: VertexFun
    velocity: VertexFun

    def __post_init__(self):
        if self.initial.params != self.velocity.params:
            raise ValueError("initial value and velocity live on different graphs")
        if self.initial.exact != self.velocity.exact:
            raise ValueError("initial value and velocity must share an arithmetic flavour")

    @property
    def params(self) -> GraphParams:
        return self.initial.params

    @property
    def exact(self) -> bool:
        return self.initial.exact

    @property
    def support_radius(self) -> int:
        radius = 0
        for fun in (self.initial, self.velocity):
            if fun.data:
                radius = max(radius, fun.support_radius())
        return radius


class WaveField:
    """Solution values on a time window, each time valid on a recorded ball."""

    def __init__(self, params: GraphParams, fields: dict, valid_radius: dict):
        self.params = params
        self.fields = fields
        self.valid_radius = valid_radius

    @property
    def times(self) -> list[int]:
        return sorted(self.fields)

    def at(self, x: ReducedWord, n: int):
        if n not in self.fields:
            raise ValueError(f"time {n} outside the computed window")
        if len(x) > self.valid_radius[n]:
            raise ValueError(
                f"|x| = {len(x)} outside the radius {self.valid_radius[n]} computed for time {n}"
            )
        return self.fields[n].value(x)

    def check_recurrence(self, radius: int) -> None:
        """Assert the wave equation at every interior (x, n) with |x| <= radius."""
        params = self.params
        first = next(iter(self.fields.values()))
        exact, ring = first.exact, first.ring
        beta = ring.coerce(params.beta)
        gap, inv_beta = ring.coerce(params.alpha) - beta, 1 / beta
        times = self.times
        for n in times[1:-1]:
            reachable = min(
                self.valid_radius[n - 1], self.valid_radius[n], self.valid_radius[n + 1]
            )
            if reachable < radius + 1:
                continue
            for x in ball(params, radius):
                left = (self.at(x, n + 1) + self.at(x, n - 1)) - self.at(x, n) * 2
                shifted = _shifted_at(self.fields[n], x, gap)
                residue = left + shifted * inv_beta * 2
                ok = not residue if exact else abs(residue) < 1e-9
                if not ok:
                    raise AssertionError(f"wave recurrence fails at x={x}, n={n}")


def _shifted_at(fun: VertexFun, x: ReducedWord, gap):
    # (L - gap) applied to fun at x
    here = fun.value(x)
    return here - _neighbor_sum(fun, x) * Fraction(1, fun.params.degree) - here * gap


def wave_direct(params: GraphParams, data: CauchyData, steps: int,
                observe_radius: int | None = None) -> WaveField:
    """Step the wave equation over the window [-steps, steps].

    ``observe_radius`` bounds the region whose values the caller needs; the
    solver then only visits the light cone of that region (radius
    observe_radius + steps - |n| at time n, capped by the support cone).
    By default everything that can be nonzero is computed.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    exact, ring = data.exact, data.initial.ring
    supp = data.support_radius
    if observe_radius is None:
        observe_radius = supp + steps
    beta = ring.coerce(params.beta)
    gap, inv_beta = ring.coerce(params.alpha) - beta, 1 / beta
    # u(n+1) = c_self u(n) + c_neigh (neighbour sum of u(n)) - u(n-1)
    c_self = (1 - (1 - gap) * inv_beta) * 2
    c_neigh = inv_beta * Fraction(1, params.degree) * 2

    def cone_radius(n: int) -> int:
        return min(supp + abs(n), observe_radius + steps - abs(n))

    def valid_radius(n: int) -> int:
        # beyond the support cone the solution is exactly zero, so validity
        # is unbounded whenever the support branch is the binding one
        cone = observe_radius + steps - abs(n)
        return cone if cone < supp + abs(n) else 10**9

    f0, vel = data.initial, data.velocity
    fields = {0: VertexFun(params, dict(f0.data), exact)}
    valid = {0: valid_radius(0)}

    if steps >= 1:
        u1 = {}
        for x in ball(params, cone_radius(1)):
            shifted = _shifted_at(f0, x, gap)
            u1[x] = f0.value(x) - shifted * inv_beta + vel.value(x)
        um1 = {x: v - vel.value(x) * 2 for x, v in u1.items()}
        fields[1] = VertexFun(params, u1, exact)
        fields[-1] = VertexFun(params, um1, exact)
        valid[1] = valid[-1] = valid_radius(1)

    for direction in (1, -1):
        for m in range(1, steps):
            n = direction * m
            current, older = fields[n], fields[n - direction]
            radius = cone_radius(n + direction)
            nxt = {}
            for x in ball(params, radius):
                nxt[x] = (current.value(x) * c_self + _neighbor_sum(current, x) * c_neigh
                          - older.value(x))
            fields[n + direction] = VertexFun(params, nxt, exact)
            valid[n + direction] = valid_radius(n + direction)
    return WaveField(params, fields, valid)


def _shell_sums(fun: VertexFun, x: ReducedWord, max_ell: int) -> list:
    """Sums of fun over the distance shells 0..max_ell around x."""
    sums = [fun.ring.zero] * (max_ell + 1)
    for y, v in fun.items():
        d = distance(x, y)
        if d <= max_ell:
            sums[d] = sums[d] + v
    return sums


def wave_via_dual_abel_at(params: GraphParams, data: CauchyData, x: ReducedWord, n: int):
    """Closed evaluation through the inverse dual Abel transform of spherical means.

    Valid in every regime; the odd part accumulates the velocity solution over
    times of opposite parity below |n|.
    """
    if n == 0:
        return data.initial.value(x)
    ring = data.initial.ring
    size = abs(n)
    sign = 1 if n > 0 else -1

    def inv_dual(fun: VertexFun, m: int):
        if m == 0:
            return fun.value(x)
        sums = _shell_sums(fun, x, m)
        acc = sums[m] * Fraction(1, 2)
        k, r, q = params.k, params.r, params.q
        for j in range(m):
            window = q - 1 + (r - k) * (1 - k) ** (m - j)
            acc = acc - sums[j] * Fraction(window, 2 * k)
        return ring.qpow(-m) * acc

    total = inv_dual(data.initial, size)
    if size % 2 == 0:
        odd_part = ring.zero
        for ell in range(1, size, 2):
            odd_part = odd_part + inv_dual(data.velocity, ell)
        total = total + odd_part * 2 * sign
    else:
        odd_part = data.velocity.value(x)
        for ell in range(2, size, 2):
            odd_part = odd_part + inv_dual(data.velocity, ell) * 2
        total = total + odd_part * sign
    return total


def _closed_small_k(params: GraphParams, data: CauchyData, x: ReducedWord, n: int):
    # sphere-sum solution for k <= r
    ring = data.initial.ring
    k, r, q = params.k, params.r, params.q
    size = abs(n)
    sign = 1 if n > 0 else -1
    f_sums = _shell_sums(data.initial, x, size)
    g_sums = _shell_sums(data.velocity, x, max(size - 1, 0))

    total = ring.qpow(-size) * f_sums[size] * Fraction(1, 2)
    for ell in range(size):
        window = q - 1 + (r - k) * (1 - k) ** (size - ell)
        total = total - ring.qpow(-size) * f_sums[ell] * Fraction(window, 2 * k)
    if size >= 1:
        total = total + ring.qpow(-(size - 1)) * g_sums[size - 1] * sign
        inner = ring.zero
        for ell in range(size - 1):
            inner = inner + g_sums[ell]
            inner = inner - g_sums[ell] * (1 - k) ** (size - ell)
        total = total + ring.qpow(-(size - 1)) * inner * Fraction(sign, k)
    return total


def wave_closed_at(params: GraphParams, data: CauchyData, x: ReducedWord, n: int):
    """Closed-form solution value u(x, n).

    Two formulas: sphere sums around x when k <= r, and the inverse dual
    Abel transform of spherical means when k > r.
    """
    if n == 0:
        return data.initial.value(x)
    if params.k <= params.r:
        return _closed_small_k(params, data, x, n)
    return wave_via_dual_abel_at(params, data, x, n)


def asgeirsson_means(params: GraphParams, U, x: ReducedWord, y: ReducedWord,
                     m: int, n: int, check_pde: bool = True):
    """Double sphere sums of U over S(x, m) x S(y, n) and with radii swapped.

    U is a callable on vertex pairs that must satisfy L_x U = L_y U; the
    identity of the two returned sums is the mean-value symmetry under test.
    ``check_pde`` verifies the hypothesis at the base pair (the full interior
    is the caller's responsibility).
    """
    if check_pde:
        deg = params.degree
        lap_x = U(x, y) * deg - sum(U(xx, y) for xx in _neighbors(x))
        lap_y = U(x, y) * deg - sum(U(x, yy) for yy in _neighbors(y))
        diff = lap_x - lap_y
        if isinstance(diff, (AlgebraicValue, int, Fraction)):
            bad = bool(diff)
        else:
            bad = abs(diff) > 1e-9 * (1.0 + abs(lap_x))
        if bad:
            raise ValueError("U does not satisfy L_x U = L_y U at the base pair")

    def double_sum(rad_x: int, rad_y: int):
        xs = [x * w for w in sphere(params, rad_x)]
        ys = [y * w for w in sphere(params, rad_y)]
        total = None
        for xx in xs:
            for yy in ys:
                value = U(xx, yy)
                total = value if total is None else total + value
        return total

    return double_sum(m, n), double_sum(n, m)
