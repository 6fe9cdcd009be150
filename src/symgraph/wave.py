"""Laplacians and the shifted wave equation: stepping solver and closed forms.

The equation couples the second difference in discrete time, scaled by
beta = 2 sqrt(q)/(r(k-1)), to the graph Laplacian shifted by the spectral
gap alpha - beta.  The stencil only couples polygon neighbours, so a
solution observed on a ball of radius R up to time N needs data on the ball
of radius R + N and nothing else; the stepping solver works on exactly that
light cone.

A ``CauchyData`` is encoded once, on first use: f and g over their common
denominator D, as integer parts on the union of their supports.  Both solvers
read that form.

The stepper works on arrays, not on words.  Scaled by 2D sqrt(q)^|n| the
solution obeys an integer recurrence, so the exact lane steps two Python-int
arrays (the rational and the sqrt(q) parts) and decodes each time slice once.
Its arrays follow ``ball()`` order (see ``words.position``), in which the
neighbour sum needs no table.  A window of more than ``MAX_WINDOW_VALUES``
vertex-values is refused up front.

Closed-form evaluation is one formula in every regime: Asgeirsson's mean
value theorem and the inverse dual Abel transform of spherical means, whose
velocity terms of every radius fold into one closed weight vector.  Scaled
by 2k D sqrt(q)^|n| the value is integer linear in the shell sums of the data
around x, so it reads the distance profile of the union of the supports
(``boundary.shell_sums``: one ``distance`` call per word, the parts added
into shell sums held in plain Python numbers), takes two dot products with
the weight rows and decodes once.  A time whose weights would hold more
than ``MAX_CLOSED_BITS`` bits is refused up front.  Between calls only the encoded data and the weight rows are kept,
the rows per graph, time and lane (``_rows``, a bounded cache); in particular
no value or distance is remembered per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import mul

import numpy as np

from .algebraic import AlgebraicValue
from .boundary import shell_sums
from .spectral import VertexFun
from .transforms import MAX_CLOSED_BITS, RadialSeq
from .words import (
    GraphParams,
    ReducedWord,
    _self_plus_neighbors,
    ball,
    ball_size,
    distance,  # noqa: F401  (kept importable: bench/test_bench.py reads wave.distance)
    neighbors,
    position,
    sphere,
)

__all__ = [
    "CauchyData",
    "WaveField",
    "lap_full",
    "lap_radial",
    "lap_z",
    "wave_direct",
    "check_window",
    "MAX_WINDOW_VALUES",
    "wave_closed_at",
    "wave_via_dual_abel_at",
    "MAX_CLOSED_BITS",
    "asgeirsson_means",
]


def _neighbor_sum(fun: VertexFun, x: ReducedWord):
    return sum((fun.value(y) for y in neighbors(x)), fun.ring.zero)


def lap_full(f: VertexFun) -> VertexFun:
    """Graph Laplacian f(x) - mean of f over the r(k-1) neighbours of x."""
    params = f.params
    scale = Fraction(1, params.degree)
    domain = set(f.data)
    for x in f.data:
        domain.update(neighbors(x))
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
    """Initial value f = u(., 0) and centred velocity g = (u(., 1) - u(., -1))/2.

    The data is encoded for the array lane once, on first use (see
    ``_encoded``), and every solver reads that form, so the two ``VertexFun``
    must not be mutated after construction.
    """

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

    @cached_property
    def _encoded(self) -> tuple[list[ReducedWord], int, list, tuple]:
        """The union of the supports (f's words, then the words only in g),
        the common denominator D of f and g, the parts of D f and D g on
        those words as the ring's ``encode`` gives them, and per word the
        same parts as Python numbers (f's, then g's).  Every call shares
        them, so the part arrays are read-only."""
        f, g = self.initial.data, self.velocity.data
        ring = self.initial.ring
        words = list(f)
        words += [y for y in g if y not in f]
        scale, columns = ring.encode([[f.get(y, ring.zero) for y in words],
                                      [g.get(y, ring.zero) for y in words]])
        for part in (part for parts in columns for part in parts):
            part.flags.writeable = False
        by_word = tuple(zip(*(part.tolist() for parts in columns for part in parts)))
        return words, scale, columns, by_word


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
        _require_graph(self.params, x.params, "point")
        if n not in self.fields:
            raise ValueError(f"time {n} outside the computed window")
        if len(x) > self.valid_radius[n]:
            raise ValueError(
                f"|x| = {len(x)} outside the radius {self.valid_radius[n]} computed for time {n}"
            )
        return self.fields[n].value(x)

    def check_recurrence(self, radius: int) -> None:
        """Assert the wave equation at every interior (x, n) with |x| <= radius.

        Exact fields must satisfy it with ==.  Float fields must satisfy it
        to 1e-9 times the largest |u| in the time slices n - 1, n and n + 1,
        which bounds every term of the equation at x.
        """
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
            if not exact:
                slices = (self.fields[t].data.values() for t in (n - 1, n, n + 1))
                tol = 1e-9 * max((abs(v) for values in slices for v in values), default=0.0)
            for x in ball(params, radius):
                left = (self.at(x, n + 1) + self.at(x, n - 1)) - self.at(x, n) * 2
                shifted = _shifted_at(self.fields[n], x, gap)
                residue = left + shifted * inv_beta * 2
                ok = not residue if exact else abs(residue) <= tol
                if not ok:
                    raise AssertionError(f"wave recurrence fails at x={x}, n={n}")


def _shifted_at(fun: VertexFun, x: ReducedWord, gap):
    # (L - gap) applied to fun at x
    here = fun.value(x)
    return here - _neighbor_sum(fun, x) * Fraction(1, fun.params.degree) - here * gap


MAX_WINDOW_VALUES = 1_000_000
"""Most vertex-values a stepper window may hold: sum over |n| <= steps of the
size of the ball it covers at time n."""


def _cone_radius(support_radius: int, steps: int, observe_radius: int, n: int) -> int:
    return min(support_radius + abs(n), observe_radius + steps - abs(n))


def check_window(params: GraphParams, support_radius: int, steps: int,
                 observe_radius: int) -> None:
    """Raise ``ValueError`` when the stepper window would hold more than
    ``MAX_WINDOW_VALUES`` vertex-values; nothing is enumerated."""
    total = 0
    for n in range(-steps, steps + 1):
        radius = _cone_radius(support_radius, steps, observe_radius, n)
        total += ball_size(params, radius, MAX_WINDOW_VALUES)
        if total > MAX_WINDOW_VALUES:
            raise ValueError(
                f"a {steps}-step window over support radius {support_radius} on the "
                f"({params.k}, {params.r}) graph holds more than {MAX_WINDOW_VALUES} values"
            )


def _on_ball(column, words: list[ReducedWord], radius: int, offsets: list[int]):
    # column holds one entry per word; those of the words in ball(radius),
    # placed in ball() order, zero elsewhere
    out = np.zeros(offsets[radius + 1], dtype=column.dtype)
    near = [i for i, y in enumerate(words) if len(y) <= radius]
    out[[offsets[len(words[i])] + position(words[i]) for i in near]] = column[near]
    return out


def _require_graph(params: GraphParams, home: GraphParams, what: str) -> None:
    if params is not home and params != home:
        raise ValueError(
            f"the {what} lives on the ({home.k}, {home.r}) graph, "
            f"not on ({params.k}, {params.r})"
        )


def wave_direct(params: GraphParams, data: CauchyData, steps: int,
                observe_radius: int | None = None) -> WaveField:
    """Step the wave equation over the window [-steps, steps].

    ``observe_radius`` bounds the region whose values the caller needs; the
    solver then only visits the light cone of that region (radius
    observe_radius + steps - |n| at time n, capped by the support cone).
    By default everything that can be nonzero is computed.  A window of
    more than ``MAX_WINDOW_VALUES`` vertex-values raises ``ValueError``
    before anything is enumerated.

    The step u(n+d) = ((2-k) u(n) + S u(n)) / sqrt(q) - u(n-d) in the
    direction d = +-1, with S the neighbour sum, runs on
    w(n) = 2D sqrt(q)^|n| u(n), where D is the common denominator of the data:

        w(n+d) = (2-k) w(n) + S w(n) - q w(n-d),
        w(d) = D ((2-k) f + S f) + d 2D sqrt(q) g.

    Both are integer linear maps, so they act part by part on the encoded
    data (``CauchyData._encoded``): two Python-int arrays (the rational and
    the sqrt(q) parts) in the exact lane, one float or complex array in the
    float lane.  Each time slice is an array over a ball in ``ball()`` order,
    where S needs no table (see ``words._self_plus_neighbors``), and is decoded
    into values once.  ``params`` must be the graph of the data.
    """
    _require_graph(params, data.params, "data")
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    exact, ring = data.exact, data.initial.ring
    supp = data.support_radius
    if observe_radius is None:
        observe_radius = supp + steps
    check_window(params, supp, steps, observe_radius)

    def valid_radius(n: int) -> int:
        # beyond the support cone the solution is exactly zero, so validity
        # is unbounded whenever the support branch is the binding one
        cone = observe_radius + steps - abs(n)
        return cone if cone < supp + abs(n) else 10**9

    fields = {0: VertexFun(params, dict(data.initial.data), exact)}
    valid = {0: valid_radius(0)}
    if steps == 0:
        return WaveField(params, fields, valid)

    cone = [_cone_radius(supp, steps, observe_radius, m) for m in range(steps + 1)]
    top = max(cone[1:])
    offsets = [ball_size(params, m - 1) for m in range(top + 3)]
    words = list(ball(params, top))
    q = params.q
    # f is needed on the first cone plus one shell, g on the first cone
    start = min(supp, cone[1] + 1)
    support, scale, (f_columns, g_columns), _ = data._encoded
    scale *= 2
    f_parts = [_on_ball(column, support, start, offsets) for column in f_columns]
    g_parts = [_on_ball(column, support, cone[1], offsets) for column in g_columns]

    def store(n: int, parts) -> None:
        values = ring.decode([p.tolist() for p in parts], scale, abs(n))
        fields[n] = VertexFun(params, dict(zip(words, values)), exact)
        valid[n] = valid_radius(n)

    base = [_self_plus_neighbors(p, start, cone[1], params, offsets) for p in f_parts]
    kick = ring.times_root([p * 2 for p in g_parts])
    firsts = {1: [b + g for b, g in zip(base, kick)], -1: [b - g for b, g in zip(base, kick)]}
    for n, parts in firsts.items():
        store(n, parts)

    for direction, first in firsts.items():
        older, current = [p * 2 for p in f_parts], first
        for m in range(1, steps):
            nxt = []
            for now, old in zip(current, older):
                new = _self_plus_neighbors(now, cone[m], cone[m + 1], params, offsets)
                shared = min(len(new), len(old))
                new[:shared] -= old[:shared] * q
                nxt.append(new)
            older, current = current, nxt
            store(direction * (m + 1), current)
    return WaveField(params, fields, valid)


def _weights(params: GraphParams, m: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # the integer weights c(m) of the f shells 0..m and v(m) of the g shells
    # 0..m-1 in wave_closed_at, from m multiplications
    k, r, q = params.k, params.r, params.q
    powers = list(accumulate([1 - k] * m, mul))[::-1]  # (1 - k)^(m - l), l < m
    return tuple(-(q - 1 + (r - k) * p) for p in powers) + (k,), tuple(1 - p for p in powers)


@lru_cache(maxsize=32)
def _rows(params: GraphParams, m: int, exact: bool) -> tuple[tuple, tuple, int]:
    # c(m) and v(m) as the lane multiplies them, and the power of sqrt(q) that
    # ``decode`` still divides by.  The float lane divides by sqrt(q)^m before
    # the integers become floats, so it overflows only where the value does
    c, v = _weights(params, m)
    if exact:
        return c, v, m
    den, root = params.q ** (m // 2), params.q ** (m % 2 / 2)
    return tuple(w / den / root for w in c), tuple(w / den / root for w in v), 0


def wave_closed_at(params: GraphParams, data: CauchyData, x: ReducedWord, n: int):
    """Closed-form solution value u(x, n), one formula in every regime.

    With D the common denominator of the data and F_l, G_l the sums of the
    integer parts of D f and D g over the sphere of radius l around x,

        2k D sqrt(q)^|n| u(x, n) = P + sqrt(q) Q,   n != 0,
        P = sum_{l <= |n|} c_l F_l,   c(m) = [-(q - 1 + (r - k)(1 - k)^(m - l))]_{l < m} ++ [k],
        Q = 2 sign(n) sum_{l < |n|} v_l G_l,   v(m) = [1 - (1 - k)^(m - l)]_{l < m}.

    c(m) is 2k sqrt(q)^m times the inverse dual Abel transform at m, which
    Asgeirsson's mean value theorem applies to the spherical means of f.  The
    velocity adds the inverse transforms of the means of g at the radii
    l < m of opposite parity, each lifted by sqrt(q)^(m - l), so
    v(m) = sum_l q^((m - l - 1)/2) c(l), zero-padded to length m.  That fold
    is the closed vector above for every k and r: v(1) = c(0) = [k],
    v(2) = c(1) because q + (r - k)(1 - k) = (k - 1)^2, and both sides obey
    v(m + 2) = q v(m) + c(m + 1), since
    q (1 - t^j) - (q - 1 + (r - k) t^(j + 1)) = 1 - t^(j + 2) for t = 1 - k.

    So each value reads the shell sums F_l and G_l, plain Python numbers,
    from ``boundary.shell_sums`` over the union of the supports: one
    ``distance`` call per word, and a word farther than |n| from x is in no
    shell.  The dot products take the weight rows of ``_rows`` (cached per
    graph, time and lane, never per point), then one ``times_root`` and one
    ``decode``.  A time whose weights would hold more than ``MAX_CLOSED_BITS``
    bits raises ``ValueError`` before any of that, and so do a ``params``
    that is not the graph of the data and a point ``x`` on another graph.
    """
    _require_graph(params, data.params, "data")
    _require_graph(params, x.params, "point")
    if n == 0:
        return data.initial.value(x)
    size = abs(n)
    if size * size * params.k.bit_length() > 2 * MAX_CLOSED_BITS:
        raise ValueError(
            f"time {n} on the ({params.k}, {params.r}) graph needs closed-form weights "
            f"of more than {MAX_CLOSED_BITS} bits"
        )
    words, scale, columns, by_word = data._encoded
    half, sign = len(columns[0]), 1 if n > 0 else -1
    sums = shell_sums(x, zip(words, by_word), size, 2 * half)  # f's parts, then g's
    c, v, owed = _rows(params, size, data.exact)
    ring = data.initial.ring
    p_parts = [sum(map(mul, c, shells)) for shells in sums[:half]]
    q_parts = ring.times_root([2 * sign * sum(map(mul, v, shells)) for shells in sums[half:]])
    parts = [[a + b] for a, b in zip(p_parts, q_parts)]
    return ring.decode(parts, 2 * params.k * scale, owed)[0]


# the inverse dual Abel route is the same formula (see wave_closed_at)
wave_via_dual_abel_at = wave_closed_at


def asgeirsson_means(params: GraphParams, U, x: ReducedWord, y: ReducedWord, m: int, n: int):
    """Double sphere sums of U over S(x, m) x S(y, n) and with radii swapped.

    U is a callable on vertex pairs that must satisfy L_x U = L_y U; the
    identity of the two returned sums is the mean-value symmetry under test.
    The hypothesis is checked at the base pair only, raising ``ValueError``
    when it fails there (the full interior is the caller's responsibility).
    """
    deg = params.degree
    lap_x = U(x, y) * deg - sum(U(xx, y) for xx in neighbors(x))
    lap_y = U(x, y) * deg - sum(U(x, yy) for yy in neighbors(y))
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
