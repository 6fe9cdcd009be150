"""Exact scalars a + b*sqrt(q) over the rationals.

All combinatorial transforms in this package take values in the real
quadratic ring generated by sqrt(q), where q = (r-1)(k-1) is the growth base
of the graph.  Working in this ring keeps every half-integer power of q
exact, so round-trip identities can be asserted with ``==`` rather than a
tolerance.

Values are immutable and canonical.  A value is stored as one integer triple
(A, B, D) with value (A + B*sqrt(q)) / D, where D > 0 and gcd(A, B, D) = 1;
when q is a perfect square the sqrt(q) part is folded into the rational part
at construction, so B = 0.  Structural equality is then semantic equality.
Every ring operation forms integer products and reduces them with one
three-way gcd (a sum first brings both values over the lcm of their
denominators); no ``Fraction`` is built.  The rational parts a = A/D and
b = B/D are ``Fraction`` properties, built only when asked for.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "AlgebraicValue",
    "RingMismatchError",
    "q_half_power",
    "sqrt_q",
    "parse_value",
    "ring_of",
]


class RingMismatchError(ValueError):
    """Arithmetic between values attached to different ring parameters q."""


def _exact_root(q: int) -> int | None:
    root = math.isqrt(q)
    return root if root * root == q else None


_SCALE = 10**60


@lru_cache(maxsize=64)
def _root_approx(q: int) -> Fraction:
    # the 60-digit rational approximation of sqrt(q); float(a + b*sqrt(q)) goes
    # through it so that cancellation between the two parts does not destroy
    # the result
    return Fraction(math.isqrt(q * _SCALE * _SCALE), _SCALE)


def _canonical(A: int, B: int, D: int, q: int) -> "AlgebraicValue":
    """The value (A + B*sqrt(q)) / D for integers with D != 0, reduced by one
    three-way gcd and a sign fix.  B must already be 0 when q is a perfect
    square; the ring operations keep that, since they map B = 0 to B = 0."""
    g = math.gcd(A, B, D)
    if D < 0:
        g = -g
    if g != 1:
        A //= g
        B //= g
        D //= g
    value = object.__new__(AlgebraicValue)
    value.triple = (A, B, D)
    value.q = q
    return value


def _sum(x: tuple, y: tuple, q: int) -> "AlgebraicValue":
    """The sum of two triples over the lcm of their denominators, which keeps
    the integers smaller than the product would on large values."""
    (A, B, D), (A2, B2, D2) = x, y
    g = math.gcd(D, D2)
    s, t = D // g, D2 // g
    return _canonical(A * t + A2 * s, B * t + B2 * s, s * D2, q)


class AlgebraicValue:
    """An exact number a + b*sqrt(q) with rational a, b and integer q >= 1,
    held as the canonical integer triple (A, B, D) = (a*D, b*D, D)."""

    __slots__ = ("triple", "q")

    def __init__(self, a=0, b=0, q: int = 1):
        q = int(q)
        if q < 1:
            raise ValueError(f"ring parameter must be a positive integer, got {q}")
        a = a if isinstance(a, Fraction) else Fraction(a)
        b = b if isinstance(b, Fraction) else Fraction(b)
        if b:
            root = _exact_root(q)
            if root is not None:
                a += b * root
                b = Fraction(0)
        # D = lcm of the reduced denominators makes gcd(A, B, D) = 1
        den = math.lcm(a.denominator, b.denominator)
        self.triple = (a.numerator * (den // a.denominator),
                       b.numerator * (den // b.denominator), den)
        self.q = q

    @property
    def a(self) -> Fraction:
        return Fraction(self.triple[0], self.triple[2])

    @property
    def b(self) -> Fraction:
        return Fraction(self.triple[1], self.triple[2])

    def _parts(self, other) -> tuple | None:
        """The triple of a ring element or a rational, or None for anything else."""
        if isinstance(other, AlgebraicValue):
            if other.q != self.q:
                raise RingMismatchError(
                    f"cannot combine values over sqrt({self.q}) and sqrt({other.q})"
                )
            return other.triple
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _sum(self.triple, o, self.q)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        A2, B2, D2 = o
        return _sum(self.triple, (-A2, -B2, D2), self.q)

    def __rsub__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        A, B, D = self.triple
        return _sum(o, (-A, -B, D), self.q)

    def __neg__(self):
        A, B, D = self.triple
        return _canonical(-A, -B, D, self.q)

    def __mul__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        (A, B, D), (A2, B2, D2) = self.triple, o
        return _canonical(A * A2 + B * B2 * self.q, A * B2 + B * A2, D * D2, self.q)

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicValue":
        # D / (A + B sqrt(q)) = D (A - B sqrt(q)) / (A^2 - q B^2)
        A, B, D = self.triple
        norm = A * A - B * B * self.q
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic ring")
        return _canonical(A * D, -B * D, norm, self.q)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational divisor divides both parts; no inverse to build
            if not other:
                raise ZeroDivisionError("division by zero in quadratic ring")
            n, d = other.numerator, other.denominator
            A, B, D = self.triple
            return _canonical(A * d, B * d, D * n, self.q)
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        o = self._parts(other)
        if o is None:
            return NotImplemented
        return _canonical(*o, self.q) * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = _canonical(1, 0, 1, self.q)
        base = self
        n = exponent
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons and conversions --------------------------------------------

    def is_zero(self) -> bool:
        A, B, _ = self.triple
        return not A and not B

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, AlgebraicValue):
            if other.q != self.q:
                return self.triple[1] == 0 == other.triple[1] and self.triple == other.triple
            return self.triple == other.triple
        if isinstance(other, (int, Fraction)):
            return self.triple == (other.numerator, 0, other.denominator)
        return NotImplemented

    def __hash__(self):
        A, B, D = self.triple
        if B == 0:
            # equal to hash(Fraction(A, D)) and hash(A) when D = 1, so a value
            # hashes like the int or Fraction it equals
            return hash(Fraction(A, D))
        return hash((self.triple, self.q))

    def __float__(self) -> float:
        # one correctly rounded int division, of A/D or of the rational
        # (A + B*root)/D with root the 60-digit approximation of sqrt(q)
        A, B, D = self.triple
        if not B:
            return A / D
        root = _root_approx(self.q)
        return (A * root.denominator + B * root.numerator) / (D * root.denominator)

    def __complex__(self) -> complex:
        return complex(float(self))

    def __abs__(self) -> float:
        return abs(float(self))

    # -- text form ---------------------------------------------------------------

    def __str__(self) -> str:
        a, b = self.a, self.b
        if not b:
            return str(a)
        tail = f"sqrt({self.q})" if abs(b) == 1 else f"{abs(b)}*sqrt({self.q})"
        sign = "-" if b < 0 else ("+" if a else "")
        head = str(a) if a else ""
        return f"{head}{sign}{tail}"

    def __repr__(self) -> str:
        return f"AlgebraicValue({self.a!r}, {self.b!r}, q={self.q})"


def q_half_power(q: int, m: int) -> AlgebraicValue:
    """q**(m/2) as an exact ring element, for any integer m.

    Even m gives a pure rational; odd m gives q**((m-1)/2) * sqrt(q).  When q
    is a perfect square the power is the rational root**m.
    """
    q = int(q)
    if q < 1:
        raise ValueError(f"ring parameter must be a positive integer, got {q}")
    root = _exact_root(q)
    if root is not None:
        base, e, odd = root, m, 0
    else:
        base, e, odd = q, m // 2, m % 2  # m = 2e + odd
    power = base ** abs(e)
    num, den = (power, 1) if e >= 0 else (1, power)
    return _canonical(0, num, den, q) if odd else _canonical(num, 0, den, q)


def sqrt_q(q: int) -> AlgebraicValue:
    return q_half_power(q, 1)


class ExactRing:
    """The exact lane over sqrt(q): values are ``AlgebraicValue`` and every
    half-integer power of q is exact."""

    __slots__ = ("q", "zero")

    def __init__(self, q: int):
        self.q = q
        self.zero = _canonical(0, 0, 1, q)

    def qpow(self, m: int) -> AlgebraicValue:
        return q_half_power(self.q, m)

    def coerce(self, value) -> AlgebraicValue:
        if isinstance(value, AlgebraicValue):
            if value.q != self.q:
                raise ValueError(f"value over sqrt({value.q}) in a sqrt({self.q}) context")
            return value
        if isinstance(value, (int, Fraction)):
            return _canonical(value.numerator, 0, value.denominator, self.q)
        raise TypeError(f"cannot treat {value!r} as an exact ring value")

    # Array lane: a value list becomes integer parts (A, B) over a common
    # denominator D, value = (A + B sqrt(q)) / D entrywise.  The parts are
    # tuples of Python ints, which never overflow; code that vectorises
    # builds its own arrays from them.

    def encode(self, columns) -> tuple[int, list]:
        """One common denominator D of every column, and each column's parts (A, B).

        Each value's triple already holds its parts over its own denominator,
        so D is the lcm of those and each part is scaled by D over it."""
        triples = [[self.coerce(v).triple for v in col] for col in columns]
        scale = math.lcm(1, *{D for col in triples for _, _, D in col})

        def ints(col, i):
            return tuple(scale // t[2] * t[i] for t in col)

        return scale, [(ints(col, 0), ints(col, 1)) for col in triples]

    def times_root(self, parts) -> tuple:
        """Parts of sqrt(q) * value: (A, B) -> (q B, A), for parts that are
        numbers or vectorised arrays, never tuples: q times a tuple repeats it."""
        a, b = parts
        return (b * self.q, a)

    def decoder(self, scale: int, m: int):
        """The function (A, B) -> (A + B sqrt(q)) / (scale * sqrt(q)^m), m >= 0,
        of one value's parts, Python ints; the denominator is worked out once.

        For odd m the parts swap: (A + B sqrt(q)) / sqrt(q) = (qB + A sqrt(q)) / q.
        When q is a perfect square the sqrt(q) part folds into A.
        """
        q = self.q
        root = _exact_root(q)
        if root is not None:
            den = scale * root**m
            return lambda A, B: _canonical(A + B * root, 0, den, q)
        if m % 2:
            den = scale * q ** (m // 2 + 1)
            return lambda A, B: _canonical(B * q, A, den, q)
        den = scale * q ** (m // 2)
        return lambda A, B: _canonical(A, B, den, q)


def _lift(x: float) -> Fraction:
    # the exact binary rational of a finite float
    if not math.isfinite(x):
        raise ValueError(f"the float lane needs finite values, got {x!r}")
    return Fraction(x)


class FloatRing:
    """The numeric lane: values are float or complex and q**(m/2) is rounded.

    Its array lane is exact: ``encode`` lifts each value to its exact binary
    rational (-0.0 comes back as 0.0) and encodes it with the exact ring, as
    parts (A, B), or (A, B, A', B') with the imaginary plane second when any
    value is complex; ``times_root`` acts on each plane, and ``decoder``
    rounds each exact value once.  A NaN or infinite value raises
    ``ValueError``, a decoded value past the float range ``OverflowError``.
    """

    __slots__ = ("q", "zero", "_exact")

    def __init__(self, q: int):
        self.q = q
        self.zero = 0.0
        self._exact = ring_of(q)

    def qpow(self, m: int) -> float:
        return self.q ** (m / 2.0)

    def coerce(self, value) -> float | complex:
        return complex(value) if isinstance(value, complex) else float(value)

    def encode(self, columns) -> tuple[int, list]:
        planes = 2 if any(isinstance(v, complex) for col in columns for v in col) else 1
        lifted = [[_lift(v.imag if plane else v.real) for v in col]
                  for col in columns for plane in range(planes)]
        scale, parts = self._exact.encode(lifted)
        return scale, [sum(parts[i:i + planes], ()) for i in range(0, len(parts), planes)]

    def times_root(self, parts) -> tuple:
        return sum((self._exact.times_root(parts[i:i + 2]) for i in range(0, len(parts), 2)), ())

    def decoder(self, scale: int, m: int):
        """The exact ring's decoder, each plane rounded once: (A, B) gives a
        float, (A, B, A', B') a complex."""
        exact = self._exact.decoder(scale, m)

        def one(A, B, *imag):
            real = float(exact(A, B))
            return complex(real, float(exact(*imag))) if imag else real

        return one


# the shared rings, at most 64, keyed by (q, lane); the oldest is dropped first
_RINGS: dict[tuple[int, bool], "ExactRing | FloatRing"] = {}


def ring_of(q: int, exact: bool = True) -> ExactRing | FloatRing:
    """The arithmetic lane for ring parameter q: exact or float.

    Each (q, lane) has one ring, from a bounded cache, shared by every caller.
    Rational constants need no help from the ring: an ``AlgebraicValue``, a
    float or a complex times ``Fraction(n, d)`` stays in its own lane.
    For array code each ring also has ``encode`` (value lists to integer
    parts, tuples of Python ints, over a common denominator), ``times_root``
    (multiply parts, numbers or arrays, by sqrt(q)) and ``decoder(scale,
    m)``, the function from one value's parts over ``scale * sqrt(q)^m``
    back to its value.  Both lanes run that arithmetic exactly (see
    ``FloatRing``), so integer linear maps act on the parts the same way in
    both.
    """
    key = (q, bool(exact))
    if key not in _RINGS:
        _RINGS[key] = ExactRing(q) if exact else FloatRing(q)
        if len(_RINGS) > 64:
            del _RINGS[next(iter(_RINGS))]
    return _RINGS[key]


_RATIONAL = r"\d+(?:/\d+)?"
# The sign before the sqrt term is required when a rational part precedes it,
# so "12*sqrt(6)" cannot split into 1 and 2*sqrt(6).
_VALUE_RE = re.compile(
    rf"^\s*(?:(?P<a>[+-]?{_RATIONAL})\s*)?"
    rf"(?:(?P<sign>(?(a)[+-]|[+-]?))\s*(?:(?P<b>{_RATIONAL})\s*\*\s*)?sqrt\(\s*(?P<q>\d+)\s*\))?\s*$"
)


def parse_value(text: str, q: int) -> AlgebraicValue:
    """Parse "a/b", "c/d*sqrt(Q)" or "a/b+c/d*sqrt(Q)" into a ring element.

    The sqrt argument, when present, must match the expected ring parameter.
    Malformed text and zero denominators raise ``ValueError``.
    """
    m = _VALUE_RE.match(text)
    if not m or (m.group("a") is None and m.group("q") is None):
        raise ValueError(f"cannot parse ring value from {text!r}")
    has_root = m.group("q") is not None
    if has_root and int(m.group("q")) != q:
        raise RingMismatchError(
            f"value {text!r} lives over sqrt({int(m.group('q'))}), expected sqrt({q})"
        )
    try:
        a = Fraction(m.group("a") or 0)
        b = Fraction(m.group("b") or 1) if has_root else Fraction(0)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in ring value {text!r}") from None
    except ValueError:  # past the interpreter's int-from-str digit limit
        raise ValueError(f"an input integer has more than {sys.get_int_max_str_digits()} "
                         "digits") from None
    if m.group("sign") == "-":
        b = -b
    return AlgebraicValue(a, b, q)
