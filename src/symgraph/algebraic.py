"""Exact scalars a + b*sqrt(q) over the rationals.

All combinatorial transforms in this package take values in the real
quadratic ring generated by sqrt(q), where q = (r-1)(k-1) is the growth base
of the graph.  Working in this ring keeps every half-integer power of q
exact, so round-trip identities can be asserted with ``==`` rather than a
tolerance.  Values are immutable and canonical: when q is a perfect square
the sqrt(q) part is folded into the rational part at construction, which
makes structural equality semantic equality.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

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


# 60-digit rational approximations of sqrt(q), keyed by q.  float(a + b*sqrt(q))
# goes through these so that cancellation between the two parts does not
# destroy the result.
_ROOT_APPROX: dict[int, Fraction] = {}

_SCALE = 10**60


def _root_approx(q: int) -> Fraction:
    try:
        return _ROOT_APPROX[q]
    except KeyError:
        approx = Fraction(math.isqrt(q * _SCALE * _SCALE), _SCALE)
        _ROOT_APPROX[q] = approx
        return approx


class AlgebraicValue:
    """An exact number a + b*sqrt(q) with rational a, b and integer q >= 1."""

    __slots__ = ("a", "b", "q")

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
        self.a = a
        self.b = b
        self.q = q

    # -- construction helpers -------------------------------------------------

    @classmethod
    def _make(cls, a: Fraction, b: Fraction, q: int) -> "AlgebraicValue":
        """A value from parts already in canonical form: ``Fraction`` a and b,
        an int q >= 1, and b = 0 whenever q is a perfect square.  No coercion
        and no root check."""
        value = object.__new__(cls)
        value.a = a
        value.b = b
        value.q = q
        return value

    @classmethod
    def rational(cls, value, q: int) -> "AlgebraicValue":
        return cls(value, 0, q)

    def _coerce(self, other) -> "AlgebraicValue | None":
        if isinstance(other, AlgebraicValue):
            if other.q != self.q:
                raise RingMismatchError(
                    f"cannot combine values over sqrt({self.q}) and sqrt({other.q})"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return AlgebraicValue(other, 0, self.q)
        return None

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgebraicValue(self.a + o.a, self.b + o.b, self.q)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgebraicValue(self.a - o.a, self.b - o.b, self.q)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgebraicValue(o.a - self.a, o.b - self.b, self.q)

    def __neg__(self):
        return AlgebraicValue(-self.a, -self.b, self.q)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.b and not o.b:
            return AlgebraicValue(self.a * o.a, 0, self.q)
        return AlgebraicValue(
            self.a * o.a + self.b * o.b * self.q,
            self.a * o.b + self.b * o.a,
            self.q,
        )

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicValue":
        norm = self.a * self.a - self.b * self.b * self.q
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic ring")
        return AlgebraicValue(self.a / norm, -self.b / norm, self.q)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational divisor divides both parts; no inverse to build
            if not other:
                raise ZeroDivisionError("division by zero in quadratic ring")
            return AlgebraicValue(self.a / other, self.b / other, self.q)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        out = AlgebraicValue(1, 0, self.q)
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
        return not self.a and not self.b

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if isinstance(other, AlgebraicValue):
            if other.q != self.q:
                return self.b == 0 == other.b and self.a == other.a
            return self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.q))

    def __float__(self) -> float:
        if not self.b:
            return float(self.a)
        return float(self.a + self.b * _root_approx(self.q))

    def __complex__(self) -> complex:
        return complex(float(self))

    def __abs__(self) -> float:
        return abs(float(self))

    # -- text form ---------------------------------------------------------------

    def __str__(self) -> str:
        if not self.b:
            return str(self.a)
        tail = f"sqrt({self.q})" if abs(self.b) == 1 else f"{abs(self.b)}*sqrt({self.q})"
        sign = "-" if self.b < 0 else ("+" if self.a else "")
        head = str(self.a) if self.a else ""
        return f"{head}{sign}{tail}"

    def __repr__(self) -> str:
        return f"AlgebraicValue({self.a!r}, {self.b!r}, q={self.q})"


def q_half_power(q: int, m: int) -> AlgebraicValue:
    """q**(m/2) as an exact ring element, for any integer m.

    Even m gives a pure rational; odd m gives q**((m-1)/2) * sqrt(q).
    """
    q = int(q)
    if q < 1:
        raise ValueError(f"ring parameter must be a positive integer, got {q}")
    if m % 2 == 0:
        return AlgebraicValue(Fraction(q) ** (m // 2), 0, q)
    return AlgebraicValue(0, Fraction(q) ** ((m - 1) // 2), q)


def sqrt_q(q: int) -> AlgebraicValue:
    return q_half_power(q, 1)


class ExactRing:
    """The exact lane over sqrt(q): values are ``AlgebraicValue`` and every
    half-integer power of q is exact."""

    __slots__ = ("q", "zero")

    def __init__(self, q: int):
        self.q = q
        self.zero = AlgebraicValue(0, 0, q)

    def qpow(self, m: int) -> AlgebraicValue:
        return q_half_power(self.q, m)

    def coerce(self, value) -> AlgebraicValue:
        if isinstance(value, AlgebraicValue):
            if value.q != self.q:
                raise ValueError(f"value over sqrt({value.q}) in a sqrt({self.q}) context")
            return value
        if isinstance(value, (int, Fraction)):
            return AlgebraicValue(value, 0, self.q)
        raise TypeError(f"cannot treat {value!r} as an exact ring value")

    # Array lane: a value list becomes integer parts (A, B) over a common
    # denominator D, value = (A + B sqrt(q)) / D entrywise.  The parts are
    # object arrays of Python ints, which never overflow.

    def encode(self, columns) -> tuple[int, list]:
        """One common denominator D of every column, and each column's parts (A, B)."""
        columns = [[self.coerce(v) for v in col] for col in columns]
        scale = math.lcm(1, *{c.denominator for col in columns for v in col for c in (v.a, v.b)})

        def ints(parts):
            return np.array([scale // c.denominator * c.numerator for c in parts], dtype=object)

        return scale, [(ints(v.a for v in col), ints(v.b for v in col)) for col in columns]

    def row(self, weights, m: int) -> tuple:
        """Integer weights over sqrt(q)^m as a row for ``row @ part``, and
        the power of sqrt(q) that ``decode`` still divides by: here all of
        m, since the exact row keeps the integers."""
        return np.array([weights], dtype=object), m

    def times_root(self, parts) -> tuple:
        """Parts of sqrt(q) * value: (A, B) -> (q B, A)."""
        a, b = parts
        return (b * self.q, a)

    def decode(self, parts, scale: int, m: int) -> list[AlgebraicValue]:
        """The values (A + B sqrt(q)) / (scale * sqrt(q)^m), m >= 0.

        For odd m the parts swap: (A + B sqrt(q)) / sqrt(q) = B + (A/q) sqrt(q).
        Unless q is a perfect square, where the sqrt(q) part must fold, the
        two ``Fraction`` are already canonical and skip the constructor.
        """
        q = self.q
        a, b = parts
        den = scale * q ** (m // 2)
        root_den = den
        if m % 2:
            a, b, root_den = b, a, den * q
        make = AlgebraicValue if _exact_root(q) is not None else AlgebraicValue._make
        return [make(Fraction(x, den), Fraction(y, root_den), q)
                for x, y in zip(a.tolist(), b.tolist())]


class FloatRing:
    """The numeric lane: values are float or complex and q**(m/2) is rounded."""

    __slots__ = ("q", "zero")

    def __init__(self, q: int):
        self.q = q
        self.zero = 0.0

    def qpow(self, m: int) -> float:
        return self.q ** (m / 2.0)

    def coerce(self, value) -> float | complex:
        return complex(value) if isinstance(value, complex) else float(value)

    # Array lane: one float or complex array per column, denominator 1.

    def encode(self, columns) -> tuple[int, list]:
        return 1, [(np.array([self.coerce(v) for v in col]),) for col in columns]

    def row(self, weights, m: int) -> tuple:
        """The weights divided by sqrt(q)^m before they become floats, so a
        huge integer weight overflows only when its scaled value does;
        ``decode`` has no power left to divide by."""
        den, root = self.q ** (m // 2), self.qpow(m % 2)
        return np.array([[w / den / root for w in weights]]), 0

    def times_root(self, parts) -> tuple:
        return (parts[0] * self.qpow(1),)

    def decode(self, parts, scale: int, m: int) -> list:
        return (parts[0] / (scale * self.qpow(m))).tolist()


def ring_of(q: int, exact: bool = True) -> ExactRing | FloatRing:
    """The arithmetic lane for ring parameter q: exact or float.

    A ring is cheap; containers build theirs once and share its zero.
    Rational constants need no help from the ring: an ``AlgebraicValue``, a
    float or a complex times ``Fraction(n, d)`` stays in its own lane.
    For array code each ring also has ``encode`` (value lists to parts over a
    common denominator), ``times_root`` (multiply the parts by sqrt(q)),
    ``row`` (integer weights over sqrt(q)^m as a row that multiplies parts)
    and ``decode`` (parts over ``scale * sqrt(q)^m`` back to values); integer
    linear maps act on the parts the same way in both lanes.
    """
    return ExactRing(q) if exact else FloatRing(q)


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
    if m.group("sign") == "-":
        b = -b
    return AlgebraicValue(a, b, q)
