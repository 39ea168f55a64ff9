"""Scalar support for the walk simulators.

Three arithmetic modes are used across the package:

* ``exact``: values in the ring Q[sqrt(2)][i], available whenever every coin
  angle is a rational multiple of pi with denominator dividing 4. Amplitudes
  are then sums of Gaussian-rational multiples of sqrt(2) and every equality
  test is exact.
* ``adaptive``: the closed form's row values by recurrences in block
  floating point, at a working precision of 128 bits plus the bit length
  of t (``closedform_pure.working_precision``), then floats: the kernels
  and site sums are float64 arrays. mpmath makes the trigonometric
  values.
* ``double``: ordinary Python floats/complex, kept as an honest baseline so
  cancellation failures stay observable.

This module provides the ring, exact angles and ``precision_for``, the
width a fixed-point Horner sum of the closed-form rows needs.

Ring elements hold integers, not Fractions. ``SqrtTwo`` is
(p + q*sqrt(2)) / d and ``SqrtTwoComplex`` is
(p + q*sqrt(2) + i*(r + s*sqrt(2))) / d, four numerators over one
denominator d > 0; both are kept in lowest terms, so equal values have
equal fields and hash alike. Each operation is a handful of integer
products and sums followed by one ``math.gcd`` reduction (a sum of equal
denominators skips the cross products). ``float`` divides each numerator
by d once, which rounds exactly as float(Fraction) does.

The exact routes do their long loops below that type, on the integer
numerators alone. On the eighth-turn grid every coin entry, cos, sin and
phase has a denominator dividing 2, so a walk, its closed-form kernels and
its site sums stay integer numerators over one denominator: the initial
state's common denominator D (``SqrtTwoComplex.numerators``) times a power
of 2. Direct stepping holds them in integer arrays over D 2^t (over D
alone when every coin entry is integral); the closed form holds them as
``DyadicComplex`` values, numerators over 2^k that no operation reduces. Neither takes a gcd in its loops: each site is brought
to lowest terms once, at the output, by ``SqrtTwoComplex.from_numerators``
(or its |alpha|^2 + |beta|^2 by ``SqrtTwo.from_numerators``).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

import mpmath

__all__ = [
    "Angle",
    "DyadicComplex",
    "SqrtTwo",
    "SqrtTwoComplex",
    "precision_for",
]

_SQRT2 = math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi

# guard bits of a fixed-point sum above its largest coefficient
GUARD_BITS = 64


def precision_for(coefficient_bits: int) -> int:
    """Working precision (bits) for a fixed-point sum whose largest term
    needs ``coefficient_bits`` bits. The adaptive closed form does not
    need it (``closedform_pure.working_precision``); the benchmark's
    ``arithmetic.work_prec_bits`` counter reports it."""
    return max(53, coefficient_bits + GUARD_BITS)


_ANGLE_RE = re.compile(
    r"^\s*([+-]?\d+)?\s*(?:/\s*([+-]?\d+))?\s*\*?\s*pi\s*$", re.IGNORECASE
)


@dataclass(frozen=True)
class Angle:
    """An angle pi * pi_num / pi_den + offset radians.

    The rational-multiple-of-pi part is kept symbolically so that exact
    trigonometry is possible for the eighth-turn grid; ``offset`` holds any
    remaining float part (0.0 for exactly representable angles). The rational
    part is reduced and folded mod 2*pi on construction.
    """

    pi_num: int = 0
    pi_den: int = 1
    offset: float = 0.0

    def __post_init__(self) -> None:
        num, den = self.pi_num, self.pi_den
        if den == 0:
            raise ValueError("pi_den must be nonzero")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        if g > 1:
            num //= g
            den //= g
        num %= 2 * den
        off = float(self.offset)
        if not math.isfinite(off):
            raise ValueError("angle offset must be finite")
        if off != 0.0:
            off = math.fmod(off, _TWO_PI)
            if off < 0.0:
                off += _TWO_PI
        object.__setattr__(self, "pi_num", num)
        object.__setattr__(self, "pi_den", den)
        object.__setattr__(self, "offset", off)

    @classmethod
    def from_pi_fraction(cls, num: int, den: int = 1) -> "Angle":
        return cls(num, den, 0.0)

    @classmethod
    def from_radians(cls, value: float) -> "Angle":
        if value == 0:
            return cls(0, 1, 0.0)
        return cls(0, 1, float(value))

    @classmethod
    def parse(cls, value) -> "Angle":
        """Accept an Angle, a number, or a string like "1/4 pi" or "-pi"."""
        if isinstance(value, Angle):
            return value
        if isinstance(value, bool):
            raise TypeError("angle cannot be a bool")
        if isinstance(value, Rational):
            # Plain rational numbers are radians, not multiples of pi.
            return cls.from_radians(float(value))
        if isinstance(value, float):
            return cls.from_radians(value)
        if isinstance(value, str):
            m = _ANGLE_RE.match(value)
            if m:
                num = int(m.group(1)) if m.group(1) is not None else 1
                den = int(m.group(2)) if m.group(2) is not None else 1
                return cls.from_pi_fraction(num, den)
            try:
                return cls.from_radians(float(value))
            except ValueError:
                raise ValueError(f"cannot parse angle {value!r}") from None
        raise TypeError(f"cannot parse angle from {type(value).__name__}")

    @property
    def is_pi_rational(self) -> bool:
        return self.offset == 0.0

    @property
    def radians(self) -> float:
        value = math.pi * self.pi_num / self.pi_den + self.offset
        value = math.fmod(value, _TWO_PI)
        if value < 0.0:
            value += _TWO_PI
        return value

    def mp_radians(self) -> mpmath.mpf:
        """Radians at the current mpmath working precision."""
        value = mpmath.pi * mpmath.mpf(self.pi_num) / self.pi_den
        if self.offset:
            value += mpmath.mpf(self.offset)
        return value

    def _eighth_turn(self) -> int | None:
        """Index n with self = n * pi/4, if that is exact."""
        if not self.is_pi_rational or 4 % self.pi_den != 0:
            return None
        return (self.pi_num * (4 // self.pi_den)) % 8

    def cos_exact(self) -> "SqrtTwo | None":
        n = self._eighth_turn()
        if n is None:
            return None
        return _COS_TABLE[n]

    def sin_exact(self) -> "SqrtTwo | None":
        n = self._eighth_turn()
        if n is None:
            return None
        return _SIN_TABLE[n]

    def exp_i_exact(self) -> "SqrtTwoComplex | None":
        c = self.cos_exact()
        if c is None:
            return None
        return SqrtTwoComplex(c, self.sin_exact())

    def __add__(self, other: "Angle") -> "Angle":
        if not isinstance(other, Angle):
            return NotImplemented
        frac = Fraction(self.pi_num, self.pi_den) + Fraction(other.pi_num, other.pi_den)
        return Angle(frac.numerator, frac.denominator, self.offset + other.offset)

    def __neg__(self) -> "Angle":
        return Angle(-self.pi_num, self.pi_den, -self.offset)

    def __repr__(self) -> str:
        if self.is_pi_rational:
            if self.pi_num == 0:
                return "Angle(0)"
            if self.pi_den == 1:
                return f"Angle({self.pi_num}*pi)"
            return f"Angle({self.pi_num}/{self.pi_den}*pi)"
        return f"Angle({self.radians!r} rad)"


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"expected a rational, got {type(value).__name__}")


class SqrtTwo:
    """Element a + b*sqrt(2) of Q[sqrt(2)] with exact rational a, b.

    Stored as (p + q*sqrt(2)) / d with integers p, q and d > 0 in lowest
    terms, so equal values have equal fields. ``a`` and ``b`` are read back
    as Fractions.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, a=0, b=0) -> None:
        a, b = _as_fraction(a), _as_fraction(b)
        da, db = a.denominator, b.denominator
        d = da * db // math.gcd(da, db)
        # Over the lcm of two reduced denominators the triple is reduced.
        self._p = a.numerator * (d // da)
        self._q = b.numerator * (d // db)
        self._d = d

    @classmethod
    def from_rational(cls, value) -> "SqrtTwo":
        return cls(value, 0)

    @classmethod
    def from_numerators(cls, p: int, q: int, d: int) -> "SqrtTwo":
        """(p + q*sqrt(2)) / d for d > 0, brought to lowest terms by one
        gcd."""
        return _ring(p, q, d)

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._d)

    @property
    def is_zero(self) -> bool:
        return self._p == 0 and self._q == 0

    def __add__(self, other):
        if other.__class__ is not SqrtTwo:
            other = _coerce_ring(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _ring(self._p + other._p, self._q + other._q, d1)
        return _ring(
            self._p * d2 + other._p * d1, self._q * d2 + other._q * d1, d1 * d2
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_ring(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_ring(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if other.__class__ is not SqrtTwo:
            other = _coerce_ring(other)
            if other is None:
                return NotImplemented
        p1, q1, p2, q2 = self._p, self._q, other._p, other._q
        return _ring(p1 * p2 + 2 * q1 * q2, p1 * q2 + q1 * p2, self._d * other._d)

    __rmul__ = __mul__

    def __neg__(self) -> "SqrtTwo":
        return _ring_reduced(-self._p, -self._q, self._d)

    def __pow__(self, exponent: int) -> "SqrtTwo":
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        return _power(self, exponent, _R1)

    def __eq__(self, other):
        if other.__class__ is not SqrtTwo:
            return NotImplemented
        return self._p == other._p and self._q == other._q and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._p, self._q, self._d))

    def __float__(self) -> float:
        # int / int is correctly rounded, as float(Fraction) is.
        return self._p / self._d + (self._q / self._d) * _SQRT2

    def __repr__(self) -> str:
        return f"SqrtTwo({self.a}, {self.b})"


_new = object.__new__


def _power(base, n: int, one):
    # base**n by square-and-multiply, for n >= 0.
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def _ring_reduced(p: int, q: int, d: int) -> SqrtTwo:
    # (p + q sqrt2) / d, already in lowest terms with d > 0.
    x = _new(SqrtTwo)
    x._p, x._q, x._d = p, q, d
    return x


def _ring(p: int, q: int, d: int) -> SqrtTwo:
    # (p + q sqrt2) / d with d > 0, brought to lowest terms.
    g = math.gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    return _ring_reduced(p, q, d)


def _coerce_ring(value) -> SqrtTwo | None:
    if isinstance(value, SqrtTwo):
        return value
    if isinstance(value, int):
        return _ring_reduced(int(value), 0, 1)
    if isinstance(value, Fraction):
        return _ring_reduced(value.numerator, 0, value.denominator)
    return None


_HALF = Fraction(1, 2)
_R0 = SqrtTwo(Fraction(0), Fraction(0))
_R1 = SqrtTwo(Fraction(1), Fraction(0))
_RH = SqrtTwo(Fraction(0), _HALF)  # sqrt(2)/2

_COS_TABLE = (_R1, _RH, _R0, -_RH, -_R1, -_RH, _R0, _RH)
_SIN_TABLE = (_R0, _RH, _R1, _RH, _R0, -_RH, -_R1, -_RH)


class SqrtTwoComplex:
    """Element of Q[sqrt(2)][i]: re + i*im with SqrtTwo components.

    Stored flat as (p + q*sqrt(2) + i*(r + s*sqrt(2))) / d: four integer
    numerators over one denominator d > 0, in lowest terms. ``re`` and
    ``im`` are read back as SqrtTwo values.
    """

    __slots__ = ("_p", "_q", "_r", "_s", "_d")

    def __init__(self, re=_R0, im=_R0) -> None:
        re = re if isinstance(re, SqrtTwo) else SqrtTwo.from_rational(re)
        im = im if isinstance(im, SqrtTwo) else SqrtTwo.from_rational(im)
        d1, d2 = re._d, im._d
        d = d1 * d2 // math.gcd(d1, d2)
        self._p, self._q = re._p * (d // d1), re._q * (d // d1)
        self._r, self._s = im._p * (d // d2), im._q * (d // d2)
        self._d = d

    @classmethod
    def zero(cls) -> "SqrtTwoComplex":
        return _C0

    @classmethod
    def one(cls) -> "SqrtTwoComplex":
        return _C1

    @classmethod
    def i_unit(cls) -> "SqrtTwoComplex":
        return _CI

    @classmethod
    def from_rational(cls, re, im=0) -> "SqrtTwoComplex":
        return cls(SqrtTwo.from_rational(re), SqrtTwo.from_rational(im))

    @classmethod
    def from_numerators(cls, p: int, q: int, r: int, s: int, d: int) -> "SqrtTwoComplex":
        """(p + q*sqrt(2) + i*(r + s*sqrt(2))) / d for d > 0, brought to
        lowest terms by one gcd."""
        return _complex(p, q, r, s, d)

    @property
    def denominator(self) -> int:
        """The positive denominator d in lowest terms."""
        return self._d

    def numerators(self, d: int) -> tuple[int, int, int, int]:
        """The integers (p, q, r, s) with self = (p + q*sqrt(2) +
        i*(r + s*sqrt(2))) / d, for d a multiple of ``denominator``."""
        m, rest = divmod(d, self._d)
        if rest or m <= 0:
            raise ValueError(f"{d} is not a positive multiple of {self._d}")
        return self._p * m, self._q * m, self._r * m, self._s * m

    @property
    def re(self) -> SqrtTwo:
        return _ring(self._p, self._q, self._d)

    @property
    def im(self) -> SqrtTwo:
        return _ring(self._r, self._s, self._d)

    @property
    def is_zero(self) -> bool:
        return self._p == 0 and self._q == 0 and self._r == 0 and self._s == 0

    def conjugate(self) -> "SqrtTwoComplex":
        return _complex_reduced(self._p, self._q, -self._r, -self._s, self._d)

    def abs_sq(self) -> SqrtTwo:
        p, q, r, s = self._p, self._q, self._r, self._s
        return _ring(
            p * p + r * r + 2 * (q * q + s * s), 2 * (p * q + r * s), self._d * self._d
        )

    def to_complex(self) -> complex:
        p, q, r, s, d = self._p, self._q, self._r, self._s, self._d
        return complex(p / d + (q / d) * _SQRT2, r / d + (s / d) * _SQRT2)

    def __add__(self, other):
        if other.__class__ is not SqrtTwoComplex:
            other = _coerce_ring_complex(other)
            if other is None:
                return NotImplemented
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _complex(
                self._p + other._p,
                self._q + other._q,
                self._r + other._r,
                self._s + other._s,
                d1,
            )
        return _complex(
            self._p * d2 + other._p * d1,
            self._q * d2 + other._q * d1,
            self._r * d2 + other._r * d1,
            self._s * d2 + other._s * d1,
            d1 * d2,
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_ring_complex(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_ring_complex(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if other.__class__ is not SqrtTwoComplex:
            other = _coerce_ring_complex(other)
            if other is None:
                return NotImplemented
        return _complex(
            *_product(self._p, self._q, self._r, self._s, other._p, other._q, other._r, other._s),
            self._d * other._d,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "SqrtTwoComplex":
        return _complex_reduced(-self._p, -self._q, -self._r, -self._s, self._d)

    def __pow__(self, exponent: int) -> "SqrtTwoComplex":
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        return _power(self, exponent, _C1)

    def __eq__(self, other):
        if other.__class__ is not SqrtTwoComplex:
            return NotImplemented
        return (
            self._p == other._p
            and self._q == other._q
            and self._r == other._r
            and self._s == other._s
            and self._d == other._d
        )

    def __hash__(self) -> int:
        return hash((self._p, self._q, self._r, self._s, self._d))

    def __repr__(self) -> str:
        return f"SqrtTwoComplex({self.re!r}, {self.im!r})"


def _product(p1, q1, r1, s1, p2, q2, r2, s2) -> tuple[int, int, int, int]:
    # the numerators of (p1 + q1 sqrt2 + i(r1 + s1 sqrt2)) (p2 + q2 sqrt2 + i(r2 + s2 sqrt2))
    return (
        p1 * p2 - r1 * r2 + 2 * (q1 * q2 - s1 * s2),
        p1 * q2 + q1 * p2 - r1 * s2 - s1 * r2,
        p1 * r2 + r1 * p2 + 2 * (q1 * s2 + s1 * q2),
        p1 * s2 + s1 * p2 + q1 * r2 + r1 * q2,
    )


def _complex_reduced(p: int, q: int, r: int, s: int, d: int) -> SqrtTwoComplex:
    # (p + q sqrt2 + i(r + s sqrt2)) / d, already in lowest terms with d > 0.
    z = _new(SqrtTwoComplex)
    z._p, z._q, z._r, z._s, z._d = p, q, r, s, d
    return z


def _complex(p: int, q: int, r: int, s: int, d: int) -> SqrtTwoComplex:
    # (p + q sqrt2 + i(r + s sqrt2)) / d with d > 0, brought to lowest terms.
    g = math.gcd(p, q, r, s, d)
    if g != 1:
        p, q, r, s, d = p // g, q // g, r // g, s // g, d // g
    return _complex_reduced(p, q, r, s, d)


def _coerce_ring_complex(value) -> SqrtTwoComplex | None:
    if isinstance(value, SqrtTwoComplex):
        return value
    if isinstance(value, SqrtTwo):
        return _complex_reduced(value._p, value._q, 0, 0, value._d)
    if isinstance(value, int):
        return _complex_reduced(int(value), 0, 0, 0, 1)
    if isinstance(value, Fraction):
        return _complex_reduced(value.numerator, 0, 0, 0, value.denominator)
    return None


_C0 = SqrtTwoComplex(_R0, _R0)
_C1 = SqrtTwoComplex(_R1, _R0)
_CI = SqrtTwoComplex(_R0, _R1)


class DyadicComplex:
    """(p + q*sqrt(2) + i*(r + s*sqrt(2))) / 2^k on five Python integers:
    an element of Q[sqrt(2)][i] whose denominator is a power of 2, never
    reduced.

    A sum shifts the numerators of the operand with the smaller k up to the
    other's k, and a product adds the k, so no operation takes a gcd; the
    numerators keep whatever factors of 2 the operations leave in them.
    Products by a plain int (the 0 of an empty row) scale the numerators.
    ``SqrtTwoComplex.from_numerators(p, q, r, s, d << k)`` reads the value
    over d 2^k in lowest terms.
    """

    __slots__ = ("p", "q", "r", "s", "k")

    def __init__(self, p: int, q: int, r: int, s: int, k: int) -> None:
        self.p, self.q, self.r, self.s, self.k = p, q, r, s, k

    @classmethod
    def of(cls, z: SqrtTwoComplex) -> "DyadicComplex":
        """The ring element z, whose denominator must be a power of 2."""
        k = z._d.bit_length() - 1
        if z._d != 1 << k:
            raise ValueError(f"denominator {z._d} is not a power of 2")
        return cls(z._p, z._q, z._r, z._s, k)

    def __add__(self, other: "DyadicComplex") -> "DyadicComplex":
        a, b = (self, other) if self.k >= other.k else (other, self)
        n = a.k - b.k
        return DyadicComplex(
            a.p + (b.p << n), a.q + (b.q << n), a.r + (b.r << n), a.s + (b.s << n), a.k
        )

    def __sub__(self, other: "DyadicComplex") -> "DyadicComplex":
        return self + -other

    def __neg__(self) -> "DyadicComplex":
        return DyadicComplex(-self.p, -self.q, -self.r, -self.s, self.k)

    def __mul__(self, other):
        if other.__class__ is not DyadicComplex:
            if not isinstance(other, int):
                return NotImplemented
            return DyadicComplex(
                self.p * other, self.q * other, self.r * other, self.s * other, self.k
            )
        return DyadicComplex(
            *_product(self.p, self.q, self.r, self.s, other.p, other.q, other.r, other.s),
            self.k + other.k,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "DyadicComplex":
        return DyadicComplex(self.p, self.q, -self.r, -self.s, self.k)

    def abs_sq(self) -> "DyadicComplex":
        """|z|^2, real, over 2^(2k), unreduced."""
        p, q, r, s = self.p, self.q, self.r, self.s
        return DyadicComplex(
            p * p + r * r + 2 * (q * q + s * s), 2 * (p * q + r * s), 0, 0, 2 * self.k
        )

    def __repr__(self) -> str:
        return f"DyadicComplex({self.p}, {self.q}, {self.r}, {self.s}, k={self.k})"
