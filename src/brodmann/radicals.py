"""Exact arithmetic in the field generated by square roots of integers.

Two layers: ExactRadical is a single term q*sqrt(m) with q a nonnegative
rational and m either 1 or not a perfect square, closed under
multiplication; RadicalSum is a finite signed sum of such terms, closed
under addition and comparable to rationals without any floating point.
Nothing here factors an integer: q1*sqrt(m1) and q2*sqrt(m2) are rationally
dependent exactly when m1*m2 is a perfect square, which one isqrt decides,
and a RadicalSum merges such terms.  Its radicands are then pairwise
independent, so a sum is either identically zero (detectable term by term)
or bounded away from zero, and comparisons terminate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from math import gcd, isqrt

from .errors import InputError


def split_square(n: int) -> tuple[int, int]:
    """n = a*a*m, with m == 1 exactly when n is a perfect square; returns
    (a, m).  Square factors of a non-square n stay in m.  Requires n >= 1."""
    if n < 1:
        raise InputError(f"radicand must be >= 1, got {n}")
    a = isqrt(n)
    return (a, 1) if a * a == n else (1, n)


@total_ordering
@dataclass(frozen=True)
class ExactRadical:
    """The nonnegative real q*sqrt(m), q rational >= 0, m >= 1 either 1 or
    not a perfect square.  Equal values may carry different radicands, as
    sqrt(8) and 2*sqrt(2) do; equality and hashing compare values.

    Zero is represented as coeff 0, radicand 1.
    """

    coeff: Fraction
    radicand: int

    def __post_init__(self):
        if self.coeff < 0:
            raise InputError(f"coefficient must be >= 0, got {self.coeff}")
        if self.coeff == 0 and self.radicand != 1:
            raise InputError("zero must carry radicand 1")
        if self.radicand != 1 and split_square(self.radicand)[1] == 1:
            raise InputError(f"radicand {self.radicand} is a perfect square")

    @staticmethod
    def of_fraction(q: Fraction | int) -> "ExactRadical":
        q = Fraction(q)
        if q < 0:
            raise InputError(f"negative value {q} has no radical form here")
        return ExactRadical(q, 1)

    @staticmethod
    def sqrt_of(n: int) -> "ExactRadical":
        """sqrt(n) for an integer n >= 0."""
        if n < 0:
            raise InputError(f"cannot take sqrt of {n}")
        if n == 0:
            return ExactRadical(Fraction(0), 1)
        a, m = split_square(n)
        return ExactRadical(Fraction(a), m)

    def is_zero(self) -> bool:
        return self.coeff == 0

    def is_rational(self) -> bool:
        return self.radicand == 1 or self.coeff == 0

    def square(self) -> Fraction:
        return self.coeff * self.coeff * self.radicand

    def __mul__(self, other: "ExactRadical | Fraction | int") -> "ExactRadical":
        if not isinstance(other, ExactRadical):
            return ExactRadical.of_fraction(Fraction(other)) * self
        if self.is_zero() or other.is_zero():
            return ExactRadical(Fraction(0), 1)
        g = gcd(self.radicand, other.radicand)
        a, m = split_square((self.radicand // g) * (other.radicand // g))
        return ExactRadical(self.coeff * other.coeff * g * a, m)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "ExactRadical":
        if n < 0:
            raise InputError(f"power exponent must be >= 0, got {n}")
        q = self.coeff**n * Fraction(self.radicand) ** (n // 2)
        if n % 2:
            return ExactRadical(q, self.radicand) if q else ExactRadical(Fraction(0), 1)
        return ExactRadical.of_fraction(q)

    def __eq__(self, other) -> bool:
        if isinstance(other, ExactRadical):
            return self.square() == other.square()
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeff == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeff if self.is_rational() else self.square())

    def __lt__(self, other: "ExactRadical | Fraction | int") -> bool:
        if not isinstance(other, ExactRadical):
            other = ExactRadical.of_fraction(Fraction(other))
        return self.square() < other.square()

    # `RadicalSum`'s rounding and printing of one term, defined in this
    # class body because `bench/spans.py` wraps each class's own methods
    def floor(self) -> int:
        return RadicalSum.of(self).floor()

    def ceil(self) -> int:
        return RadicalSum.of(self).ceil()

    def __float__(self) -> float:
        return float(RadicalSum.of(self))

    def __str__(self) -> str:
        return str(RadicalSum.of(self))


def _sqrt_bounds(m: int, k: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(m) <= hi with hi - lo <= 1/2**k."""
    scale = 1 << k
    s = isqrt(m * scale * scale)
    return Fraction(s, scale), Fraction(s + 1, scale)


def _collect(terms) -> tuple[tuple[int, Fraction], ...]:
    """Sum (radicand, coefficient) pairs into one term per square class.

    m1 and m2 share a class when m1*m2 is a perfect square; the class is
    written on its smallest radicand m1, as q*sqrt(m2) = q*isqrt(m1*m2)/m1 *
    sqrt(m1).  The result does not depend on the order of the pairs.
    """
    acc: dict[int, Fraction] = {}
    for m, q in sorted(terms):
        for rep in acc:
            a, rest = split_square(rep * m)
            if rest == 1:
                acc[rep] += q * Fraction(a, rep)
                break
        else:
            acc[m] = q
    return tuple((m, q) for m, q in acc.items() if q)


@total_ordering
@dataclass(frozen=True, eq=False)
class RadicalSum:
    """A signed sum of rational multiples of square roots of integers.

    Terms are (radicand, coefficient) pairs, radicands strictly increasing
    and pairwise independent (no product of two is a perfect square),
    coefficients nonzero.  The empty sum is zero.  Equality compares values;
    a RadicalSum is not hashable.
    """

    terms: tuple[tuple[int, Fraction], ...]

    @staticmethod
    def of(*parts: "ExactRadical | Fraction | int") -> "RadicalSum":
        terms = []
        for p in parts:
            if isinstance(p, ExactRadical):
                if not p.is_zero():
                    terms.append((p.radicand, p.coeff))
            elif p:
                terms.append((1, Fraction(p)))
        return RadicalSum(_collect(terms))

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0] == 1)

    def __add__(self, other: "RadicalSum | ExactRadical | Fraction | int") -> "RadicalSum":
        if not isinstance(other, RadicalSum):
            other = RadicalSum.of(other)
        return RadicalSum(_collect(self.terms + other.terms))

    __radd__ = __add__

    def __neg__(self) -> "RadicalSum":
        return RadicalSum(tuple((m, -q) for m, q in self.terms))

    def __sub__(self, other) -> "RadicalSum":
        if not isinstance(other, RadicalSum):
            other = RadicalSum.of(other)
        return self + (-other)

    def bounds(self, k: int) -> tuple[Fraction, Fraction]:
        """Rational enclosure of the value, width shrinking as k grows."""
        lo = Fraction(0)
        hi = Fraction(0)
        for m, q in self.terms:
            if m == 1:
                lo += q
                hi += q
                continue
            slo, shi = _sqrt_bounds(m, k)
            if q > 0:
                lo += q * slo
                hi += q * shi
            else:
                lo += q * shi
                hi += q * slo
        return lo, hi

    def sign(self) -> int:
        """-1, 0 or 1.  Exact: zero only when every coefficient vanishes."""
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            return 1 if self.terms[0][1] > 0 else -1
        k = 8
        while True:
            lo, hi = self.bounds(k)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            k *= 2

    def compare(self, other: "RadicalSum | ExactRadical | Fraction | int") -> int:
        if not isinstance(other, RadicalSum):
            other = RadicalSum.of(other)
        return (self - other).sign()

    def __eq__(self, other) -> bool:
        if isinstance(other, (RadicalSum, ExactRadical, int, Fraction)):
            return (self - other).is_zero()
        return NotImplemented

    def __lt__(self, other) -> bool:
        return self.compare(other) < 0

    def floor(self) -> int:
        if self.is_rational():
            q = self.terms[0][1] if self.terms else Fraction(0)
            return q.numerator // q.denominator
        c = self.terms[0][1] if self.terms[0][0] == 1 else Fraction(0)
        if len(self.terms) == 1 + bool(c):
            # c + q*sqrt(m) = (a + t*sqrt(m))/b with c = a/b and t = b*q, and
            # floor(t*sqrt(m)) is one isqrt: sqrt(m) is irrational, so for
            # t < 0 it is -floor(|t|*sqrt(m)) - 1
            m, q = self.terms[-1]
            t = q * c.denominator
            f = isqrt(t.numerator * t.numerator * m) // t.denominator
            if t < 0:
                f = -f - 1
            return (f + c.numerator) // c.denominator
        # two or more radicals: the enclosure eventually excludes every integer
        k = 8
        while True:
            lo, hi = self.bounds(k)
            flo = lo.numerator // lo.denominator
            fhi = hi.numerator // hi.denominator
            if flo == fhi:
                return flo
            k *= 2

    def ceil(self) -> int:
        if self.is_rational():
            q = self.terms[0][1] if self.terms else Fraction(0)
            return -((-q.numerator) // q.denominator)
        return self.floor() + 1

    def __float__(self) -> float:
        return sum((float(q) * m**0.5 for m, q in self.terms), 0.0)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, q in self.terms:
            if m == 1:
                parts.append(str(q))
            elif q == 1:
                parts.append(f"sqrt({m})")
            else:
                parts.append(f"{q}*sqrt({m})")
        return " + ".join(parts).replace("+ -", "- ")
