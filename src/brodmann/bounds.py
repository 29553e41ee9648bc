"""Explicit stabilization thresholds for associated primes of powers.

Four exact quantities in the parameters r (variables), s (minimal
generators), d (largest generator degree): b1 bounds the generator degrees
of the maximal-ideal torsion module of the associated graded ring, b2
bounds the top nonvanishing torsion degree with respect to the Rees
irrelevant ideal, b3/b4 are the intermediate quantities behind b2, and the
stabilization threshold is B = max(b1, b2).  Everything is exact: a
radical c*sqrt(m) is formed as the integer pair (c, m), and its floor and
ceiling come from one isqrt.  `bound_report` forms them all in one pass, and
the single-threshold functions read its fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import InputError, is_int
from .monomials import MonomialIdeal, require_proper_nonzero
from .radicals import ExactRadical, RadicalSum, split_square


def _validate(r: int, s: int, d: int) -> None:
    for name, v in (("r", r), ("s", s), ("d", d)):
        if not is_int(v) or v < 1:
            raise InputError(f"parameter {name} must be a positive integer, got {v!r}")


def _product(c: int, *factors: tuple[int, int]) -> tuple[int, int]:
    """c times the factors (q, m), each q*sqrt(m), as the pair (coefficient,
    radicand) that the same chain of `ExactRadical` products gives: each
    step divides both radicands by their gcd g, takes g into the
    coefficient, and moves the product left over into the coefficient when
    it is a perfect square.  So every printed q*sqrt(m) is the same."""
    m = 1
    for q, m2 in factors:
        g = gcd(m, m2)
        root, m = split_square((m // g) * (m2 // g))
        c *= q * g * root
    return c, m


def _power(q: int, m: int, n: int) -> tuple[int, int]:
    """(q*sqrt(m))^n as `ExactRadical.__pow__` writes it."""
    c = q**n * m ** (n // 2)
    return (c, m) if n % 2 else (c, 1)


def _floor_times_root(s: int, n: int, f: int) -> int:
    """floor(s * sqrt(n)) from f = isqrt(n) >= 1, with no second isqrt.

    It is s*f + j for the largest j with j * (2*s*f + j) <= s^2 * (n - f^2).
    s * (n - f^2) // (2*f) bounds j from above; when f > s, as for every
    bracket of b3, it overshoots by at most one."""
    rest = n - f * f
    j = s * rest // (2 * f)
    while j * (2 * s * f + j) > s * s * rest:
        j -= 1
    return s * f + j


def bound_b1(r: int, s: int, d: int) -> ExactRadical:
    """d(rs+s+d) * sqrt(r)^(r+1) * (sqrt(2)d)^((r+1)(s-1)), exact."""
    return bound_report(r, s, d).b1


def bound_b2(r: int, s: int, d: int) -> int:
    """s(s+r)^4 s^(r+2) d^2 (2d^2)^(s^2-s+1), an exact integer."""
    return bound_report(r, s, d).b2


def bound_b3(r: int, s: int, d: int) -> RadicalSum:
    """(s+r)^2 d (sqrt(2)d)^(s^2-s+1) sqrt(s)^(r+2) minus one, exact.

    The minus-one reading treats the whole product as a grouped factor; the
    alternative floor reading is exposed separately.
    """
    return bound_report(r, s, d).b3


def bound_b3_floor_reading(r: int, s: int, d: int) -> int:
    """Integer alternative reading: floor of the grouped product, minus one."""
    return bound_report(r, s, d).b3_floor_reading


def bound_b4(r: int, s: int, d: int) -> int:
    """ceiling(s * b3), the generator-count multiple of b3."""
    return bound_report(r, s, d).b4


def stabilization_bound(r: int, s: int, d: int) -> ExactRadical:
    """B = max(b1, b2) in exact form; Ass(I^n/I^(n+1)) is constant for n >= B."""
    return bound_report(r, s, d).b_exact


def _decimal_digits(n: int) -> int:
    """Decimal digits of n >= 0, like len(str(n)) but by integer arithmetic,
    since str() refuses ints past Python's int-to-str limit (4300 digits)."""
    digits = max(1, (n.bit_length() - 1) * 30102 // 100000 + 1)  # a lower bound
    past = 10**digits
    while n >= past:
        digits += 1
        past *= 10
    return digits


@dataclass(frozen=True)
class BoundReport:
    """All thresholds for one (r, s, d), exact and with integer ceilings."""

    r: int
    s: int
    d: int
    b1: ExactRadical
    b1_ceil: int
    b2: int
    b3: RadicalSum
    b3_ceil: int
    b3_floor_reading: int
    b4: int
    b_exact: ExactRadical
    b_ceil: int
    digits_b1: int
    digits_b2: int
    digits_b: int


def bound_report(r: int, s: int, d: int) -> BoundReport:
    """Every threshold for (r, s, d), each formed once in integer arithmetic.

    b1 and the b3 bracket are pairs (c, m) for c*sqrt(m); b2 = s * c^2 * m of
    the bracket, the same product as the closed form.  Each pair needs one
    isqrt of c^2 * m for its floor, and b4 = ceil(s * bracket) - s follows
    from the bracket's (`_floor_times_root`).
    """
    _validate(r, s, d)
    c1, m1 = _product(
        d * (r * s + s + d), _power(*split_square(r), r + 1), _power(d, 2, (r + 1) * (s - 1))
    )
    c3, m3 = _product(
        (s + r) ** 2 * d, _power(d, 2, s * s - s + 1), _power(*split_square(s), r + 2)
    )
    b1 = ExactRadical(Fraction(c1), m1)
    b1c = c1 if m1 == 1 else isqrt(c1 * c1 * m1) + 1
    n3 = c3 * c3 * m3
    b2 = s * n3
    if m3 == 1:
        f3, b3c, s_ceil = c3, c3 - 1, s * c3
    else:
        f3 = isqrt(n3)
        b3c, s_ceil = f3, _floor_times_root(s, n3, f3) + 1
    db1, db2 = _decimal_digits(b1c), _decimal_digits(b2)
    # b1 > b2 exactly when ceil(b1) > b2, b2 being an integer
    b, bc, db = (b1, b1c, db1) if b1c > b2 else (ExactRadical.of_fraction(b2), b2, db2)
    return BoundReport(
        r=r,
        s=s,
        d=d,
        b1=b1,
        b1_ceil=b1c,
        b2=b2,
        b3=RadicalSum.of(ExactRadical(Fraction(c3), m3), -1),
        b3_ceil=b3c,
        b3_floor_reading=f3 - 1,
        b4=s_ceil - s,
        b_exact=b,
        b_ceil=bc,
        digits_b1=db1,
        digits_b2=db2,
        digits_b=db,
    )


def ideal_parameters(I: MonomialIdeal) -> tuple[int, int, int]:
    """(r, s, d) of a proper nonzero ideal: ambient variables, minimal
    generator count, largest generator total degree."""
    require_proper_nonzero(I)
    return I.r, len(I.generators), max(sum(g) for g in I.generators)
