"""Explicit stabilization thresholds for associated primes of powers.

Four exact quantities in the parameters r (variables), s (minimal
generators), d (largest generator degree): b1 bounds the generator degrees
of the maximal-ideal torsion module of the associated graded ring, b2
bounds the top nonvanishing torsion degree with respect to the Rees
irrelevant ideal, b3/b4 are the intermediate quantities behind b2, and the
stabilization threshold is B = max(b1, b2).  Everything is exact: a
radical c*sqrt(m) is the integer pair (c, m), reduced by the product rule
of `ExactRadical` (`radicals._product`), and rounded by one isqrt.
`bound_report` is the only entry point: it forms every threshold in one
pass, as a field of its `BoundReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import InputError, is_int
from .monomials import MonomialIdeal, require_proper_nonzero
from .radicals import ExactRadical, RadicalSum, _power, _product, split_square


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
    """All thresholds for one (r, s, d), exact and with integer ceilings.

    b1 = d(rs+s+d) * sqrt(r)^(r+1) * (sqrt(2)d)^((r+1)(s-1)).
    b2 = s(s+r)^4 s^(r+2) d^2 (2d^2)^(s^2-s+1), an exact integer.
    b3 = (s+r)^2 d (sqrt(2)d)^(s^2-s+1) sqrt(s)^(r+2) minus one: this reading
    treats the whole product as a grouped factor, and b3_floor_reading is the
    integer alternative, the floor of the grouped product minus one.
    b4 = ceiling(s * b3), the generator-count multiple of b3.
    b_exact = B = max(b1, b2): Ass(I^n/I^(n+1)) is constant for n >= B.
    Each *_ceil field is a ceiling, and digits_b1, digits_b2 and digits_b
    count the decimal digits of b1_ceil, b2 and b_ceil.
    """

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
    for name, v in (("r", r), ("s", s), ("d", d)):
        if not is_int(v) or v < 1:
            raise InputError(f"parameter {name} must be a positive integer, got {v!r}")
    c1, m1 = _product(
        d * (r * s + s + d), 1, _power(*split_square(r), r + 1), _power(d, 2, (r + 1) * (s - 1))
    )
    c3, m3 = _product(
        (s + r) ** 2 * d, 1, _power(d, 2, s * s - s + 1), _power(*split_square(s), r + 2)
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
    b3 = RadicalSum.of(ExactRadical(Fraction(c3), m3), -1)
    return BoundReport(r, s, d, b1, b1c, b2, b3, b3c, f3 - 1, s_ceil - s, b, bc, db1, db2, db)


def ideal_parameters(I: MonomialIdeal) -> tuple[int, int, int]:
    """(r, s, d) of a proper nonzero ideal: ambient variables, minimal
    generator count, largest generator total degree."""
    require_proper_nonzero(I)
    return I.r, len(I.generators), max(sum(g) for g in I.generators)
