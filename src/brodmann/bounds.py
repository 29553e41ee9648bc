"""Explicit stabilization thresholds for associated primes of powers.

Four exact quantities in the parameters r (variables), s (minimal
generators), d (largest generator degree): b1 bounds the generator degrees
of the maximal-ideal torsion module of the associated graded ring, b2
bounds the top nonvanishing torsion degree with respect to the Rees
irrelevant ideal, b3/b4 are the intermediate quantities behind b2, and the
stabilization threshold is B = max(b1, b2).  Everything is computed in
exact radical arithmetic; only ceilings are ever rounded.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, is_int
from .monomials import MonomialIdeal, require_proper_nonzero
from .radicals import ExactRadical, RadicalSum


def _validate(r: int, s: int, d: int) -> None:
    for name, v in (("r", r), ("s", s), ("d", d)):
        if not is_int(v) or v < 1:
            raise InputError(f"parameter {name} must be a positive integer, got {v!r}")


def bound_b1(r: int, s: int, d: int) -> ExactRadical:
    """d(rs+s+d) * sqrt(r)^(r+1) * (sqrt(2)d)^((r+1)(s-1)), exact."""
    _validate(r, s, d)
    out = ExactRadical.of_fraction(d * (r * s + s + d))
    out = out * ExactRadical.sqrt_of(r) ** (r + 1)
    out = out * (ExactRadical.sqrt_of(2) * d) ** ((r + 1) * (s - 1))
    return out


def bound_b2(r: int, s: int, d: int) -> int:
    """s(s+r)^4 s^(r+2) d^2 (2d^2)^(s^2-s+1), an exact integer."""
    _validate(r, s, d)
    return s * (s + r) ** 4 * s ** (r + 2) * d * d * (2 * d * d) ** (s * s - s + 1)


def _b3_bracket(r: int, s: int, d: int) -> ExactRadical:
    out = ExactRadical.of_fraction((s + r) ** 2 * d)
    out = out * (ExactRadical.sqrt_of(2) * d) ** (s * s - s + 1)
    out = out * ExactRadical.sqrt_of(s) ** (r + 2)
    return out


def bound_b3(r: int, s: int, d: int) -> RadicalSum:
    """(s+r)^2 d (sqrt(2)d)^(s^2-s+1) sqrt(s)^(r+2) minus one, exact.

    The minus-one reading treats the whole product as a grouped factor; the
    alternative floor reading is exposed separately.
    """
    _validate(r, s, d)
    return RadicalSum.of(_b3_bracket(r, s, d), -1)


def bound_b3_floor_reading(r: int, s: int, d: int) -> int:
    """Integer alternative reading: floor of the grouped product, minus one."""
    _validate(r, s, d)
    return _b3_bracket(r, s, d).floor() - 1


def bound_b4(r: int, s: int, d: int) -> int:
    """ceiling(s * b3), the generator-count multiple of b3."""
    _validate(r, s, d)
    return RadicalSum.of(_b3_bracket(r, s, d) * s, -s).ceil()


def stabilization_bound(r: int, s: int, d: int) -> ExactRadical:
    """B = max(b1, b2) in exact form; Ass(I^n/I^(n+1)) is constant for n >= B."""
    b1 = bound_b1(r, s, d)
    b2 = bound_b2(r, s, d)
    return b1 if b1 > b2 else ExactRadical.of_fraction(b2)


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
    _validate(r, s, d)
    b1 = bound_b1(r, s, d)
    b2 = bound_b2(r, s, d)
    b3 = bound_b3(r, s, d)
    b4 = bound_b4(r, s, d)
    b = stabilization_bound(r, s, d)
    b1c = b1.ceil()
    bc = b.ceil()
    return BoundReport(
        r=r,
        s=s,
        d=d,
        b1=b1,
        b1_ceil=b1c,
        b2=b2,
        b3=b3,
        b3_ceil=b3.ceil(),
        b3_floor_reading=bound_b3_floor_reading(r, s, d),
        b4=b4,
        b_exact=b,
        b_ceil=bc,
        digits_b1=_decimal_digits(b1c),
        digits_b2=_decimal_digits(b2),
        digits_b=_decimal_digits(bc),
    )


def ideal_parameters(I: MonomialIdeal) -> tuple[int, int, int]:
    """(r, s, d) of a proper nonzero ideal: ambient variables, minimal
    generator count, largest generator total degree."""
    require_proper_nonzero(I)
    return I.r, len(I.generators), max(sum(g) for g in I.generators)
