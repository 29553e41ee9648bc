"""Torsion computations on the associated graded ring of a monomial ideal.

Three tools: the degreewise maximal-ideal torsion of I^n/I^(n+1) with an
explicit finite witness list, read off one step of a bitset power walk
of `assprimes`; Ratliff-Rush closures computed through the colon chain by
generator powers, with an honest stabilization certificate; and the scanner
for the top degree where the Rees-irrelevant torsion of the graded ring is
nonzero (reported as None when every scanned degree vanishes).

The colon chain runs packed from start to end: each power I^(n+m) is the
previous one times the generators of I, and each colon is formed above
I^n, which lies in every step of the chain, so only the generators outside
I^n are met, compared and collected.  Every colon and lcm candidate in I^n
is dropped before it is minimized, which is exact since a divisor of a
monomial outside I^n lies outside it too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DEFAULT_M_CAP, InputError
from .monomials import (
    Monomial,
    MonomialIdeal,
    Packing,
    _colon_above,
    _top,
    intersect,
    power,
    require_proper_nonzero,
)


@dataclass(frozen=True)
class H0Report:
    """Finite maximal-ideal torsion of I^n/I^(n+1), listed monomial by monomial."""

    n: int
    witnesses: tuple[Monomial, ...]
    nonzero: bool


@dataclass(frozen=True)
class RRResult:
    """A computed Ratliff-Rush closure of I^n together with its certificate.

    stabilized_at_m is the first chain index of the observed plateau when
    certified, and the scan cap when not.  chain_monotone records whether
    every consecutive chain step was an inclusion (expected always true).
    """

    closure: MonomialIdeal
    n: int
    stabilized_at_m: int
    certified: bool
    chain_monotone: bool


@dataclass(frozen=True)
class A0Result:
    """Largest scanned degree with nonvanishing Rees-irrelevant torsion.

    value is that degree, or None when every scanned degree vanishes (the
    conventional stand-in for minus infinity).  flags[k] covers degree k.
    """

    value: int | None
    flags: tuple[bool, ...]
    certified: bool
    warnings: tuple[str, ...]


def h0_m_monomials(I: MonomialIdeal, n: int) -> H0Report:
    """Witnesses of the maximal-ideal torsion of I^n/I^(n+1).

    The torsion is I^n intersected with the (n+1)-st powers of every
    single-variable deletion of I, modulo I^(n+1).  Its monomials are the
    cells of `_torsion_cells`, read off one step of a power walk started at
    I^n, the same cells `max_ideal_in_ass` tests, listed ascending
    lexicographically.
    """
    # imported here: only this tool needs the power walk, so `rr` and `a0`
    # do not load assprimes
    from .assprimes import _torsion_cells

    require_proper_nonzero(I)
    if n < 0:
        raise InputError(f"degree must be >= 0, got {n}")
    table, cells = _torsion_cells(I, n)
    witnesses = tuple(table.points(cells))
    return H0Report(n, witnesses, bool(witnesses))


def ratliff_rush(
    I: MonomialIdeal, n: int, m_cap: int = DEFAULT_M_CAP
) -> RRResult:
    """Ratliff-Rush closure of I^n through the generator-power colon chain.

    The chain C_m = I^(n+m) : (g_1^m, ..., g_s^m) ascends to the closure; the
    scan stops at the first m with C_m = C_(m+1) = C_(m+2) (a width-2 plateau)
    and reports certified=True, or returns the partial union with
    certified=False once m_cap is exhausted.

    Every C_m contains I^n, since g_i^m I^n lies in I^(n+m), and C_0 is I^n.
    The chain therefore runs on the generators of each C_m outside I^n, the
    colons of `_colon_above` with I^n as floor, which stop at the first
    part or meet that lies in I^n.  Each I^(n+m) is I^(n+m-1)
    times the generators of I, and only the current power is kept.  One
    packing, widened whenever a new power needs wider fields, carries the
    whole chain, and I^n is laid into its slots (`Packing.lay`) once per
    packing; only the closure is unpacked.
    """
    require_proper_nonzero(I)
    if n < 1:
        raise InputError(f"power index must be >= 1, got {n}")
    if m_cap < 2:
        raise InputError(f"chain cap must be >= 2, got {m_cap}")
    base = power(I, n)
    top = _top(I)
    P = Packing(I.r, (n + 1) * top)
    gens, floor = P.pack_ideal(I), P.pack_ideal(base)
    laid = P.lay(floor)
    # on entry to step m: I^(n+m-1), then C_(m-2), C_(m-1) and the union of
    # the chain so far, each C as its generators outside I^n (C_0 has none)
    high, before, last, union = floor, [], [], []
    monotone = True

    def closure() -> MonomialIdeal:
        return P.ideal(P.minimal(floor + union)) if union else base

    for m in range(1, m_cap + 1):
        if ((n + m) * top).bit_length() >= P.width:
            # I^(n+m) needs wider fields: the same monomials, packed anew
            Q = Packing(I.r, (n + m) * top)
            gens, floor, high, before, last, union = [
                [Q.pack(P.unpack(x)) for x in xs]
                for xs in (gens, floor, high, before, last, union)
            ]
            P = Q
            laid = P.lay(floor)
        high = P.minimal(a + g for a in high for g in gens)
        c_m = _colon_above(P, high, [m * g for g in gens], laid)
        if not P.covers(c_m, last):
            monotone = False
        if not P.covers(union, c_m):
            union = P.minimal(union + c_m)
        if m >= 2 and before == last == c_m:
            return RRResult(closure(), n, m - 2, True, monotone)
        before, last = last, c_m
    return RRResult(closure(), n, m_cap, False, monotone)


def a0_observed(
    I: MonomialIdeal, n_max: int, m_cap: int = DEFAULT_M_CAP
) -> A0Result:
    """Largest degree k < n_max where (closure of I^(k+1)) meets I^k outside I^(k+1).

    Degree k is flagged when the Ratliff-Rush closure of I^(k+1) intersected
    with I^k is strictly larger than I^(k+1).  Uncertified closures are
    reported as warnings rather than silently trusted.
    """
    require_proper_nonzero(I)
    if n_max < 1:
        raise InputError(f"scan bound must be >= 1, got {n_max}")
    flags: list[bool] = []
    warnings: list[str] = []
    for n in range(1, n_max + 1):
        rr = ratliff_rush(I, n, m_cap)
        if not rr.certified:
            warnings.append(
                f"closure of power {n} not certified within chain cap {m_cap}"
            )
        meet = intersect(rr.closure, power(I, n - 1))
        flags.append(meet != power(I, n))
    value = None
    for k in range(n_max - 1, -1, -1):
        if flags[k]:
            value = k
            break
    return A0Result(value, tuple(flags), not warnings, tuple(warnings))
