"""Torsion computations on the associated graded ring of a monomial ideal.

Three tools: the degreewise maximal-ideal torsion of I^n/I^(n+1) with an
explicit finite witness list; Ratliff-Rush closures computed through the
colon chain by generator powers, with an honest stabilization certificate;
and the scanner for the top degree where the Rees-irrelevant torsion of the
graded ring is nonzero (reported as None when every scanned degree vanishes).
"""

from __future__ import annotations

from dataclasses import dataclass

from .assprimes import _torsion_cells
from .errors import DEFAULT_M_CAP, InputError
from .monomials import (
    Monomial,
    MonomialIdeal,
    Packing,
    _top,
    add,
    colon_ideal,
    contains_ideal,
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


def generator_power_ideal(I: MonomialIdeal, m: int) -> MonomialIdeal:
    """The ideal generated by the m-th powers of I's minimal generators."""
    if m < 0:
        raise InputError(f"power must be >= 0, got {m}")
    # the fields hold the generators themselves as well as their m-th powers
    P = Packing(I.r, max(m, 1) * _top(I))
    return P.ideal(P.minimal(m * g for g in P.pack_ideal(I)))


def h0_m_monomials(I: MonomialIdeal, n: int) -> H0Report:
    """Witnesses of the maximal-ideal torsion of I^n/I^(n+1).

    The torsion is I^n intersected with the (n+1)-st powers of every
    single-variable deletion of I, modulo I^(n+1).  Its monomials are the
    cells of `_torsion_cells`, listed ascending lexicographically from the
    box of I^n and I^(n+1), which holds them all.
    """
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
    """
    require_proper_nonzero(I)
    if n < 1:
        raise InputError(f"power index must be >= 1, got {n}")
    if m_cap < 2:
        raise InputError(f"chain cap must be >= 2, got {m_cap}")
    chain: list[MonomialIdeal] = []
    union = power(I, n)
    monotone = True
    for m in range(m_cap + 1):
        c_m = colon_ideal(power(I, n + m), generator_power_ideal(I, m))
        if chain and not contains_ideal(c_m, chain[-1]):
            monotone = False
        chain.append(c_m)
        union = add(union, c_m)
        if m >= 2 and chain[m - 2] == chain[m - 1] == chain[m]:
            return RRResult(union, n, m - 2, True, monotone)
    return RRResult(union, n, m_cap, False, monotone)


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
