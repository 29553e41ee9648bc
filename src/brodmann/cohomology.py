"""Torsion computations on the associated graded ring of a monomial ideal.

Three tools: the degreewise maximal-ideal torsion of I^n/I^(n+1) with an
explicit finite witness list, read off one step of a bitset power walk
of `assprimes`; Ratliff-Rush closures computed through the colon chain by
generator powers, with an honest stabilization certificate; and the scanner
for the top degree where the Rees-irrelevant torsion of the graded ring is
nonzero (reported as None when every scanned degree vanishes).

The colon chain runs packed from start to end.  Its powers come from one
`monomials.Ladder` per request, which climbs from I: each power is the
previous one times the generators of I, formed and charged to the budget
once, so the chains of every degree `a0_observed` scans share them, and
`ratliff_rush` lets go of the powers below I^n on its way up to it.  Each
colon is formed above I^n, which lies in every step of the chain, so only
the generators outside I^n are met, compared and collected.  Every colon
and lcm candidate in I^n is dropped before it is minimized, which is exact
since a divisor of a monomial outside I^n lies outside it too.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DEFAULT_M_CAP, InputError
from .monomials import Ladder, Monomial, MonomialIdeal, _colon_above, require_proper_nonzero


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


def _chain(ladder: Ladder, n: int, m_cap: int) -> tuple[list[int], int, bool, bool]:
    """The colon chain of I^n on the ladder, as (union, stabilized_at_m,
    certified, chain_monotone) of `RRResult`.  The union and each C_m are
    kept as their generators outside I^n, packed by the ladder's packing,
    and I^n is laid into slots (`Packing.lay`) once per packing."""
    P = ladder.P
    laid = P.lay(ladder[n])
    # on entry to step m: C_(m-2), C_(m-1) and the union of the chain so
    # far, each C as its generators outside I^n (C_0 has none)
    before, last, union = [], [], []
    monotone = True
    for m in range(1, m_cap + 1):
        high = ladder[n + m]
        if ladder.P is not P:
            before, last, union = [ladder.repack(P, xs) for xs in (before, last, union)]
            P = ladder.P
            laid = P.lay(ladder[n])
        qs = [m * g for g in ladder.gens]
        c_m = _colon_above(P, high, qs, laid)
        # the generators in the order the kernel left qs: m * g packs m·g
        ladder.gens = [q // m for q in qs]
        if not P.covers(c_m, last):
            monotone = False
        if not P.covers(union, c_m):
            union = P.minimal(union + c_m)
        if m >= 2 and before == last == c_m:
            return union, m - 2, True, monotone
        before, last = last, c_m
    return union, m_cap, False, monotone


def ratliff_rush(
    I: MonomialIdeal, n: int, m_cap: int = DEFAULT_M_CAP
) -> RRResult:
    """Ratliff-Rush closure of I^n through the generator-power colon chain.

    The chain C_m = I^(n+m) : (g_1^m, ..., g_s^m) ascends to the closure; the
    scan stops at the first m with C_m = C_(m+1) = C_(m+2) (a width-2 plateau)
    and reports certified=True, or returns the partial union with
    certified=False once m_cap is exhausted.

    Every C_m contains I^n, since g_i^m I^n lies in I^(n+m), and C_0 is I^n.
    The chain (`_chain`) therefore runs on the generators of each C_m
    outside I^n.  Its powers come from a `Ladder` of I, which climbs to
    I^n letting go of the powers below it, then forms I^(n+1), I^(n+2), ...
    as the chain reaches them, charging every product to the budget; only
    the closure is unpacked.
    """
    require_proper_nonzero(I)
    if n < 1:
        raise InputError(f"power index must be >= 1, got {n}")
    if m_cap < 2:
        raise InputError(f"chain cap must be >= 2, got {m_cap}")
    ladder = Ladder(I)
    ladder.drop_below(n)
    union, stop, certified, monotone = _chain(ladder, n, m_cap)
    P = ladder.P
    closure = P.ideal(P.minimal(ladder[n] + union) if union else ladder[n])
    return RRResult(closure, n, stop, certified, monotone)


def a0_observed(
    I: MonomialIdeal, n_max: int, m_cap: int = DEFAULT_M_CAP
) -> A0Result:
    """Largest degree k < n_max where (closure of I^(k+1)) meets I^k outside I^(k+1).

    Degree k is flagged when the Ratliff-Rush closure of I^(k+1) intersected
    with I^k is strictly larger than I^(k+1).  Uncertified closures are
    reported as warnings rather than silently trusted.

    Every degree's chain runs on one `Ladder` of I, so each power is
    formed and charged once per call, and the powers below I^(n-1) are
    dropped once degree n starts.  With E the chain's union outside I^n,
    the closure is I^n + (E), so its meet with I^(n-1) exceeds I^n exactly
    when E meets I^(n-1) outside I^n: no closure is unpacked and no
    `power` is called.
    """
    require_proper_nonzero(I)
    if n_max < 1:
        raise InputError(f"scan bound must be >= 1, got {n_max}")
    if m_cap < 2:
        raise InputError(f"chain cap must be >= 2, got {m_cap}")
    flags: list[bool] = []
    warnings: list[str] = []
    ladder = Ladder(I)
    for n in range(1, n_max + 1):
        ladder.drop_below(n - 1)
        union, _, certified, _ = _chain(ladder, n, m_cap)
        if not certified:
            warnings.append(
                f"closure of power {n} not certified within chain cap {m_cap}"
            )
        P = ladder.P
        flags.append(bool(union) and bool(P.meet(union, ladder[n - 1], P.lay(ladder[n]))))
    value = None
    for k in range(n_max - 1, -1, -1):
        if flags[k]:
            value = k
            break
    return A0Result(value, tuple(flags), not warnings, tuple(warnings))
