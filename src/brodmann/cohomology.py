"""Torsion computations on the associated graded ring of a monomial ideal.

Three tools: the degreewise maximal-ideal torsion of I^n/I^(n+1) with an
explicit finite witness list, read off one step of a bitset power walk
of `assprimes`; Ratliff-Rush closures computed through the colon chain by
generator powers, stopped at the first observed plateau (observed, not
proved: `certified` says only that the chain stopped before its cap); and
the scanner for the top degree where the Rees-irrelevant torsion of the
graded ring is nonzero (reported as None when every scanned degree
vanishes).

The colon chain runs packed from start to end.  Its powers come from one
`monomials.Ladder` per request, which climbs from I: each power is the
previous one times the generators of I, formed and charged to the budget
once, so the chains of every degree `a0_observed` scans share them, and
`ratliff_rush` lets go of the powers below I^n on its way up to it.  Each
colon is formed above I^n, which lies in every step of the chain, so only
the generators outside I^n are met and compared.  Every colon and lcm
candidate in I^n is dropped before it is minimized, which is exact since a
divisor of a monomial outside I^n lies outside it too.  The chain ascends,
so its union is the last step formed, and a chain whose plateau is at 0
forms one colon, C_2.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import DEFAULT_M_CAP, require_count
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
    certified, and the scan cap when not; certified says only that a
    plateau was observed below the cap.  chain_monotone records whether
    C_(m-1) lay in C_m for each pair of consecutive steps the chain formed
    (C_0 and C_2 alone when it stops at 0 or the cap is 2).  The chain
    ascends, so it is always true unless the computation is at fault.
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
    `_torsion` cells of one step of a power walk started at I^n, whose box
    holds the whole torsion, listed ascending lexicographically: the step
    whose socle `max_ideal_in_ass` tests.  Two tables are charged.
    """
    # imported here: only this tool needs the power walk, so `rr` and `a0`
    # do not load assprimes
    from .assprimes import _power_walk, _torsion

    require_proper_nonzero(I)
    require_count(n, 0, "degree")
    table, upper, lower = next(_power_walk(I, range(n, n + 1)))
    witnesses = tuple(table.points(_torsion(table, upper, lower)))
    return H0Report(n, witnesses, bool(witnesses))


def _chain(ladder: Ladder, n: int, m_cap: int) -> tuple[list[int], int, bool, bool]:
    """The colon chain of I^n on the ladder, as (union, stabilized_at_m,
    certified, chain_monotone) of `RRResult`.

    The chain ascends (see `ratliff_rush`), so its union is the last C_m
    formed, and C_j = C_(j+2) already makes C_(j+1), which lies between
    them, equal to both.  C_0 = I^n, so C_2 is formed first: when it is
    I^n too, the plateau is at 0 and C_1 is never formed.  Otherwise C_1,
    C_3, C_4, ... follow in order (C_1 only when the cap reaches C_3, the
    first C it is compared with) until the first C_(j+2) = C_j, and
    chain_monotone checks that C_(m-1) lies in C_m for each such pair of
    C's formed.  Each C_m is kept as its generators outside I^n, packed by
    the ladder's packing, and I^n is laid into slots (`Packing.lay`) once
    per packing that a colon runs under, after the climb that may re-pack."""
    P, laid = ladder.P, None
    # the C_m formed and still to be compared, each as its generators
    # outside I^n (C_0 = I^n has none)
    C: dict[int, list[int]] = {}
    monotone = True
    for m in chain((2, 1) if m_cap > 2 else (2,), range(3, m_cap + 1)):
        high = ladder[n + m]
        if ladder.P is not P:
            C = {k: ladder.repack(P, xs) for k, xs in C.items()}
            P, laid = ladder.P, None
        laid = laid or P.lay(ladder[n])
        qs = [m * g for g in ladder.gens]
        C[m] = c_m = _colon_above(P, high, qs, laid)
        # the generators in the order the kernel left qs: m * g packs m·g
        ladder.gens = [q // m for q in qs]
        if m == 2 and not c_m:
            return c_m, 0, True, True
        if m == 1:
            monotone = P.covers(C[2], c_m)
        elif m > 2:
            monotone = monotone and P.covers(c_m, C[m - 1])
            if c_m == C.pop(m - 2):
                return c_m, m - 2, True, monotone
    return c_m, m_cap, False, monotone


def ratliff_rush(
    I: MonomialIdeal, n: int, m_cap: int = DEFAULT_M_CAP
) -> RRResult:
    """Ratliff-Rush closure of I^n through the generator-power colon chain.

    The chain C_m = I^(n+m) : (g_1^m, ..., g_s^m) ascends to the closure:
    if u g_i^m lies in I^(n+m), then u g_i^(m+1) lies in I^(n+m+1), so C_m
    lies in C_(m+1).  The scan stops at the first j with C_j = C_(j+2),
    which makes C_(j+1), lying between them, equal too (a width-2
    plateau), and reports certified=True; or, once C_(m_cap) is formed, it
    returns that last C, the union of the chain so far, with
    certified=False.

    Every C_m contains I^n, since g_i^m I^n lies in I^(n+m), and C_0 is I^n.
    The chain (`_chain`) therefore runs on the generators of each C_m
    outside I^n.  Its powers come from a `Ladder` of I, which climbs to
    I^n letting go of the powers below it, then forms I^(n+1), I^(n+2), ...
    as the chain reaches them (I^(n+2) at least, for C_2), charging every
    product to the budget; only the closure is unpacked.
    """
    require_proper_nonzero(I)
    require_count(n, 1, "power index")
    require_count(m_cap, 2, "chain cap")
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
    require_count(n_max, 1, "scan bound")
    require_count(m_cap, 2, "chain cap")
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
