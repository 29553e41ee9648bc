"""Associated primes of monomial ideal powers by two independent routes.

Every associated prime of a monomial ideal is generated by a subset of the
variables, so primes are plain tuples of 1-based variable indices.  The
quotient route finds each prime of R/J as an explicit colon witness inside
a finite exponent box.  The recursion route (a name kept for the CLI's
`--method recursion`) localizes at each support S of the variables, setting
the variables off S to 1, and tests whether the maximal ideal is associated
there; the two must agree, and `ass_profile` can cross-check them against
each other.  The supports and their localizations do not depend on n, so
they are formed once per request: once per `ass_power` call, and once for
all the entries of an `ass_profile`.  Every power either route needs
comes off a packed `monomials.Ladder`, charged as "power walk" products
on every call.  The quotient route climbs one ladder of I over all the
entries of a profile; a single entry (`ass_power`, or one `--jobs` worker
task) reads `power`, a fresh ladder.  The recursion route walks the powers
of each localization up as bitsets (`_power_walk`): a profile walks once
from I_S^0 over every n, and one n (`ass_power`, `max_ideal_in_ass`,
`h0_m_monomials`) takes one step from I_S^n, which a ladder climbs to.
The two routes share no table.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations, islice, repeat
from math import prod
from operator import mul

from .errors import METHODS, InconsistencyError, InputError, charge_budget
from .monomials import (
    BoxTable,
    Ladder,
    MonomialIdeal,
    Monomial,
    Packing,
    _top,
    is_pure_power,
    max_exponents,
    power,
    require_proper_nonzero,
    used_variables,
)

VariablePrime = tuple[int, ...]


def ass_witnesses(J: MonomialIdeal) -> dict[VariablePrime, Monomial]:
    """One explicit witness monomial per associated prime of R/J.

    A monomial m witnesses the prime on support P exactly when m is outside
    J, multiplying m by any variable of P lands in J, and the restriction of
    m to P is outside the restriction of J to P (so no monomial supported
    off P can push m into J).  Witnesses are scanned over the box bounded
    componentwise by the maximum generator exponents; a clamping argument
    shows every prime has a witness there.
    """
    require_proper_nonzero(J)
    r = J.r
    caps = max_exponents(J)
    bounds = tuple(c + 1 for c in caps)
    table = BoxTable(J.generators, bounds)
    scan = table.sub_box(caps)
    # split the scanned cells outside J by the prime {i : m * x_i in J}
    groups: list[tuple[VariablePrime, int]] = [((), scan & ~table.bits)]
    for i, s in enumerate(table.strides):
        up = (table.bits >> s) & scan
        groups = [
            group
            for prime, cells in groups
            for group in ((prime, cells & ~up), (prime + (i + 1,), cells & up))
            if group[1]
        ]
    found: list[tuple[Monomial, VariablePrime]] = []
    for prime, cells in groups:
        if not prime:
            continue
        # J restricted to the support is J saturated by the variables off it
        restricted = table.bits
        for i in range(r):
            if i + 1 not in prime:
                restricted = table.saturate(restricted, i)
        cells &= ~restricted
        if cells:
            # the lowest set bit is the lexicographically first cell
            found.append((table.point((cells & -cells).bit_length() - 1), prime))
    return {prime: m for m, prime in sorted(found)}


def ass_of_quotient(J: MonomialIdeal) -> frozenset[VariablePrime]:
    """Associated primes of R/J for a proper nonzero monomial ideal J."""
    return frozenset(ass_witnesses(J))


def _torsion(table: BoxTable, upper: int, lower: int) -> int:
    """The cells of `upper`, the table of I^n, outside `lower`, that of
    I^(n+1), and in every I^(n+1) : x_i^inf: the maximal-ideal torsion of
    I^n/I^(n+1).  Exact on a box that reaches the exponents of I^n and
    I^(n+1), where `saturate` is exact and which holds the whole torsion:
    a monomial of I^(n+1) : x_i^inf whose x_i exponent passes those of
    I^(n+1) lies in I^(n+1)."""
    cells = upper & ~lower
    for i in range(len(table.dims)):
        if cells:
            cells &= table.saturate(lower, i)
    return cells


def _power_walk(
    J: MonomialIdeal, start: int = 0, steps: int = 2
) -> Iterator[tuple[BoxTable, int, int]]:
    """(table, J^n, J^(n+1)) for n = start, start + 1, ...: the bitsets of
    two consecutive powers on the box of `table`, walked up without forming
    a product of generators past J^start.

    The cells of J^(k+1) are those v with v - g in J^k for a generator g,
    so its bitset is the OR over g of J^k's shifted by g's cell offset and
    masked to the cells >= g: when v + g passes the box, the first axis to
    carry, counting from the last, ends below g's coordinate there, so the
    mask drops exactly the cells that wrapped into another row.  A box
    stays exact for every power, but must reach the exponents of J^(n+1)
    for `_torsion`, and those of J^(k+1) are at most those of J^k plus
    those of J.  So every `steps` steps the walk moves to a box reaching
    the exponents of J^k plus `steps` times those of J, seeded from the
    minimal generators of J^k: those of a `Ladder` of J at the start, then
    the cells of the table with no cell one step below on any axis.  Each
    box charges one table when seeded and one per step.
    """
    caps = max_exponents(J)
    gens = Ladder(J).ideal(start).generators
    while True:
        bounds = tuple(e + steps * c for e, c in zip(map(max, zip(*gens)), caps))
        table = BoxTable(gens, bounds)
        total = prod(table.dims)
        offsets = (sum(map(mul, g, table.strides)) for g in J.generators)
        shifts = list(zip(offsets, table.above(J.generators)))
        bits = table.bits
        for _ in range(steps):
            charge_budget(total, "membership box")
            step = 0
            for offset, above in shifts:
                step |= (bits << offset) & above
            yield table, bits, step
            bits = step
        gens = list(table.points(table.minimal(bits)))


def _torsion_cells(I: MonomialIdeal, n: int) -> tuple[BoxTable, int]:
    """The `_torsion` cells of I^n/I^(n+1) and the table they lie on: one
    step of a power walk started at I^n, whose box reaches the exponents of
    I^n plus those of I, so those of I^(n+1) too, and holds the whole
    torsion.  Two tables of that box are charged, whatever n is."""
    table, upper, lower = next(_power_walk(I, n, 1))
    return table, _torsion(table, upper, lower)


def max_ideal_in_ass(I: MonomialIdeal, n: int) -> bool:
    """Whether the full-support prime is associated to I^n/I^(n+1).

    Decided by the torsion criterion: I^n intersected with the (n+1)-st
    powers of all single-variable deletions must exceed I^(n+1), tested by
    `_torsion_cells`, the same cells `h0_m_monomials` lists.  An unused
    variable x_i leaves I^(n+1) : x_i^inf equal to I^(n+1), so the answer
    is then False.
    """
    require_proper_nonzero(I)
    if n < 0:
        raise InputError(f"power index must be >= 0, got {n}")
    return bool(_torsion_cells(I, n)[1])


def _localize(I: MonomialIdeal, support: tuple[int, ...]) -> MonomialIdeal:
    """I_S, the localization of I at the prime on S (a 1-based index list):
    I with every variable off S set to 1, written in the subring on S."""
    cols = [u - 1 for u in support]
    P = Packing(len(cols), _top(I))
    return P.ideal(P.minimal(P.pack(g[c] for c in cols) for g in I.generators))


LocalIdeal = tuple[VariablePrime, MonomialIdeal | None]


def _local_ideals(I: MonomialIdeal) -> list[LocalIdeal]:
    """The supports S whose prime can be associated to some I^n/I^(n+1),
    each with I_S, or None when its prime is associated at every n.  The
    prime on S is associated exactly when the maximal ideal is associated
    to the same quotient of I_S (Herzog-Hibi, Monomial Ideals, ch. 1).  That
    needs I_S proper and using every variable of S, and holds outright when
    I_S is generated by powers of the variables, so primary to the maximal
    ideal.  None of this depends on n."""
    used = used_variables(I)
    local: list[LocalIdeal] = []
    for k in range(1, len(used) + 1):
        for support in combinations(used, k):
            # a generator with no variable in S localizes I to the unit ideal
            if not all(any(g[u - 1] for u in support) for g in I.generators):
                continue
            J = _localize(I, support)
            if len(used_variables(J)) == k:
                local.append((support, None if is_pure_power(J) else J))
    return local


def _ass_by_localization(I: MonomialIdeal, n_max: int) -> list[frozenset[VariablePrime]]:
    """Ass(I^n/I^(n+1)) for n = 0..n_max, the recursion route of
    `ass_profile`, from the supports and localizations of `_local_ideals`,
    formed once: the prime on S is associated at n when I_S is a pure
    power ideal or the maximal ideal is associated to I_S^n/I_S^(n+1),
    read off one `_power_walk` of I_S."""
    flags = [
        (S, None if J is None else [bool(_torsion(*t)) for t in islice(_power_walk(J), n_max + 1)])
        for S, J in _local_ideals(I)
    ]
    return [frozenset(S for S, f in flags if f is None or f[n]) for n in range(n_max + 1)]


def _require_method(method: str) -> None:
    if method not in METHODS:
        raise InputError(f"method must be one of {METHODS}, got {method!r}")


def _quotient_entry(I: MonomialIdeal, n: int) -> frozenset[VariablePrime]:
    return ass_of_quotient(power(I, n + 1))


def _agreed(
    n: int,
    via_quotient: frozenset[VariablePrime] | None,
    via_recursion: frozenset[VariablePrime] | None,
) -> frozenset[VariablePrime]:
    """The entry at n from the routes that ran (None: not run); an
    inconsistency error when both ran and disagree."""
    if via_quotient is None:
        return via_recursion
    if via_recursion is not None and via_quotient != via_recursion:
        raise InconsistencyError(
            f"associated-prime methods disagree at n={n}",
            payload={
                "n": n,
                "quotient": sorted(via_quotient),
                "recursion": sorted(via_recursion),
            },
        )
    return via_quotient


def ass_power(I: MonomialIdeal, n: int, method: str = "quotient") -> frozenset[VariablePrime]:
    """Associated primes of I^n/I^(n+1), n >= 0 (so n=0 covers R/I).

    The index convention: ass_power(I, n) is Ass(I^n/I^(n+1)), equal to the
    associated primes of R/I^(n+1).  method "both" runs the quotient and
    recursion routes and raises an inconsistency error if they disagree.
    """
    require_proper_nonzero(I)
    if n < 0:
        raise InputError(f"power index must be >= 0, got {n}")
    _require_method(method)
    via_quotient = None if method == "recursion" else _quotient_entry(I, n)
    via_recursion = None if method == "quotient" else frozenset(
        S for S, J in _local_ideals(I) if J is None or max_ideal_in_ass(J, n)
    )
    return _agreed(n, via_quotient, via_recursion)


@dataclass(frozen=True)
class AssProfile:
    """Ass(I^n/I^(n+1)) for n = 0..n_max with stabilization bookkeeping.

    observed_stable_at is the smallest n0 whose tail of entries is constant,
    requiring at least two equal entries as evidence; None when the last two
    entries already differ.  non_monotone_at lists every n where consecutive
    entries are incomparable as sets.
    """

    ideal: MonomialIdeal
    n_max: int
    entries: tuple[frozenset[VariablePrime], ...]
    observed_stable_at: int | None
    non_monotone_at: tuple[int, ...]
    method: str


def ass_profile(
    I: MonomialIdeal,
    n_max: int,
    method: str = "quotient",
    jobs: int = 1,
) -> AssProfile:
    """Profile of Ass(I^n/I^(n+1)) over n = 0..n_max.  The recursion route
    runs here, once for every n, and the quotient route climbs one ladder
    of I over the entries; `jobs` worker processes share the quotient
    route's entries, each entry climbing from I to its own power."""
    require_proper_nonzero(I)
    if n_max < 1:
        raise InputError(f"scan bound must be >= 1, got {n_max}")
    if jobs < 1:
        raise InputError(f"parallelism degree must be >= 1, got {jobs}")
    _require_method(method)
    ns = range(n_max + 1)
    recursion = [None] * len(ns) if method == "quotient" else _ass_by_localization(I, n_max)
    # a fork-started pool starts all its workers at the first submit, so no
    # more workers than tasks
    workers = min(jobs, len(ns))
    if method == "recursion":
        quotient = [None] * len(ns)
    elif workers == 1:
        ladder = Ladder(I)
        quotient = [ass_of_quotient(ladder.ideal(n + 1)) for n in ns]
    else:
        # imported here: multiprocessing is slow to load and rarely needed
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            quotient = list(pool.map(_quotient_entry, repeat(I), ns))
    entries = tuple(map(_agreed, ns, quotient, recursion))
    stable_at: int | None = n_max
    while stable_at > 0 and entries[stable_at - 1] == entries[n_max]:
        stable_at -= 1
    if stable_at == n_max:
        stable_at = None
    non_monotone = tuple(
        n
        for n in range(n_max)
        if not entries[n] <= entries[n + 1] and not entries[n] >= entries[n + 1]
    )
    return AssProfile(I, n_max, entries, stable_at, non_monotone, method)
