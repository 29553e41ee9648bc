"""Associated primes of monomial ideal powers by two independent routes.

Every associated prime of a monomial ideal is generated by a subset of the
variables, so primes are plain tuples of 1-based variable indices.  The
quotient route finds each prime of R/J as an explicit colon witness inside
a finite exponent box.  The recursion route (a name kept for the CLI's
`--method recursion`) localizes at each support S of the variables, setting
the variables off S to 1, and tests whether the maximal ideal is associated
there: outright when the localization is principal, or the gcd of its
generators times an ideal primary to the maximal ideal, and otherwise by a
socle cell of each power's quotient.  Every entry of every method passes
one check, `_checked`: the routes that ran agree, and the entry holds every
prime settled outright and none dropped outright.  Both `ass_power` and
`ass_profile` read one core, `_entries`, over a range of n: the one n asked
for, or n = 0..n_max, in the calling process and under one budget meter,
the caller's or, outside every block, the call's own (`errors.metered`).
The supports and their localizations do not depend on n, so
they are formed once per request, on one packing of I.  Every power either
route needs comes off a packed `monomials.Ladder`, charged as "power walk"
products on every call.  The quotient route climbs one ladder of I over
the range and builds each power's table straight from its packed
generators.  The recursion route walks the powers of each localization
it does not settle outright and that lies in no larger such one up as
bitsets over the range (`_power_walk`), from I_S^n at its first n, read
off `power`, a fresh ladder: a profile walks from I_S^0, and one n
(`ass_power`, `max_ideal_in_ass`, `h0_m_monomials`) takes one step from
I_S^n.  Each smaller walked localization is read off the top slices of a
walk that holds it.  The two routes share no table.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import combinations
from operator import mul

from .errors import METHODS, InconsistencyError, InputError, charge_budget, metered, require_count
from .monomials import (
    BoxTable,
    Ladder,
    MonomialIdeal,
    Monomial,
    Packing,
    _top,
    max_exponents,
    power,
    require_proper_nonzero,
    used_variables,
)

VariablePrime = tuple[int, ...]


def _prime_cells(table: BoxTable, bits: int, cells: int) -> list[tuple[VariablePrime, int]]:
    """The cells of `cells`, all outside J, the ideal of `bits`, split by
    the prime P = {i : the cell's step up axis i lies in J}, keeping off P
    only the cells in the table's `top` of every axis: each prime with its
    cells, none empty.  Every Ass question on a box reads this one split.

    On J's `_witness_primes` box, whose top on each axis j is caps_j + 1,
    the primes of the cells outside J are Ass(R/J): every associated prime
    has such a cell, and every such cell m has J : m = P:
    - a witness m has m_i < caps_i on P, for otherwise m * x_i in J would
      force m in J;
    - raising its coordinates off P to caps + 1 keeps m outside J, since
      m is not in J : x_j^inf, and keeps m * x_i in J;
    - at the top of an axis, m * x_j lies in J exactly when m does, since
      no generator asks for more.

    On a power walk step, J = I^(n+1) and the cells of I^n outside it, the
    group on the axes of S is the socle of I_S^n/I_S^(n+1), I_S being I
    with the variables off S set to 1 (Herzog-Hibi, Monomial Ideals, ch.
    1): a box reaching I's exponents and those of I_S^(n+1) has the table
    of I_S at the top of every axis off S, and a cell outside I^(n+1) at
    the top of an axis stays outside after any step up along it, so every
    socle cell lies below the top.  The full-support group is nonzero
    exactly when the maximal-ideal torsion of I^n/I^(n+1) is.
    """
    groups: list[tuple[VariablePrime, int]] = [((), cells)]
    # one axis at a time, the cells at its top stay off the prime, and
    # those one step below a cell of J join it
    for i, (s, top) in enumerate(zip(table.strides, table.top)):
        up = (bits >> s) & ~top
        groups = [
            group
            for prime, cells in groups
            for group in ((prime, cells & top), (prime + (i + 1,), cells & up))
            if group[1]
        ]
    return groups


def _witness_primes(gens: Sequence[Sequence[int]]) -> tuple[BoxTable, list]:
    """The table of J, the ideal of gens, on the box 0..caps + 1, caps
    being J's largest exponents, and the `_prime_cells` of every cell
    outside J: none is left for the empty prime, the all-top cell being
    in J."""
    table = BoxTable(gens, tuple(c + 1 for c in map(max, zip(*gens))))
    bits = table.bits
    return table, _prime_cells(table, bits, ((1 << table.total) - 1) & ~bits)


@metered
def ass_witnesses(J: MonomialIdeal) -> dict[VariablePrime, Monomial]:
    """One explicit witness monomial per associated prime of R/J.

    A monomial m witnesses the prime on support P when J : m = P.  The
    witnesses are read off `_witness_primes`.  The witness of each prime
    is its lexicographically first witness cell, the lowest set bit of its
    cells, and the primes come in the order of their witnesses.
    """
    require_proper_nonzero(J)
    table, groups = _witness_primes(J.generators)
    found = sorted(((cells & -cells).bit_length() - 1, prime) for prime, cells in groups)
    return {prime: table.point(idx) for idx, prime in found}


@metered
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


def _power_walk(J: MonomialIdeal, ns: range) -> Iterator[tuple[BoxTable, int, int]]:
    """(table, J^n, J^(n+1)) for each n of ns, a range of step 1: the
    bitsets of two consecutive powers on the box of `table`, walked up
    without forming a product of generators past J^ns[0].

    The cells of J^(k+1) are those v with v - g in J^k for a generator g,
    so its bitset is the OR over g of J^k's shifted by g's cell offset and
    masked to the cells >= g: when v + g passes the box, the first axis to
    carry, counting from the last, ends below g's coordinate there, so the
    mask drops exactly the cells that wrapped into another row.  A box
    stays exact for every power, but must reach the exponents of J^(n+1)
    for `_prime_cells` and `_torsion`, and those of J^(k+1) are at most
    those of J^k plus those of J.  So every `steps` steps, two or the one
    step of a single n, the walk moves to a box reaching the exponents of
    J^k plus `steps` times those of J, seeded from the minimal generators
    of J^k: those of `power` at the start, then the cells of the table
    with no cell one step below on any axis.  Each box charges one table when seeded
    and one per step, and the walk stops after len(ns) steps.
    """
    caps = max_exponents(J)
    steps = min(2, len(ns))
    gens = power(J, ns[0]).generators
    for left in range(len(ns), 0, -steps):
        bounds = tuple(e + steps * c for e, c in zip(map(max, zip(*gens)), caps))
        table = BoxTable(gens, bounds)
        offsets = (sum(map(mul, g, table.strides)) for g in J.generators)
        shifts = list(zip(offsets, table.above(J.generators)))
        bits = table.bits
        for _ in range(min(steps, left)):
            charge_budget(table.total, "membership box")
            step = 0
            for offset, above in shifts:
                step |= (bits << offset) & above
            yield table, bits, step
            bits = step
        if left > steps:
            gens = list(table.points(table.minimal(bits)))


@metered
def max_ideal_in_ass(I: MonomialIdeal, n: int) -> bool:
    """Whether the full-support prime is associated to I^n/I^(n+1).

    Decided by the socle criterion: some monomial of I^n outside I^(n+1)
    lands in I^(n+1) times every variable, the full-support group of
    `_prime_cells` on one step of a power walk started at I^n, the step
    `h0_m_monomials` reads, so exactly when the torsion it lists is
    nonzero.  An unused variable x_i takes no monomial outside I^(n+1)
    into it, so the answer is then False.
    """
    require_proper_nonzero(I)
    require_count(n, 0, "power index")
    table, upper, lower = next(_power_walk(I, range(n, n + 1)))
    return tuple(range(1, I.r + 1)) in dict(_prime_cells(table, lower, upper & ~lower))


LocalIdeal = tuple[VariablePrime, tuple[Monomial, ...] | None]


def _local_ideals(I: MonomialIdeal) -> list[LocalIdeal]:
    """The supports S whose prime can be associated to some I^n/I^(n+1),
    each with the generators of J = I_S, in the canonical order of a
    `MonomialIdeal` on the variables of S, or None when its prime is
    associated at every n.
    The prime on S is associated exactly when the maximal ideal m is
    associated to J^n/J^(n+1) (Herzog-Hibi, Monomial Ideals, ch. 1).  That
    needs J proper and using every variable of S.  Write J = u J', u the
    gcd of its generators.  A principal J = (u) is associated at every n
    on one variable and at none on more: J^n/J^(n+1) is R/(u), whose
    primes are the (x_i) with x_i dividing u.  When J' holds a pure power of every variable of S
    (so it is primary to m; J' = J when u = 1) and J is not principal, m is
    associated at every n: for v in J'^n outside J'^(n+1), u^(n+1) v lies
    in J^n outside J^(n+1), and a power of m takes it into J^(n+1).  In one
    or two variables every J is one of these.  None of this depends on n.

    I is packed once, and I_S is its generators with the fields off S
    masked to 0, minimized in the same packing.  No `MonomialIdeal` is
    formed and no box laid, so a quotient-only request forms them too.
    The 2^k - 1 supports of the k used variables, each masking every
    generator, are charged before the first is formed."""
    used = used_variables(I)
    P = Packing(I.r, _top(I))
    gens = P.pack_ideal(I)
    charge_budget(((1 << len(used)) - 1) * len(gens), "support enumeration", "masked generators")
    local: list[LocalIdeal] = []
    for k in range(1, len(used) + 1):
        for support in combinations(used, k):
            mask = P.mask(u - 1 for u in support)
            masked = [g & mask for g in gens]
            # a generator with no variable in S localizes I to the unit ideal
            if not all(masked):
                continue
            kept = P.minimal(masked)
            if len(kept) == 1:
                if k == 1:
                    local.append((support, None))
                continue
            J = tuple(tuple(m[u - 1] for u in support) for m in map(P.unpack, reversed(kept)))
            if not all(map(any, zip(*J))):
                continue
            gcd = tuple(map(min, zip(*J)))
            # the axes of the generators of J' that are pure powers
            pure = {
                axes[0]
                for axes in ([i for i in range(k) if g[i] > gcd[i]] for g in J)
                if len(axes) == 1
            }
            local.append((support, None if len(pure) == k else J))
    return local


def _require_method(method: str) -> None:
    if method not in METHODS:
        raise InputError(f"method must be one of {METHODS}, got {method!r}")


def _ladder_entry(ladder: Ladder, k: int) -> frozenset[VariablePrime]:
    """Ass(R/J) for J = I^k of the ladder, whose `_witness_primes` box is
    built straight from the exponent rows of the packed generators."""
    ladder.drop_below(k)
    return frozenset(prime for prime, _ in _witness_primes(ladder.P.rows(ladder[k]))[1])


def _walked_flags(
    walked: dict[VariablePrime, tuple[Monomial, ...]], ns: range
) -> dict[VariablePrime, list[bool]]:
    """For each walked support S, given with the generators of I_S, whether
    I_S^n/I_S^(n+1) has a socle cell, for each n of ns.  Only a support
    T in no larger walked support is walked, by one `_power_walk` of I_T,
    the only I_S formed as a `MonomialIdeal`; every walked S inside T is
    read off that walk, as the axes of S looked up among each step's
    `_prime_cells` groups, so no box is laid for it."""
    flags: dict[VariablePrime, list[bool]] = {}
    for T in sorted(walked, key=len, reverse=True):
        if T in flags:
            continue
        nested = {
            S: tuple(T.index(u) + 1 for u in S)
            for S in walked
            if S not in flags and set(S) <= set(T)
        }
        for S in nested:
            flags[S] = []
        for table, upper, lower in _power_walk(MonomialIdeal(len(T), walked[T]), ns):
            primes = dict(_prime_cells(table, lower, upper & ~lower))
            for S, axes in nested.items():
                flags[S].append(axes in primes)
    return flags


def _checked(
    n: int,
    via_quotient: frozenset[VariablePrime] | None,
    via_recursion: frozenset[VariablePrime] | None,
    settled: frozenset[VariablePrime],
    walked: dict[VariablePrime, tuple[Monomial, ...]],
) -> frozenset[VariablePrime]:
    """The entry at n from the routes that ran (None: not run), checked: an
    inconsistency error, with every answer, unless the routes that ran agree
    and the entry holds every prime `_local_ideals` settles and no prime on
    a support it drops.  The one check of every method and every entry."""
    entry = via_recursion if via_quotient is None else via_quotient
    if via_recursion in (None, entry) and settled <= entry <= settled.union(walked):
        return entry
    answers = dict(quotient=via_quotient, recursion=via_recursion, settled=settled, walked=walked)
    payload = {"n": n, **{k: v if v is None else sorted(v) for k, v in answers.items()}}
    raise InconsistencyError(f"associated primes disagree at n={n}", payload=payload)


def _entries(I: MonomialIdeal, ns: range, method: str) -> tuple[frozenset[VariablePrime], ...]:
    """Ass(I^n/I^(n+1)) for each n of ns, a range of step 1, by the routes
    method names, in the calling process.  The quotient route runs first,
    climbing one `Ladder` of I over ns and building the table of each
    I^(n+1) straight from its packed generators (`_ladder_entry`), with no
    `MonomialIdeal` or witness point formed.  Every method then forms the
    supports of `_local_ideals`, which lays no box.  The recursion route
    takes the prime on S at n when `_local_ideals` settles it at every n,
    or when I_S^n/I_S^(n+1) has a socle cell, read off one walk per
    maximal walked support (`_walked_flags`).  Every entry of every method
    passes `_checked`: against the other route when both ran, and against
    the settled and dropped supports."""
    quotient = recursion = [None] * len(ns)
    if method != "recursion":
        ladder = Ladder(I)
        quotient = [_ladder_entry(ladder, n + 1) for n in ns]
    local = _local_ideals(I)
    settled = frozenset(S for S, J in local if J is None)
    walked = {S: J for S, J in local if J is not None}
    if method != "quotient":
        flags = _walked_flags(walked, ns).items()
        recursion = [settled.union(S for S, f in flags if f[k]) for k in range(len(ns))]
    return tuple(_checked(n, q, r, settled, walked) for n, q, r in zip(ns, quotient, recursion))


@metered
def ass_power(I: MonomialIdeal, n: int, method: str = "quotient") -> frozenset[VariablePrime]:
    """Associated primes of I^n/I^(n+1), n >= 0 (so n=0 covers R/I).

    The index convention: ass_power(I, n) is Ass(I^n/I^(n+1)), equal to the
    associated primes of R/I^(n+1).  method "both" runs the quotient and
    recursion routes and raises an inconsistency error if they disagree.
    """
    require_proper_nonzero(I)
    require_count(n, 0, "power index")
    _require_method(method)
    return _entries(I, range(n, n + 1), method)[0]


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


@metered
def ass_profile(I: MonomialIdeal, n_max: int, method: str = "quotient") -> AssProfile:
    """Profile of Ass(I^n/I^(n+1)) over n = 0..n_max, from one call of
    `_entries` over the whole range."""
    require_proper_nonzero(I)
    require_count(n_max, 1, "scan bound")
    _require_method(method)
    entries = _entries(I, range(n_max + 1), method)
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
