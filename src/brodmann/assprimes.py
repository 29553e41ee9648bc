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
all the entries of an `ass_profile`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import METHODS, InconsistencyError, InputError
from .monomials import (
    BoxTable,
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


def _torsion_cells(I: MonomialIdeal, n: int) -> tuple[BoxTable, int]:
    """The table of I^(n+1) and, in its box, the cells of I^n in every
    I^(n+1) : x_i^inf (the (n+1)-st power of I with x_i set to 1) but not
    in I^(n+1): the maximal-ideal torsion of I^n/I^(n+1).  The box reaches
    the exponents of I^n and I^(n+1), so `saturate` is exact on it, and it
    holds the whole torsion: a monomial of I^(n+1) : x_i^inf whose x_i
    exponent passes those of I^(n+1) lies in I^(n+1)."""
    i_n, i_n1 = power(I, n), power(I, n + 1)
    box = tuple(map(max, max_exponents(i_n), max_exponents(i_n1)))
    upper = BoxTable(i_n.generators, box)
    lower = BoxTable(i_n1.generators, box, upper.masks)
    cells = upper.bits & ~lower.bits
    for i in range(I.r):
        if cells:
            cells &= lower.saturate(lower.bits, i)
    return lower, cells


def max_ideal_in_ass(I: MonomialIdeal, n: int) -> bool:
    """Whether the full-support prime is associated to I^n/I^(n+1).

    Decided by the torsion criterion: I^n intersected with the (n+1)-st
    powers of all single-variable deletions must exceed I^(n+1), tested by
    `_torsion_cells` on the tables of I^n and I^(n+1) alone.  Any unused
    variable forces False (its deletion leaves I unchanged, collapsing the
    numerator).
    """
    require_proper_nonzero(I)
    if n < 0:
        raise InputError(f"power index must be >= 0, got {n}")
    if len(used_variables(I)) < I.r:
        return False
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


def _ass_by_localization(local: list[LocalIdeal], n: int) -> frozenset[VariablePrime]:
    """Ass(I^n/I^(n+1)) one support at a time, from the supports and
    localizations `_local_ideals` formed once for the request: the prime
    on S is associated when I_S is a pure power ideal or the maximal ideal
    is associated to I_S^n/I_S^(n+1)."""
    return frozenset(S for S, J in local if J is None or max_ideal_in_ass(J, n))


def _require_method(method: str) -> None:
    if method not in METHODS:
        raise InputError(f"method must be one of {METHODS}, got {method!r}")


def _ass_entry(
    I: MonomialIdeal, n: int, method: str, local: list[LocalIdeal] | None
) -> frozenset[VariablePrime]:
    """Ass(I^n/I^(n+1)) by `method`, given `_local_ideals(I)` unless the
    method is "quotient"."""
    if method == "recursion":
        return _ass_by_localization(local, n)
    via_quotient = ass_of_quotient(power(I, n + 1))
    if method == "quotient":
        return via_quotient
    via_recursion = _ass_by_localization(local, n)
    if via_quotient != via_recursion:
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
    local = None if method == "quotient" else _local_ideals(I)
    return _ass_entry(I, n, method, local)


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


def _profile_entry(args: tuple) -> tuple[int, frozenset[VariablePrime]]:
    I, n, method, local = args
    return n, _ass_entry(I, n, method, local)


def ass_profile(
    I: MonomialIdeal,
    n_max: int,
    method: str = "quotient",
    jobs: int = 1,
) -> AssProfile:
    """Profile of Ass(I^n/I^(n+1)) over n = 0..n_max."""
    require_proper_nonzero(I)
    if n_max < 1:
        raise InputError(f"scan bound must be >= 1, got {n_max}")
    if jobs < 1:
        raise InputError(f"parallelism degree must be >= 1, got {jobs}")
    _require_method(method)
    local = None if method == "quotient" else _local_ideals(I)
    tasks = [(I, n, method, local) for n in range(n_max + 1)]
    # a fork-started pool starts all its workers at the first submit, so no
    # more workers than tasks
    workers = min(jobs, len(tasks))
    if workers == 1:
        results = [_profile_entry(t) for t in tasks]
    else:
        # imported here: multiprocessing is slow to load and rarely needed
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_profile_entry, tasks))
    entries = tuple(e for _, e in sorted(results))
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
