"""Brute-force reference implementations for the test suite.

Everything here is written for obviousness, not speed, and deliberately
avoids the library's search strategies: membership is raw divisibility,
associated primes come straight from the colon definition, the witness
and torsion scans visit every cell of their box, power membership
enumerates generator multiplicities, ideal arithmetic minimizes by pairwise
divisibility, boxed constraint solutions are tested at every box point,
semigroup and module generators are the boxed solutions that no two boxed
parts add up to, cone membership does exact Gaussian elimination over
Fractions, and the cone bounds come from their closed forms by isqrt and
mpmath.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product as iproduct
from math import isqrt


def divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def monomial_in(m, gens):
    return any(divides(g, m) for g in gens)


def iter_box(bounds):
    """All integer points v with 0 <= v_i <= bounds_i, ascending lexicographically."""
    return iproduct(*(range(b + 1) for b in bounds))


def box_solutions(rows, rhs, e, box, pinned):
    """Every v with v_k = pinned[k] for pinned k, the other coordinates in
    0..box, and row . v >= b for each row, in ascending lexicographic order:
    the whole box, tested point by point."""
    free = [k for k in range(e) if k not in pinned]
    out = []
    for combo in iter_box([box] * len(free)):
        v = [pinned.get(k, 0) for k in range(e)]
        for k, x in zip(free, combo):
            v[k] = x
        if all(sum(a * x for a, x in zip(row, v)) >= b for row, b in zip(rows, rhs)):
            out.append(tuple(v))
    return out


def validate_minimal(gens):
    """Raise ValueError unless the generators form a divisibility antichain."""
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            if i != j and divides(a, b):
                raise ValueError(f"generator {a} divides generator {b}")


def star_norm(v):
    return max((abs(c) for c in v), default=0)


def colon_by_monomial(gens, m):
    """Minimal generators of (J : m): clip each generator below by m."""
    clipped = {tuple(max(a - b, 0) for a, b in zip(g, m)) for g in gens}
    keep = []
    for v in sorted(clipped, key=sum):
        if not any(divides(w, v) for w in keep):
            keep.append(v)
    return keep


def brute_ass(J):
    """Associated primes of R/J by the definition P = (J : m).

    The scan runs over the box spanned by the generator exponents; any
    witness outside clips into the box without changing its colon.
    """
    r = J.r
    gens = J.generators
    caps = tuple(max(g[i] for g in gens) for i in range(r))
    found = set()
    for m in iproduct(*(range(c + 1) for c in caps)):
        if monomial_in(m, gens):
            continue
        cg = colon_by_monomial(gens, m)
        if cg and all(sum(v) == 1 for v in cg):
            found.add(tuple(sorted(i + 1 for v in cg for i in range(r) if v[i])))
    return frozenset(found)


def compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for head in range(n + 1):
        for rest in compositions(n - head, parts - 1):
            yield (head,) + rest


def in_power(m, gens, n):
    """m in I^n by direct search over generator multiplicities."""
    if n == 0:
        return True
    r = len(m)
    for alpha in compositions(n, len(gens)):
        total = tuple(sum(a * g[i] for a, g in zip(alpha, gens)) for i in range(r))
        if divides(total, m):
            return True
    return False


def solve_nonneg(cols, v):
    """Exact solve of sum(lam_j * cols[j]) = v with lam >= 0, or None.

    Dependent column sets are skipped; by Caratheodory a smaller subset
    covers any point they could reach.
    """
    e = len(v)
    k = len(cols)
    A = [[Fraction(cols[j][i]) for j in range(k)] + [Fraction(v[i])] for i in range(e)]
    row = 0
    for col in range(k):
        sel = next((i for i in range(row, e) if A[i][col]), None)
        if sel is None:
            return None
        A[row], A[sel] = A[sel], A[row]
        pivot = A[row][col]
        A[row] = [x / pivot for x in A[row]]
        for i in range(e):
            if i != row and A[i][col]:
                f = A[i][col]
                A[i] = [x - f * y for x, y in zip(A[i], A[row])]
        row += 1
    for i in range(row, e):
        if A[i][k]:
            return None
    lam = [A[i][k] for i in range(k)]
    if any(x < 0 for x in lam):
        return None
    return tuple(lam)


def in_nonneg_span(v, rays):
    """Is v a nonnegative rational combination of the rays?"""
    if not any(v):
        return True
    e = len(v)
    for k in range(1, min(len(rays), e) + 1):
        for subset in combinations(rays, k):
            if solve_nonneg(subset, v) is not None:
                return True
    return False


def decompose(v, gens, bases=None):
    """Write v as b + g1 + ... + gk with b from bases (the zero vector when
    bases is None) and each gi a nonzero member of gens, by exhaustive search.

    Returns (b, (g1, ..., gk)), or None when no such sum exists.  Every
    member is a nonnegative vector, so the search only subtracts divisors;
    the parts are taken in the order of gens, so no sum is tried twice.
    """
    gens = [g for g in gens if any(g)]

    @lru_cache(maxsize=None)
    def parts(rest, start):
        if not any(rest):
            return ()
        for k in range(start, len(gens)):
            if divides(gens[k], rest):
                tail = parts(tuple(a - b for a, b in zip(rest, gens[k])), k)
                if tail is not None:
                    return (gens[k],) + tail
        return None

    for b in [(0,) * len(v)] if bases is None else bases:
        if divides(b, v):
            found = parts(tuple(a - c for a, c in zip(v, b)), 0)
            if found is not None:
                return b, found
    return None


def _zeroed(gens, positions):
    return [tuple(0 if i in positions else e for i, e in enumerate(g)) for g in gens]


def scan_ass_witnesses(J):
    """The witness scan of `assprimes.ass_witnesses`, cell by cell.

    Cells run over the box bounded by the generator exponents in ascending
    lexicographic order; a cell outside J names the prime {i : m * x_i in J}
    and witnesses it unless its restriction to that support lies in the
    restriction of J.  Returns the first witness of each prime, in the order
    the witnesses are met.
    """
    r = J.r
    gens = J.generators
    caps = tuple(max(g[i] for g in gens) for i in range(r))
    found = {}
    for m in iproduct(*(range(c + 1) for c in caps)):
        if monomial_in(m, gens):
            continue
        prime = tuple(
            i + 1
            for i in range(r)
            if monomial_in(tuple(e + 1 if k == i else e for k, e in enumerate(m)), gens)
        )
        if not prime or prime in found:
            continue
        off_support = {i for i in range(r) if (i + 1) not in prime}
        if monomial_in(m, _zeroed(gens, off_support)):
            continue
        found[prime] = m
    return found


def power_gens(gens, n, r):
    """Generators (not minimized) of I^n: sums of n-element multisets."""
    if n == 0:
        return [(0,) * r]
    return list({tuple(map(sum, zip(*c))) for c in combinations_with_replacement(gens, n)})


def _scan_torsion(I, n):
    """The cells of I^n that lie in the (n+1)-st power of every
    single-variable deletion but not in I^(n+1), ascending lexicographically.

    The box spans every generator involved; a witness anywhere clamps into
    it.
    """
    r, gens = I.r, I.generators
    upper = power_gens(gens, n, r)
    lower = power_gens(gens, n + 1, r)
    deletions = [power_gens(_zeroed(gens, {j}), n + 1, r) for j in range(r)]
    everything = upper + lower + [g for D in deletions for g in D]
    box = [max(g[i] for g in everything) for i in range(r)]
    for v in iproduct(*(range(b + 1) for b in box)):
        if (
            monomial_in(v, upper)
            and not monomial_in(v, lower)
            and all(monomial_in(v, D) for D in deletions)
        ):
            yield v


def scan_max_ideal_in_ass(I, n):
    """The torsion test of `assprimes.max_ideal_in_ass`, cell by cell:
    whether `_scan_torsion` finds a cell."""
    return next(_scan_torsion(I, n), None) is not None


def scan_h0_witnesses(I, n):
    """The witnesses of `cohomology.h0_m_monomials`, cell by cell."""
    return tuple(_scan_torsion(I, n))


# -- ideal arithmetic on generator tuples ------------------------------------
#
# References for `brodmann.monomials`: each takes and returns plain lists of
# exponent tuples and decides minimality by pairwise divisibility alone.  The
# result is in the canonical order, descending lexicographically.


def minimal(gens):
    """The minimal generators of the ideal generated by gens, canonical order."""
    distinct = set(map(tuple, gens))
    return tuple(
        sorted(
            (v for v in distinct if not any(w != v and divides(w, v) for w in distinct)),
            reverse=True,
        )
    )


def unit(r):
    return ((0,) * r,)


def product_ref(A, B):
    return minimal(tuple(a + b for a, b in zip(g, h)) for g in A for h in B)


def power_ref(A, n, r):
    return minimal(power_gens(A, n, r))


def lcm_ref(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def intersect_ref(A, B):
    return minimal(lcm_ref(g, h) for g in A for h in B)


def colon_monomial_ref(A, m):
    return minimal(tuple(max(x - y, 0) for x, y in zip(g, m)) for g in A)


def colon_ideal_ref(A, B, r):
    """(A : B) as the intersection of A : h over the generators h of B."""
    acc = unit(r)
    for h in B:
        acc = intersect_ref(acc, colon_monomial_ref(A, h))
    return acc


def contains_ideal_ref(A, B):
    return all(monomial_in(h, A) for h in B)


def delete_variable_ref(A, j):
    return minimal(_zeroed(A, {j - 1}))


def generator_power_ref(A, m):
    return minimal(tuple(m * e for e in g) for g in A)


def cone_bound_ceils(rows, rhs):
    """Ceilings of bound_a1 (of the homogenized system) and, when b != 0,
    bound_a2, from their closed forms: e * prod(e-1 largest column norms) and
    (e + |b|) * prod(all column norms), an all-zero column counting as norm 1.
    The first is one isqrt; the second, e*sqrt(Q) + sqrt(|b|^2 Q), is read by
    mpmath at 60 digits past its size unless both terms are integers."""
    import mpmath

    e = len(rows[0])
    sq = [sum(row[j] ** 2 for row in rows) or 1 for j in range(e)]
    n_top = e * e
    for q in sorted(sq, reverse=True)[: e - 1]:
        n_top *= q
    out = {"bound_a1": isqrt(n_top - 1) + 1}  # ceil(sqrt(n)) for n >= 1
    b_sq = sum(b * b for b in rhs)
    if b_sq:
        n_all = 1
        for q in sq:
            n_all *= q
        x, y = isqrt(e * e * n_all), isqrt(b_sq * n_all)
        if x * x == e * e * n_all and y * y == b_sq * n_all:
            out["bound_a2"] = x + y
        else:
            with mpmath.workdps(60 + len(str(b_sq * n_all))):
                value = (e + mpmath.sqrt(b_sq)) * mpmath.sqrt(n_all)
                assert abs(value - mpmath.nint(value)) > mpmath.mpf(10) ** -30
                out["bound_a2"] = int(mpmath.ceil(value))
    return out


def _splits(v, first, second):
    """Is v = u + w for some u in the set first and w in the set second?"""
    return any(
        u in first and tuple(a - b for a, b in zip(v, u)) in second for u in iter_box(v)
    )


def hilbert_generators_ref(rows, e, cap):
    """The nonzero solutions of rows . v >= 0 in the box that are not the
    sum of two nonzero solutions in the box, in (degree, lex) order; the
    box is 0..min(cap, ceil(bound_a1)).  Needs at least one row."""
    rhs = (0,) * len(rows)
    box = min(cap, cone_bound_ceils(rows, rhs)["bound_a1"])
    nonzero = set(box_solutions(rows, rhs, e, box, {})) - {(0,) * e}
    irreducible = (v for v in nonzero if not _splits(v, nonzero, nonzero))
    return sorted(irreducible, key=lambda v: (sum(v), v))


def module_generators_ref(rows, rhs, e, cap):
    """The solutions of rows . v >= rhs in the box that are not a solution
    in the box plus a nonzero solution of rows . v >= 0 in the box, in
    (degree, lex) order: two scans of the box 0..min(cap, ceil(bound_a2)),
    or of 0..cap when rhs is zero.  Needs at least one row."""
    box = min(cap, cone_bound_ceils(rows, rhs).get("bound_a2", cap))
    sols = set(box_solutions(rows, rhs, e, box, {}))
    cone = set(box_solutions(rows, (0,) * len(rows), e, box, {})) - {(0,) * e}
    return sorted((v for v in sols if not _splits(v, sols, cone)), key=lambda v: (sum(v), v))


def is_prime(n):
    """Miller-Rabin on the first 12 prime bases: exact for n < 3.3e24."""
    assert n < 3 * 10**24
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x not in (1, n - 1) and all(pow(x, 2**i, n) != n - 1 for i in range(1, s)):
            return False
    return True
