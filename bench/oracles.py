"""Reference answers for the benchmark's output checks.

Every check reaches its answer by a different route than the library code
it checks, and imports nothing from ``brodmann``:

* associated primes straight from the colon definition ``P = J : m`` over
  the generator box, vectorized with numpy instead of the library's
  upward-closure sweep and masked tables;
* Ratliff-Rush closures from the definition ``union_m I^(n+m) : I^m``
  (colons by whole powers, not by generator powers) on numpy membership
  boxes;
* extreme rays by a Fraction rank test on the tight constraints;
* norm bounds and thresholds in mpmath at high precision, with integer
  square roots deciding the rare value that lands within rounding of an
  integer;
* feasibility witnesses by substitution, infeasibility by exhaustive search.

The pure-Python monomial helpers at the top also serve input generation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product as iproduct
from math import gcd, isqrt

Vec = tuple[int, ...]


# -- monomial helpers --------------------------------------------------------


def divides(a: Vec, b: Vec) -> bool:
    return all(x <= y for x, y in zip(a, b))


def minimal(gens) -> tuple[Vec, ...]:
    """Minimal generators, descending lexicographic (the library's order)."""
    kept: list[Vec] = []
    for v in sorted(set(gens), key=lambda t: (sum(t), t)):
        if not any(divides(k, v) for k in kept):
            kept.append(v)
    return tuple(sorted(kept, reverse=True))


def minimal_box(points) -> tuple[Vec, ...]:
    """Minimal elements of a set of exponent vectors, read off a numpy
    membership box: cells in the ideal none of whose predecessors are."""
    import numpy as np

    points = list(points)
    t = member_table(points, caps_of(points))
    lower = np.zeros_like(t)
    for axis in range(t.ndim):
        ahead = [slice(None)] * t.ndim
        ahead[axis] = slice(1, None)
        behind = [slice(None)] * t.ndim
        behind[axis] = slice(None, -1)
        lower[tuple(ahead)] |= t[tuple(behind)]
    return tuple(sorted(map(tuple, np.argwhere(t & ~lower).tolist()), reverse=True))


def powers(gens: tuple[Vec, ...], k_max: int, reduce=minimal_box) -> list[tuple[Vec, ...]]:
    """Minimal generators of I^0 .. I^k_max, each as I^k = I^(k-1) * I.

    reduce=minimal keeps numpy out of the process, for use before timing."""
    r = len(gens[0])
    out = [((0,) * r,)]
    for _ in range(k_max):
        out.append(reduce({tuple(a + b for a, b in zip(x, g)) for x in out[-1] for g in gens}))
    return out


def caps_of(gens) -> Vec:
    return tuple(max(g[i] for g in gens) for i in range(len(gens[0])))


# -- associated primes -------------------------------------------------------


def ass_by_colon(gens: tuple[Vec, ...]) -> frozenset[Vec]:
    """Ass(R/J) for J = (gens): every P with P = J : m, m in the generator box.

    For each box point m the colon J : m is generated by max(g - m, 0) over
    the generators g.  It is a prime P exactly when no colon generator is 1
    (m outside J), the unit vectors among the colon generators name P, and
    every colon generator involves a variable of P.
    """
    import numpy as np

    G = np.array(gens, dtype=np.int32)
    r = G.shape[1]
    axes = [np.arange(c + 1, dtype=np.int32) for c in caps_of(gens)]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, r)
    found: set[Vec] = set()
    chunk = max(1, 400_000 // (len(gens) * r))
    for lo in range(0, len(pts), chunk):
        M = pts[lo : lo + chunk]
        D = np.maximum(G[None, :, :] - M[:, None, :], 0)
        pos = D > 0
        outside = pos.any(axis=2).all(axis=1)
        unit = (D.sum(axis=2) == 1)[:, :, None] & pos
        P = unit.any(axis=1)
        covered = (pos & P[:, None, :]).any(axis=2).all(axis=1)
        hit = outside & covered & P.any(axis=1)
        for row in np.unique(P[hit], axis=0):
            found.add(tuple(i + 1 for i in range(r) if row[i]))
    return frozenset(found)


def stable_at(entries: list) -> int | None:
    """Smallest n0 whose tail is constant, needing two equal entries."""
    n_max = len(entries) - 1
    at = n_max
    while at > 0 and entries[at - 1] == entries[n_max]:
        at -= 1
    return None if at == n_max else at


def non_monotone(entries: list) -> list[int]:
    return [
        n
        for n in range(len(entries) - 1)
        if not entries[n] <= entries[n + 1] and not entries[n] >= entries[n + 1]
    ]


# -- Ratliff-Rush closures and a0 --------------------------------------------


def member_table(gens, box: Vec):
    """Boolean membership of the ideal (gens) over the box 0..box."""
    import numpy as np

    t = np.zeros(tuple(b + 1 for b in box), dtype=bool)
    for g in gens:
        if divides(g, box):
            t[g] = True
    for axis in range(len(box)):
        np.logical_or.accumulate(t, axis=axis, out=t)
    return t


def _shifted(table, g: Vec):
    """table[min(u + g, box)] for every u in the box."""
    import numpy as np

    idx = [np.minimum(np.arange(n) + s, n - 1) for n, s in zip(table.shape, g)]
    return table[np.ix_(*idx)]


class ClosureOracle:
    """Ratliff-Rush closures of the powers of one ideal, by definition.

    closure(n) is I^n joined with I^(n+m) : I^m for m = 1..m_top, computed
    on the box of I^(n_top + m_top), which holds every minimal generator of
    every ideal involved.  A box point u lies in J : K exactly when u + k
    lies in J for every generator k of K; points past the box clamp to its
    edge without changing J-membership.
    """

    def __init__(self, gens: tuple[Vec, ...], n_top: int, m_top: int):
        self.m_top = m_top
        self.pw = powers(gens, n_top + m_top)
        self.box = caps_of(self.pw[-1])
        self._tables: dict[int, object] = {}
        self._closures: dict[int, object] = {}

    def table(self, k: int):
        if k not in self._tables:
            self._tables[k] = member_table(self.pw[k], self.box)
        return self._tables[k]

    def closure(self, n: int):
        if n not in self._closures:
            acc = self.table(n).copy()
            for m in range(1, self.m_top + 1):
                big = self.table(n + m)
                colon = None
                for k in self.pw[m]:
                    s = _shifted(big, k)
                    colon = s if colon is None else colon & s
                acc |= colon
            self._closures[n] = acc
        return self._closures[n]

    def same_ideal(self, n: int, gens) -> bool:
        """Whether (gens) is the closure of I^n."""
        gens = [tuple(g) for g in gens]
        if not gens or not all(divides(g, self.box) for g in gens):
            return False
        import numpy as np

        return bool(np.array_equal(member_table(gens, self.box), self.closure(n)))

    def a0_flags(self, n_max: int) -> list[bool]:
        """flags[k]: closure(I^(k+1)) meets I^k outside I^(k+1)."""
        return [
            bool((self.closure(n) & self.table(n - 1) & ~self.table(n)).any())
            for n in range(1, n_max + 1)
        ]


# -- constraint systems ------------------------------------------------------


def designated(gens: tuple[Vec, ...]) -> int:
    """Index of the generator with the largest support (at least 2), first wins."""
    best, best_support = None, 1
    for i, g in enumerate(gens):
        sup = sum(1 for e in g if e)
        if sup > best_support:
            best, best_support = i, sup
    if best is None:
        raise ValueError("no generator with two or more variables")
    return best


def ed_system(gens: tuple[Vec, ...], mode: str):
    """The ED1/ED2 membership system of an ideal: (labels, rows, rhs).

    Variables are z, y_j (j = 1..r), x_k (k < s) and x_i_k.  The designated
    generator a_s is moved last.  Rows, in order: for each j,
    -a_s[j] z + y_j + sum_k (a_s[j] - a_k[j]) x_k >= -a_s[j]; then
    z - sum_k x_k >= 1; then for each i and each j != i,
    -a_s[j] z + y_j + sum_k (a_s[j] - a_k[j]) x_i_k >= 0; then for each i,
    z - sum_k x_i_k >= 0.  ED2 zeroes every right-hand side.
    """
    last = designated(gens)
    a = [g for i, g in enumerate(gens) if i != last] + [gens[last]]
    r, s = len(a[0]), len(a)
    a_s = a[-1]
    labels = (
        ["z"]
        + [f"y{j}" for j in range(1, r + 1)]
        + [f"x{k}" for k in range(1, s)]
        + [f"x{i}_{k}" for i in range(1, r + 1) for k in range(1, s)]
    )
    col = {name: c for c, name in enumerate(labels)}
    rows, rhs = [], []

    def row(entries: dict[str, int], b: int) -> None:
        v = [0] * len(labels)
        for name, c in entries.items():
            v[col[name]] += c
        rows.append(tuple(v))
        rhs.append(b)

    for j in range(1, r + 1):
        e = {"z": -a_s[j - 1], f"y{j}": 1}
        e.update({f"x{k}": a_s[j - 1] - a[k - 1][j - 1] for k in range(1, s)})
        row(e, -a_s[j - 1])
    row({"z": 1, **{f"x{k}": -1 for k in range(1, s)}}, 1)
    for i in range(1, r + 1):
        for j in range(1, r + 1):
            if j != i:
                e = {"z": -a_s[j - 1], f"y{j}": 1}
                e.update(
                    {f"x{i}_{k}": a_s[j - 1] - a[k - 1][j - 1] for k in range(1, s)}
                )
                row(e, 0)
    for i in range(1, r + 1):
        row({"z": 1, **{f"x{i}_{k}": -1 for k in range(1, s)}}, 0)
    if mode == "ED2":
        rhs = [0] * len(rhs)
    return tuple(labels), tuple(rows), tuple(rhs)


def satisfies(rows, rhs, v: Vec) -> bool:
    return all(c >= 0 for c in v) and all(
        sum(a * x for a, x in zip(row, v)) >= b for row, b in zip(rows, rhs)
    )


def rank(vectors) -> int:
    """Rank over the rationals by Gaussian elimination on Fractions."""
    m = [[Fraction(c) for c in v] for v in vectors]
    rk = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rk, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for i in range(len(m)):
            if i != rk and m[i][c] != 0:
                f = m[i][c] / m[rk][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rk])]
        rk += 1
    return rk


def is_extreme_ray(rows, v: Vec) -> bool:
    """v is a primitive nonzero cone point whose tight constraints (rows
    and coordinate hyperplanes) have rank e - 1."""
    e = len(v)
    if not any(v) or not satisfies(rows, (0,) * len(rows), v):
        return False
    g = 0
    for c in v:
        g = gcd(g, c)
    if g != 1:
        return False
    tight = [row for row in rows if sum(a * x for a, x in zip(row, v)) == 0]
    tight += [tuple(int(i == j) for i in range(e)) for j in range(e) if v[j] == 0]
    return bool(tight) and rank(tight) == e - 1


def solutions_in_box(rows, rhs, e: int, box: int, fixed: dict[int, int]):
    free = [i for i in range(e) if i not in fixed]
    for combo in iproduct(range(box + 1), repeat=len(free)):
        v = [0] * e
        for i, x in fixed.items():
            v[i] = x
        for i, x in zip(free, combo):
            v[i] = x
        if satisfies(rows, rhs, v):
            yield tuple(v)


# -- radicals: ceilings by mpmath --------------------------------------------


def _mp_round(value, exact_if_integer, up: bool) -> int:
    """Ceiling (up) or floor of an mpmath value; exact_if_integer() returns
    the value as an int when it is one, and settles near-integers."""
    import mpmath

    nearest = int(mpmath.nint(value))
    if abs(value - nearest) < mpmath.mpf(10) ** (-(mpmath.mp.dps // 2)):
        exact = exact_if_integer()
        if exact is not None:
            return exact
    return int(mpmath.ceil(value) if up else mpmath.floor(value))


def _exact_sqrt(n: int) -> int | None:
    s = isqrt(n)
    return s if s * s == n else None


def _dps_for(*magnitudes: int) -> int:
    """Working precision: 40 digits beyond the largest square root involved."""
    return 40 + max(abs(m).bit_length() for m in magnitudes) * 3 // 20


def cone_bound_ceils(rows, rhs) -> dict[str, int]:
    """Ceilings of bound_a1 (of the homogenized system) and, for b != 0,
    bound_a2: e * prod(e-1 largest column norms) and
    (e + |b|) * prod(all column norms), zero columns counting as norm 1."""
    import mpmath

    e = len(rows[0])
    sq = [sum(row[j] ** 2 for row in rows) or 1 for j in range(e)]
    top = sorted(sq, reverse=True)[: e - 1]
    b_sq = sum(b * b for b in rhs)
    n_top = e * e
    for q in top:
        n_top *= q
    n_all = 1
    for q in sq:
        n_all *= q
    with mpmath.workdps(_dps_for(n_top, n_all * e * e * max(b_sq, 1))):
        out = {
            "bound_a1": _mp_round(mpmath.sqrt(n_top), lambda: _exact_sqrt(n_top), True)
        }
        if any(rhs):

            def exact_a2():
                # e*sqrt(Q) + sqrt(B*Q) is an integer only if both terms are
                x, y = _exact_sqrt(n_all * e * e), _exact_sqrt(n_all * b_sq)
                return None if x is None or y is None else x + y

            value = (e + mpmath.sqrt(b_sq)) * mpmath.sqrt(n_all)
            out["bound_a2"] = _mp_round(value, exact_a2, True)
    return out


def b2(r: int, s: int, d: int) -> int:
    """B2 = s (s+r)^4 s^(r+2) d^2 (2d^2)^(s^2-s+1), an integer."""
    return s * (s + r) ** 4 * s ** (r + 2) * d * d * (2 * d * d) ** (s * s - s + 1)


def threshold_values(r: int, s: int, d: int) -> dict[str, int]:
    """The integer readings of B1..B4 and B for (r, s, d).

    B1 = d(rs+s+d) sqrt(r)^(r+1) (sqrt(2) d)^((r+1)(s-1)), B2 as above,
    B3 = (s+r)^2 d (sqrt(2) d)^(s^2-s+1) sqrt(s)^(r+2) - 1, B4 = ceil(s B3),
    B = max(B1, B2).
    """
    import mpmath

    b2_value = b2(r, s, d)
    n1 = (d * (r * s + s + d)) ** 2 * r ** (r + 1) * (2 * d * d) ** ((r + 1) * (s - 1))
    n3 = ((s + r) ** 2 * d) ** 2 * (2 * d * d) ** (s * s - s + 1) * s ** (r + 2)
    with mpmath.workdps(_dps_for(n1, n3 * s * s)):
        b1 = mpmath.sqrt(n1)
        bracket = mpmath.sqrt(n3)
        b1_ceil = _mp_round(b1, lambda: _exact_sqrt(n1), True)
        bracket_ceil = _mp_round(bracket, lambda: _exact_sqrt(n3), True)
        bracket_floor = _mp_round(bracket, lambda: _exact_sqrt(n3), False)
        s_bracket_ceil = _mp_round(s * bracket, lambda: _exact_sqrt(n3 * s * s), True)
    return {
        "b1_ceil": b1_ceil,
        "b2": b2_value,
        "b3_ceil": bracket_ceil - 1,
        "b3_floor_reading": bracket_floor - 1,
        "b4": s_bracket_ceil - s,
        "b_ceil": max(b1_ceil, b2_value),
    }


# -- number theory for input generation ----------------------------------------


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, k = n - 1, 0
    while d % 2 == 0:
        d //= 2
        k += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(k - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
