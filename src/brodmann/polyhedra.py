"""Rational cones cut out by integer constraints, and their generators.

A ConstraintSystem is A*x >= b together with implicit x >= 0.  The module
computes extreme rays through signed cofactors of (e-1)-row subsystems,
certified star-norm bounds for semigroup and module generators (kept exact
as radicals, never floats), desk-scale Hilbert-basis and module-generator
enumeration charged to the enumeration budget, the specific constraint
systems used for power membership and closure membership of a monomial
ideal, and a bounded exhaustive feasibility search.

Pruned box scans: the generator enumerations and the feasibility search
list the solutions in a box through one depth-first scan, _box_solutions.
It drops a prefix as soon as some row can no longer reach its right-hand
side, which no completion inside the box could change, so it finds the
same solutions in the same order as testing every box point.  The budget
is still charged the whole box up front.

One reduction, _irreducible, serves both generator enumerations: a boxed
solution v, taken in (degree, lex) order, is kept unless v = g + c for a
kept g and a nonzero point c of the cone A*x >= 0.  One kept summand
suffices because the cone is closed under addition; and a cone point below
a boxed solution is boxed, so module generators scan one box.

The ED systems of build_system are made of blocks, _ed_block: s-1
product-count columns, a row per variable and a sum row.  ED1/ED2 take a
block over every variable, then for each variable i a block that leaves i
out, with these r sum rows last.  ED3 takes a block over every variable
for each generator, with the extra column x.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from math import comb, gcd

from .errors import ED_MODES, InconsistencyError, InputError, charge_budget, is_int, require_count
from .monomials import MonomialIdeal, is_pure_power, require_proper_nonzero
from .radicals import ExactRadical, RadicalSum

IntVector = tuple[int, ...]


def norm_sq(v: IntVector) -> int:
    return sum(c * c for c in v)


@dataclass(frozen=True)
class ConstraintSystem:
    """Integer constraints A*x >= b over e variables, all implicitly >= 0,
    held as tuples of ints (not bools) and labels as a tuple of strs."""

    e: int
    rows: tuple[IntVector, ...]
    rhs: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        e, rows, rhs, labels = self.e, self.rows, self.rhs, self.labels
        require_count(e, 1, "variable count")
        if not (type(rows) is type(rhs) is tuple) or len(rows) != len(rhs):
            raise InputError("rows and right-hand sides must be tuples of one length")
        for row in rows:
            if type(row) is not tuple or len(row) != e or not all(map(is_int, row)):
                raise InputError(f"row {row!r} is not a tuple of {e} integers")
        if not all(map(is_int, rhs)):
            raise InputError(f"non-integer right-hand side in {rhs}")
        if labels is not None:
            if type(labels) is not tuple or len(labels) != e or not all(
                type(x) is str for x in labels
            ):
                raise InputError(f"labels must be a tuple of {e} strings, got {labels!r}")
            if len(set(labels)) != e:
                raise InputError(f"variable labels must be distinct, got {' '.join(labels)}")

    def is_homogeneous(self) -> bool:
        return all(b == 0 for b in self.rhs)

    def homogenized(self) -> "ConstraintSystem":
        return ConstraintSystem(self.e, self.rows, (0,) * len(self.rows), self.labels)

    def satisfies(self, v: IntVector) -> bool:
        if len(v) != self.e or any(c < 0 for c in v):
            return False
        return all(
            sum(a * x for a, x in zip(row, v)) >= b
            for row, b in zip(self.rows, self.rhs)
        )

    def column(self, j: int) -> IntVector:
        return tuple(row[j] for row in self.rows)


def _det(mat: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free Gaussian elimination."""
    n = len(mat)
    if n == 0:
        return 1
    m = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _primitive(v: IntVector) -> IntVector:
    g = 0
    for c in v:
        g = gcd(g, c)
    return tuple(c // g for c in v) if g else v


def extreme_rays(sys: ConstraintSystem) -> list[IntVector]:
    """Extreme rays of the homogeneous cone, as primitive integer vectors.

    Each ray spans the null space of some e-1 rows chosen among the
    constraint rows and the coordinate hyperplanes; the null vector comes
    from signed cofactor determinants, is oriented into the nonnegative
    orthant, reduced to primitive form, and kept when it satisfies the whole
    system.
    """
    if not sys.is_homogeneous():
        raise InputError("extreme rays require a homogeneous system")
    e = sys.e
    candidates = list(sys.rows)
    for i in range(e):
        candidates.append(tuple(1 if j == i else 0 for j in range(e)))
    n = len(candidates)
    charge_budget(comb(n, e - 1), "ray subsystem enumeration", unit="subsystems")
    rays: set[IntVector] = set()
    for combo in itertools.combinations(range(n), e - 1):
        chosen = [candidates[i] for i in combo]
        u = []
        flip = 1
        for j in range(e):
            minor = [[row[c] for c in range(e) if c != j] for row in chosen]
            u.append(flip * _det(minor))
            flip = -flip
        if not any(u):
            continue
        if any(c > 0 for c in u) and any(c < 0 for c in u):
            continue
        if any(c < 0 for c in u):
            u = [-c for c in u]
        ray = _primitive(tuple(u))
        if sys.satisfies(ray):
            rays.add(ray)
    return sorted(rays)


def _column_norms(sys: ConstraintSystem) -> list[ExactRadical]:
    """Euclidean column norms, with all-zero columns counted as norm 1."""
    norms = []
    for j in range(sys.e):
        q = norm_sq(sys.column(j))
        norms.append(ExactRadical.sqrt_of(q) if q else ExactRadical.of_fraction(1))
    return norms


def bound_a1(sys: ConstraintSystem) -> ExactRadical:
    """Certified star-norm bound for semigroup generators of a homogeneous cone.

    e times the product of the e-1 largest column norms, exact.  The bound
    is valid in non-strict form; see the tests for where strictness holds.
    """
    if not sys.is_homogeneous():
        raise InputError("this bound applies to homogeneous systems")
    norms = sorted(_column_norms(sys), key=lambda x: x.square(), reverse=True)
    out = ExactRadical.of_fraction(sys.e)
    for x in norms[: sys.e - 1]:
        out = out * x
    return out


def bound_a2(sys: ConstraintSystem) -> RadicalSum:
    """Certified star-norm bound for module generators of an inhomogeneous system.

    (e + |b|) times the product of all e column norms, kept exact as a sum
    of at most two radical terms.
    """
    prod = ExactRadical.of_fraction(1)
    for x in _column_norms(sys):
        prod = prod * x
    b_norm = ExactRadical.sqrt_of(norm_sq(sys.rhs))
    return RadicalSum.of(prod * sys.e, prod * b_norm)


def _box_solutions(
    sys: ConstraintSystem, box: int, pinned: dict[int, int] | None = None
) -> Iterator[IntVector]:
    """Solutions whose unpinned coordinates lie in 0..box, in ascending
    lexicographic order; pinned coordinates keep their given values.

    The search is depth-first over the unpinned coordinates in index order,
    with the pinned values folded into the right-hand sides up front.
    need[r] is what row r still asks of the coordinates not yet assigned,
    and reach[i][r] is the most that the i-th unpinned coordinate and those
    after it can add to row r: box times each positive coefficient.  A value
    x at level i keeps a prefix alive only if a*x + reach[i+1][r] >= need[r]
    for every row r with coefficient a, which confines x to one interval.
    Any x outside it leaves some row short under every completion, so no
    solution is dropped.  At the last level nothing is left to add, so
    the interval holds exactly the values that meet every row, and each
    point yielded is a solution.
    """
    pinned = pinned or {}
    free = [k for k in range(sys.e) if k not in pinned]
    v = [pinned.get(k, 0) for k in range(sys.e)]
    need = [b - sum(a * x for a, x in zip(row, v)) for row, b in zip(sys.rows, sys.rhs)]
    reach = [[0] * len(need)]
    for k in reversed(free):
        reach.append([c + box * max(row[k], 0) for c, row in zip(reach[-1], sys.rows)])
    reach.reverse()
    if any(n > c for n, c in zip(need, reach[0])):
        return
    if not free:
        yield tuple(v)
        return
    # per level, the rows the coordinate enters: (row, coefficient, reach after it)
    cols = [
        [(r, row[k], reach[i + 1][r]) for r, row in enumerate(sys.rows) if row[k]]
        for i, k in enumerate(free)
    ]
    last = len(free) - 1
    his = [0] * len(free)
    i = 0
    while i >= 0:
        lo, hi = 0, box
        for r, a, c in cols[i]:
            t = need[r] - c
            if a < 0:
                # a adds nothing to reach, so need[r] <= reach[i][r] == c:
                # t <= 0 and t // a >= 0
                hi = min(hi, t // a)
            elif t > 0:
                lo = max(lo, -(-t // a))
        k = free[i]
        if i == last:
            for x in range(lo, hi + 1):
                v[k] = x
                yield tuple(v)
        elif lo <= hi:
            v[k] = lo
            his[i] = hi
            for r, a, _ in cols[i]:
                need[r] -= a * lo
            i += 1
            continue
        # step the deepest open level that has a next value, undoing the spent ones
        i -= 1
        while i >= 0:
            k = free[i]
            if v[k] < his[i]:
                v[k] += 1
                for r, a, _ in cols[i]:
                    need[r] -= a
                i += 1
                break
            for r, a, _ in cols[i]:
                need[r] += a * v[k]
            i -= 1


def _solutions_in_box(sys: ConstraintSystem, box: int, what: str) -> list[IntVector]:
    charge_budget((box + 1) ** sys.e, what)
    return sorted(_box_solutions(sys, box), key=lambda v: (sum(v), v))


def _irreducible(sols: list[IntVector], cone: ConstraintSystem) -> list[IntVector]:
    """The members v of sols, given in (degree, lex) order, that are not
    g + c for a kept member g and a nonzero point c of the cone.

    Kept members alone suffice: if v = u + w for an earlier member u and a
    nonzero cone point w, then u was kept, or u = g + c for a kept g, and
    v = g + (c + w) with c + w a nonzero cone point.  Such a g has a lower
    degree than v, so the test stops at the first kept member that does not.
    """
    kept: list[IntVector] = []
    for v in sols:
        below = itertools.takewhile(lambda g: sum(g) < sum(v), kept)
        if not any(
            all(a <= b for a, b in zip(g, v))
            and cone.satisfies(tuple(b - a for a, b in zip(g, v)))
            for g in below
        ):
            kept.append(v)
    return kept


def hilbert_generators(sys: ConstraintSystem, cap: int) -> list[IntVector]:
    """Irreducible nonzero solutions of a homogeneous system inside the box.

    The box is the smaller of cap and the certified bound ceiling.  A
    solution is irreducible when it is not the sum of two nonzero solutions
    in the box; the returned list generates every boxed solution.
    """
    if not sys.is_homogeneous():
        raise InputError("semigroup generators require a homogeneous system")
    require_count(cap, 1, "cap")
    box = min(cap, bound_a1(sys).ceil())
    sols = _solutions_in_box(sys, box, "semigroup generator box")
    return _irreducible([v for v in sols if any(v)], sys)


def module_generators(sys: ConstraintSystem, cap: int) -> list[IntVector]:
    """Boxed solutions not reachable as (solution) + (nonzero cone point).

    For b = 0 the zero vector alone generates.  Together with the
    homogenized system's semigroup generators, the result reaches every
    solution in the box.  A cone point below a boxed solution is boxed, so
    the scan of the system's own solutions is the only one.
    """
    require_count(cap, 1, "cap")
    if sys.is_homogeneous():
        return [(0,) * sys.e]
    box = min(cap, bound_a2(sys).ceil())
    sols = _solutions_in_box(sys, box, "module generator box")
    return _irreducible(sols, sys.homogenized())


def staircase_system(e: int, d: int) -> ConstraintSystem:
    """The chain of constraints d*x_k >= x_(k+1), whose cone has the ray
    (1, d, d^2, ..., d^(e-1))."""
    if not (is_int(e) and is_int(d)):
        raise InputError(f"need integer e and d, got {e!r} and {d!r}")
    if e < 1 or d < 1:
        raise InputError("need e >= 1 and d >= 1")
    rows = []
    for k in range(e - 1):
        row = [0] * e
        row[k] = d
        row[k + 1] = -1
        rows.append(tuple(row))
    return ConstraintSystem(e, tuple(rows), (0,) * len(rows))


def designated_generator(I: MonomialIdeal) -> int:
    """Index (into I.generators) of the generator pinned as the last one.

    The chosen generator must have at least two nonzero exponents; among
    those, the one with the largest support wins, ties broken by canonical
    generator order.  Pure-power ideals have no qualifying generator.
    """
    require_proper_nonzero(I)
    if is_pure_power(I):
        raise InputError(
            "every generator is a single-variable power; constraint systems "
            "are refused for these ideals because the associated-primes "
            "pure-power fast path answers directly"
        )
    best = None
    best_support = -1
    for idx, g in enumerate(I.generators):
        sup = sum(1 for e in g if e)
        if sup >= 2 and sup > best_support:
            best = idx
            best_support = sup
    assert best is not None
    return best


def _norm_assert(cond: bool, what: str, detail: dict) -> None:
    if not cond:
        raise InconsistencyError(f"column norm bookkeeping failed: {what}", payload=detail)


def _ed_block(
    gens: list[IntVector], x: list[str], js: Iterable[int], a_i: IntVector | None = None
) -> list[dict[str, int]]:
    """One block of an ED system, as rows keyed by column label.

    x labels the block's s-1 product-count columns x_1..x_(s-1).  Each
    variable j in js (0-based) gets the row -a_sj*z + y_j + sum_k
    (a_sj - a_kj)*x_k, and the block ends with its sum row z - sum_k x_k.
    Given a_i (ED3), the column x enters the j-th row as (a_ij - a_sj)*x
    and the sum row as +x.
    """
    a_s = gens[-1]
    rows = []
    for j in js:
        row = {"z": -a_s[j], f"y{j + 1}": 1}
        if a_i is not None:
            row["x"] = a_i[j] - a_s[j]
        row.update((lab, a_s[j] - g[j]) for lab, g in zip(x, gens))
        rows.append(row)
    total = {"z": 1, **dict.fromkeys(x, -1)}
    if a_i is not None:
        total["x"] = 1
    return rows + [total]


def build_system(I: MonomialIdeal, mode: str) -> ConstraintSystem:
    """Constraint system whose integer solutions encode membership questions.

    Mode ED1: with z = n and y = b it is feasible exactly when t^b lies in
    I^(n-1) and in the n-th power of every single-variable deletion of I,
    that is in I^(n-1) ∩ ⋂_i (I^n : x_i^inf).  Its first block divides t^b
    by a product of z - 1 generators, its sum row leaving the designated
    one z - 1 - Σ x_k of them; block i divides it by a product of z
    generators with x_i set to 1.  Every x column is at most z.  So with
    z = n + 1 the solutions with t^b outside I^(n+1) are the maximal-ideal
    torsion of I^n/I^(n+1), the witnesses of `h0_m_monomials(I, n)`.

    Mode ED2 is the homogenization of ED1.  Mode ED3: solutions with z = n
    and y = b say that b's monomial lies in the closure union of colons of
    I^(n+m) by m-th generator powers.  The designated last generator and
    the variable layout are fixed and deterministic; squared column norms
    are asserted against their theoretical limits on every build.
    """
    mode = mode.upper()
    if mode not in ED_MODES:
        raise InputError(f"mode must be one of {ED_MODES}, got {mode!r}")
    last = designated_generator(I)
    gens = [g for i, g in enumerate(I.generators) if i != last]
    gens.append(I.generators[last])
    r = I.r
    s = len(gens)
    d = max(sum(g) for g in gens)
    blocks = s if mode == "ED3" else r
    ys = [f"y{j}" for j in range(1, r + 1)]
    xs = [[f"x{i}_{k}" for k in range(1, s)] for i in range(1, blocks + 1)]

    if mode == "ED3":
        labels = ["z", "x", *ys, *itertools.chain(*xs)]
        rows = [row for a_i, x in zip(gens, xs) for row in _ed_block(gens, x, range(r), a_i)]
    else:
        x1 = [f"x{k}" for k in range(1, s)]
        labels = ["z", *ys, *x1, *itertools.chain(*xs)]
        rest = [_ed_block(gens, x, [j for j in range(r) if j != i]) for i, x in enumerate(xs)]
        rows = _ed_block(gens, x1, range(r))
        rows += [row for block in rest for row in block[:-1]] + [block[-1] for block in rest]
    rhs = [0] * len(rows)
    if mode == "ED1":
        rhs[: r + 1] = [-c for c in gens[-1]] + [1]
    col = {lab: c for c, lab in enumerate(labels)}
    dense = [[0] * len(labels) for _ in rows]
    for v, row in zip(dense, rows):
        for lab, a in row.items():
            v[col[lab]] = a
    sys = ConstraintSystem(len(labels), tuple(map(tuple, dense)), tuple(rhs), tuple(labels))
    detail = {"mode": mode, "r": r, "s": s, "d": d}
    for lab, column in zip(labels, zip(*dense)):
        q = norm_sq(column)
        if lab[0] == "y":
            ok = q == blocks
        elif lab == "z":
            ok = q < blocks * d * d
        elif lab == "x":
            ok = q < 2 * s * d * d
        else:
            ok = q < 2 * d * d
        _norm_assert(ok, f"{lab} column", detail)
    if mode == "ED1":
        _norm_assert(norm_sq(sys.rhs) < d * d, "free coefficients", detail)
    return sys


def solve_feasible(
    sys: ConstraintSystem, fixed: dict[str | int, int], box: int
) -> IntVector | None:
    """First integer solution with the fixed coordinates, or None.

    Fixed keys are variable labels (when the system has labels) or 0-based
    indices, and fixed values are nonnegative ints (not bools); a fixed
    value may lie past the box.  The unfixed coordinates range over 0..box,
    and the answer is the lexicographically first solution there.  The
    search is refused upfront when the lattice box exceeds the budget,
    although the pruned scan drops every prefix that some row can no
    longer meet and so visits fewer points.
    """
    require_count(box, 0, "box")
    assignment: dict[int, int] = {}
    for key, value in fixed.items():
        if isinstance(key, str):
            if not sys.labels or key not in sys.labels:
                raise InputError(f"unknown variable label {key!r}")
            idx = sys.labels.index(key)
        elif isinstance(key, int) and not isinstance(key, bool):
            idx = key
        else:
            raise InputError(f"variable key {key!r} is not a label or a 0-based index")
        if not 0 <= idx < sys.e:
            raise InputError(f"variable index {idx} out of range")
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise InputError(f"fixed value for index {idx} must be a nonnegative integer")
        if idx in assignment and assignment[idx] != value:
            raise InputError(f"conflicting assignments for variable index {idx}")
        assignment[idx] = value
    charge_budget((box + 1) ** (sys.e - len(assignment)), "feasibility search")
    return next(_box_solutions(sys, box, assignment), None)
