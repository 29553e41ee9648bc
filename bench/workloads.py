"""Seeded input pools for the three workloads, and the output check of every op.

A pool is the list of CLI operations one pass of a workload runs.  Every op
has its own input file (text and ``.json`` files alternate so that both
parsers run), and the same seed writes byte-identical files.  A run repeats
whole passes, so every run sees the same mix of operations.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from math import ceil
from pathlib import Path
from typing import Callable

import oracles as ref

Vec = tuple[int, ...]


@dataclass
class Op:
    """One CLI call.  check(stdout, cache) returns an error string or None;
    cache is shared by the ops of one run so oracle answers are computed once."""

    kind: str
    argv: list[str]
    check: Callable[[str, dict], str | None]
    expect_failure: bool = False


@dataclass
class Workload:
    name: str
    # Passes repeat the same ops, so sorted latencies come in groups, one per
    # op.  tail_q puts the tail rank in the middle of a group, pool * (1 - q)
    # close to k + 0.5, where noise cannot flip it to a neighbouring op.
    tail_q: float
    ops: list[Op] = field(default_factory=list)

    @property
    def min_ops(self) -> int:
        """Fewest ops that leave at least 10 samples beyond the tail percentile."""
        n = 10
        while n - ceil(self.tail_q * n) < 10:
            n += 1
        return n


# -- writing inputs ----------------------------------------------------------


def _monomial(g: Vec) -> str:
    parts = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(g) if e]
    return " ".join(parts) or "1"


def write_ideal(path: Path, gens: tuple[Vec, ...]) -> str:
    if path.suffix == ".json":
        text = json.dumps({"r": len(gens[0]), "generators": [list(g) for g in gens]})
    else:
        text = f"vars: {len(gens[0])}\n" + "".join(_monomial(g) + "\n" for g in gens)
    path.write_text(text)
    return str(path)


def write_system(path: Path, labels, rows, rhs) -> str:
    if path.suffix == ".json":
        obj = {"e": len(rows[0]), "rows": [list(r) for r in rows], "rhs": list(rhs)}
        if labels:
            obj["labels"] = list(labels)
        text = json.dumps(obj)
    else:
        lines = [f"vars: {len(rows[0])}"]
        if labels:
            lines.append("labels: " + " ".join(labels))
        lines += [" ".join(map(str, r)) + f" >= {b}" for r, b in zip(rows, rhs)]
        text = "\n".join(lines) + "\n"
    path.write_text(text)
    return str(path)


class _Files:
    """Distinct file names in one directory; the suffix alternates by a coin."""

    def __init__(self, root: Path, rng: random.Random):
        self.root, self.rng, self.n = root, rng, 0

    def __call__(self, stem: str) -> Path:
        self.n += 1
        return self.root / f"{self.n:04d}-{stem}{self.rng.choice(('.txt', '.json'))}"


# -- random ideals -----------------------------------------------------------


def _ideal_with_caps(rng: random.Random, r: int, s: int, cap: int) -> tuple[Vec, ...]:
    """s minimal generators, exponents <= cap, every variable reaching cap,
    not all pure powers; so every such ideal scans the same box."""
    while True:
        gens = ref.minimal(tuple(rng.randint(0, cap) for _ in range(r)) for _ in range(s))
        if (
            len(gens) == s
            and ref.caps_of(gens) == (cap,) * r
            and any(sum(1 for e in g if e) > 1 for g in gens)
        ):
            return gens


def _ideal_by_degree(rng: random.Random, r: int, s: int, d_max: int) -> tuple[Vec, ...]:
    """s minimal generators of total degree 2..d_max using all r variables.

    In two variables the generators are drawn as an antichain directly
    (x-exponents falling while y-exponents rise); rejection alone would
    almost never find six."""
    while True:
        if r == 2:
            xs = sorted(rng.sample(range(d_max + 1), s), reverse=True)
            gens = tuple(zip(xs, sorted(rng.sample(range(d_max + 1), s))))
            if all(2 <= sum(g) <= d_max for g in gens):
                return tuple(sorted(gens, reverse=True))
            continue
        gens = []
        for _ in range(s):
            deg = rng.randint(2, d_max)
            cuts = sorted(rng.randint(0, deg) for _ in range(r - 1))
            gens.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [deg])))
        gens = ref.minimal(gens)
        if len(gens) == s and all(any(g[i] for g in gens) for i in range(r)):
            return gens


def _reorder(rng: random.Random, gens: tuple[Vec, ...]) -> tuple[Vec, ...]:
    """The same ideal with its generators listed in a random order."""
    out = list(gens)
    rng.shuffle(out)
    return tuple(out)


# Random ideals of one shape differ in cost by up to 25x (the four
# closure_chain ops of one 3-variable ideal took from 0.024 s to 0.58 s), so
# one seed's pool could cost far more than another's.  The random ideals are
# therefore drawn once from a fixed master seed, spread over their cost, in
# fixed variable order; a run's seed changes the generator order in each
# file, the file format and the op order.
def _master(workload: str) -> random.Random:
    return random.Random(f"{workload}/master")


def _spread_by_cost(rng, make, proxy, k: int) -> list:
    """k draws spread evenly over the distribution of a cost proxy.

    Draws 8 * k candidates, sorts them by proxy and keeps the one
    at the middle of each of k equal slices.  Each pool then holds the same
    spread of cheap and expensive inputs, so run-to-run variation does not
    come from one pool happening to draw more heavy inputs than another.
    """
    cands = sorted((make() for _ in range(8 * k)), key=proxy)
    picks = [cands[(2 * i + 1) * len(cands) // (2 * k)] for i in range(k)]
    rng.shuffle(picks)
    return picks


# -- checks ------------------------------------------------------------------


def _primes(rows) -> frozenset:
    return frozenset(tuple(p) for p in rows)


def _check_profile(expected_key, expected_fn):
    def check(out: str, cache: dict) -> str | None:
        got = json.loads(out)
        if expected_key not in cache:
            cache[expected_key] = expected_fn()
        entries, stable, non_mono = cache[expected_key]
        got_entries = [_primes(e["primes"]) for e in got["entries"]]
        if got_entries != entries:
            return f"entries {got_entries} != {entries}"
        if got["observed_stable_at"] != stable:
            return f"observed_stable_at {got['observed_stable_at']} != {stable}"
        if got["non_monotone_at"] != non_mono:
            return f"non_monotone_at {got['non_monotone_at']} != {non_mono}"
        return None

    return check


def _family(d: int, perm: tuple[int, int, int]):
    """The worked family under a variable permutation, with its closed form:
    {P12, P123} for n <= d-4, {P12} after, observed_stable_at = d-3."""
    base = [(d, 0, 0), (d - 1, 1, 0), (1, d - 1, 0), (0, d, 0), (2, d - 2, 1)]
    gens = ref.minimal(tuple(g[perm.index(i)] for i in range(3)) for g in base)
    p12 = tuple(sorted(perm[i] + 1 for i in (0, 1)))
    small, large = frozenset({p12, (1, 2, 3)}), frozenset({p12})
    entries = [small if n <= d - 4 else large for n in range(d + 1)]
    return gens, lambda: (entries, d - 3, [])


def _random_profile(gens, n_max: int):
    def expected():
        pw = ref.powers(gens, n_max + 1)
        entries = [ref.ass_by_colon(pw[n + 1]) for n in range(n_max + 1)]
        return entries, ref.stable_at(entries), ref.non_monotone(entries)

    return expected


RR_M_TOP = 4  # oracle union over m = 1..4 of I^(n+m) : I^m
A0_N_MAX = 4


def _closure_oracle(key, gens, cache) -> ref.ClosureOracle:
    if key not in cache:
        cache[key] = ref.ClosureOracle(gens, A0_N_MAX, RR_M_TOP)
    return cache[key]


def _check_rr(key, gens, n):
    def check(out: str, cache: dict) -> str | None:
        got = json.loads(out)
        if got["n"] != n:
            return f"n {got['n']} != {n}"
        if not _closure_oracle(key, gens, cache).same_ideal(n, got["closure_generators"]):
            return f"closure of I^{n} differs from union_m I^(n+m) : I^m"
        return None

    return check


def _check_a0(key, gens):
    def check(out: str, cache: dict) -> str | None:
        got = json.loads(out)
        flags = _closure_oracle(key, gens, cache).a0_flags(A0_N_MAX)
        value = max((k for k, f in enumerate(flags) if f), default=None)
        if got["per_degree_flags"] != flags or got["a0"] != value:
            return f"a0 {got['a0']} flags {got['per_degree_flags']} != {value} {flags}"
        return None

    return check


def _parse_system_tsv(out: str):
    """(labels, rows, rhs) from the text system format, ignoring comments."""
    labels, rows, rhs = None, [], []
    for line in out.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line or line.startswith("vars:"):
            continue
        if line.startswith("labels:"):
            labels = tuple(line.split()[1:])
            continue
        *coeffs, op, b = line.split()
        rows.append(tuple(int(c) for c in coeffs))
        rhs.append(int(b))
    return labels, tuple(rows), tuple(rhs)


def _check_build(gens, mode):
    want = ref.ed_system(gens, mode)

    def check(out: str, cache: dict) -> str | None:
        if f"# mode: {mode}" not in out:
            return "mode line missing"
        got = _parse_system_tsv(out)
        return None if got == want else f"{mode} system differs from the reference"

    return check


def _tsv_vectors(out: str, tag: str) -> list[Vec]:
    return [
        tuple(int(c) for c in line.split("\t")[1].split())
        for line in out.splitlines()
        if line.startswith(tag + "\t")
    ]


def _check_rays(rows):
    def check(out: str, cache: dict) -> str | None:
        rays = _tsv_vectors(out, "ray")
        if not rays:
            return "no rays"
        bad = [v for v in rays if not ref.is_extreme_ray(rows, v)]
        return f"not extreme: {bad}" if bad else None

    return check


def _check_hilbert(rows, cap):
    zero = (0,) * len(rows)

    def check(out: str, cache: dict) -> str | None:
        gens = _tsv_vectors(out, "hilbert")
        box = min(cap, ref.cone_bound_ceils(rows, zero)["bound_a1"])
        for g in gens:
            if not any(g) or max(g) > box or not ref.satisfies(rows, zero, g):
                return f"{g} is not a nonzero boxed cone point"
            for h in gens:
                rest = tuple(a - b for a, b in zip(g, h))
                if h != g and any(rest) and ref.satisfies(rows, zero, rest):
                    return f"{g} = {h} + {rest} is reducible"
        return None if gens else "no generators"

    return check


def _check_cone_bound(rows, rhs):
    def check(out: str, cache: dict) -> str | None:
        got = {
            line.split("\t")[0]: int(line.rsplit("ceil=", 1)[1])
            for line in out.splitlines()
            if line.startswith("bound_a")
        }
        want = ref.cone_bound_ceils(rows, rhs)
        return None if got == want else f"ceilings {got} != {want}"

    return check


def _check_feasible(labels, rows, rhs, fixed: dict[int, int], box: int):
    def check(out: str, cache: dict) -> str | None:
        lines = out.split()
        if lines == ["infeasible"]:
            hit = next(ref.solutions_in_box(rows, rhs, len(labels), box, fixed), None)
            return None if hit is None else f"reported infeasible, but {hit} solves"
        if lines[0] != "feasible":
            return "unrecognised output"
        got = dict(zip(lines[1::2], map(int, lines[2::2])))
        v = tuple(got[name] for name in labels)
        ok = ref.satisfies(rows, rhs, v) and max(v) <= max(box, *fixed.values())
        ok = ok and all(v[i] == x for i, x in fixed.items())
        return None if ok else f"witness {v} does not solve the system"

    return check


def _check_bound(r, s, d):
    def check(out: str, cache: dict) -> str | None:
        got = json.loads(out)
        want = ref.threshold_values(r, s, d)
        for key, value in want.items():
            if got[key] != value:
                return f"{key} {got[key]} != {value}"
        digits = {k: len(str(got[k])) for k in ("b1_ceil", "b2", "b_ceil")}
        if got["digits"] != {"b1": digits["b1_ceil"], "b2": digits["b2"], "b": digits["b_ceil"]}:
            return "digit counts wrong"
        return None

    return check


# -- the three workloads ------------------------------------------------------

def ass_profile(seed: int, root: Path) -> Workload:
    """Worked family d = 5..8 under seeded permutations (n_max = d), and
    random ideals from the master seed: 3 variables (s = 5, exponents <= 5,
    n_max = 5) and 4 variables (s = 5, exponents <= 3, n_max = 3)."""
    rng = random.Random(f"ass_profile/{seed}")
    files = _Files(root, rng)
    wl = Workload("ass_profile", tail_q=0.73)
    argv = lambda path, n: ["ass-profile", "--ideal", path, "--n-max", str(n),
                            "--method", "both", "--format", "json"]  # fmt: skip
    for d in range(5, 9):
        perm = tuple(rng.sample(range(3), 3))
        gens, expected = _family(d, perm)
        path = write_ideal(files(f"family-d{d}"), gens)
        wl.ops.append(Op("ass-profile/family", argv(path, d), _check_profile(path, expected)))
    master = _master("ass_profile")
    for r, cap, n_max, count in ((3, 5, 5, 5), (4, 3, 3, 4)):
        for _ in range(count):
            gens = _reorder(rng, _ideal_with_caps(master, r, 5, cap))
            path = write_ideal(files(f"random-r{r}"), gens)
            check = _check_profile(path, _random_profile(gens, n_max))
            wl.ops.append(Op(f"ass-profile/r{r}", argv(path, n_max), check))
    rng.shuffle(wl.ops)
    return wl


def _power_size_proxy(gens) -> int:
    return len(ref.powers(gens, 5, reduce=ref.minimal)[5])


def closure_chain(seed: int, root: Path) -> Workload:
    """rr --n 1..3 and a0 --n-max 4 on 2- and 3-variable ideals with 4..6
    generators of degree <= 6, from the master seed; per (r, s) the ideals
    spread evenly over the size of I^5, which drives the cost of the chains."""
    rng = random.Random(f"closure_chain/{seed}")
    files = _Files(root, rng)
    wl = Workload("closure_chain", tail_q=0.9826)
    master, ideals = _master("closure_chain"), []
    for r in (2, 3):
        for s in (4, 5, 6):
            make = lambda: _ideal_by_degree(master, r, s, 6)
            ideals += _spread_by_cost(master, make, _power_size_proxy, 6)
    for idx, gens in enumerate(_reorder(rng, g) for g in ideals):
        key = ("closure", idx)
        for n in (1, 2, 3):
            path = write_ideal(files(f"rr-n{n}"), gens)
            wl.ops.append(Op("rr", ["rr", "--ideal", path, "--n", str(n)], _check_rr(key, gens, n)))
        path = write_ideal(files("a0"), gens)
        argv = ["a0", "--ideal", path, "--n-max", str(A0_N_MAX)]
        wl.ops.append(Op("a0", argv, _check_a0(key, gens)))
    rng.shuffle(wl.ops)
    return wl


def _prime_with_hard_square(rng: random.Random, lo: int, hi: int) -> int:
    """The first prime p from a random start in [lo, hi) with (2p^2 + 1) / 3
    prime: the radicand of |(p, p, 1)| then has one huge prime factor, so split_square's trial
    division runs to its square root on every op and its cost grows with p
    instead of with the luck of the factorization."""
    p = rng.randrange(lo, hi)
    while not (ref.is_prime(p) and (2 * p * p + 1) % 9 and ref.is_prime((2 * p * p + 1) // 3)):
        p += 1
    return p


# (r, s, d) ranges for the bound ops; the last lies wholly past 4300 digits of
# B2, where `bound` currently fails on Python's int-to-str limit.
BOUND_RANGES = (
    ((1, 4), (1, 8), (1, 12)),
    ((2, 8), (8, 20), (5, 40)),
    ((4, 10), (20, 32), (20, 60)),
    ((6, 12), (35, 40), (45, 64)),
)
DIGIT_LIMIT = 10**4300


def _slices(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """The midpoints of k equal slices of lo..hi, in random order."""
    values = [lo + (hi - lo) * (2 * i + 1) // (2 * k) for i in range(k)]
    rng.shuffle(values)
    return values


def cone_bounds(seed: int, root: Path) -> Workload:
    """Per seeded 2-variable 2-generator ideal: build-system ED1 and ED2,
    cone rays and cone --hilbert --cap 4 on ED2, cone --bound and
    feasible --fix z=k --box 3 on ED1, four bound --r --s --d ops, one of
    them past 4300 digits, and for every other ideal cone --bound on a 3-row
    system with right-hand sides (p, p, 1)."""
    rng = random.Random(f"cone_bounds/{seed}")
    files = _Files(root, rng)
    wl = Workload("cone_bounds", tail_q=0.98)
    count = 16
    # s and d, which set the size of B2, spread evenly over each range
    bound_params = [
        (r_range, _slices(rng, *s_range, count), _slices(rng, *d_range, count))
        for r_range, s_range, d_range in BOUND_RANGES
    ]
    for idx in range(count):
        while True:
            gens = ref.minimal(
                tuple(rng.randint(0, 6) for _ in range(2)) for _ in range(2)
            )
            if len(gens) == 2 and any(all(g) for g in gens):
                break
        for mode in ("ED1", "ED2"):
            path = write_ideal(files(f"ideal-{mode}"), gens)
            argv = ["build-system", "--ideal", path, "--mode", mode]
            wl.ops.append(Op("build-system", argv, _check_build(gens, mode)))
        labels, rows, rhs1 = ref.ed_system(gens, "ED1")
        zero = (0,) * len(rows)
        path = write_system(files("ed2-rays"), labels, rows, zero)
        wl.ops.append(Op("cone/rays", ["cone", "--system", path], _check_rays(rows)))
        path = write_system(files("ed2-hilbert"), labels, rows, zero)
        argv = ["cone", "--system", path, "--hilbert", "--cap", "4"]
        wl.ops.append(Op("cone/hilbert", argv, _check_hilbert(rows, 4)))
        path = write_system(files("ed1-bound"), labels, rows, rhs1)
        argv = ["cone", "--system", path, "--bound"]
        wl.ops.append(Op("cone/bound-ed1", argv, _check_cone_bound(rows, rhs1)))
        k = rng.randint(1, 4)
        path = write_system(files("ed1-feasible"), labels, rows, rhs1)
        argv = ["feasible", "--system", path, "--fix", f"z={k}", "--box", "3"]
        check = _check_feasible(labels, rows, rhs1, {0: k}, 3)
        wl.ops.append(Op("feasible", argv, check))
        if idx % 2 == 0:
            # p spread evenly over [1e6, 4e6): one draw per slice
            slices = count // 2
            lo, hi = (10**6 + 3 * 10**6 * i // slices for i in (idx // 2, idx // 2 + 1))
            p = _prime_with_hard_square(rng, lo, hi)
            prow = tuple(tuple(rng.randint(1, 5) for _ in range(2)) for _ in range(3))
            path = write_system(files("pp1-bound"), None, prow, (p, p, 1))
            argv = ["cone", "--system", path, "--bound"]
            wl.ops.append(Op("cone/bound-pp1", argv, _check_cone_bound(prow, (p, p, 1))))
        for (r_lo, r_hi), s_values, d_values in bound_params:
            r, s, d = rng.randint(r_lo, r_hi), s_values[idx], d_values[idx]
            argv = ["bound", "--r", str(r), "--s", str(s), "--d", str(d), "--format", "json"]
            big = ref.b2(r, s, d) >= DIGIT_LIMIT
            wl.ops.append(Op("bound", argv, _check_bound(r, s, d), expect_failure=big))
    rng.shuffle(wl.ops)
    return wl


WORKLOADS = {"ass_profile": ass_profile, "closure_chain": closure_chain, "cone_bounds": cone_bounds}
