"""Exact arithmetic on monomial ideals.

Monomials are exponent tuples in a fixed number of variables; ideals are
kept as canonical minimal generating sets (a divisibility antichain in
descending lexicographic order), so ideal equality is dataclass equality.
No coefficient field is ever represented.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Iterable, Iterator

from .errors import InputError, charge_budget

Monomial = tuple[int, ...]


def degree(m: Monomial) -> int:
    return sum(m)


def divides(a: Monomial, b: Monomial) -> bool:
    """Componentwise a <= b, i.e. the monomial a divides b."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x if x > y else y for x, y in zip(a, b))


def monomial_colon(g: Monomial, m: Monomial) -> Monomial:
    """lcm(g, m) / m, the generator contributed by g to an ideal colon by m."""
    return tuple(x - y if x > y else 0 for x, y in zip(g, m))


def support(m: Monomial) -> tuple[int, ...]:
    """1-based indices of the variables occurring in m."""
    return tuple(i + 1 for i, e in enumerate(m) if e)


@dataclass(frozen=True)
class MonomialIdeal:
    """A monomial ideal in r variables as its canonical minimal generating set.

    The zero ideal has no generators; the unit ideal has the single all-zero
    generator.  Generators are sorted descending lexicographically, which
    together with minimality makes the representation unique.
    """

    r: int
    generators: tuple[Monomial, ...]

    def __post_init__(self):
        if self.r < 1:
            raise InputError(f"ambient variable count must be >= 1, got {self.r}")
        prev: Monomial | None = None
        for g in self.generators:
            if len(g) != self.r:
                raise InputError(f"generator {g} does not have {self.r} exponents")
            if any(e < 0 for e in g):
                raise InputError(f"negative exponent in generator {g}")
            if prev is not None and not g < prev:
                raise InputError("generators not in canonical descending order")
            prev = g

    def is_zero(self) -> bool:
        return not self.generators

    def is_unit(self) -> bool:
        return len(self.generators) == 1 and not any(self.generators[0])

    def is_proper_nonzero(self) -> bool:
        return bool(self.generators) and not self.is_unit()


def require_proper_nonzero(I: MonomialIdeal) -> None:
    if not I.is_proper_nonzero():
        raise InputError("a proper nonzero ideal is required")


def zero_ideal(r: int) -> MonomialIdeal:
    return MonomialIdeal(r, ())


def unit_ideal(r: int) -> MonomialIdeal:
    return MonomialIdeal(r, ((0,) * r,))


def minimize(gens: Iterable[Monomial], r: int) -> MonomialIdeal:
    """Canonical form of the ideal generated by an arbitrary monomial list."""
    vecs: set[Monomial] = set()
    for g in gens:
        t = tuple(int(e) for e in g)
        if len(t) != r:
            raise InputError(f"generator {t} does not have {r} exponents")
        if any(e < 0 for e in t):
            raise InputError(f"negative exponent in generator {t}")
        vecs.add(t)
    kept: list[Monomial] = []
    # ascending total degree: any proper divisor is seen before its multiples
    for v in sorted(vecs, key=lambda t: (sum(t), t)):
        if not any(divides(k, v) for k in kept):
            kept.append(v)
    kept.sort(reverse=True)
    return MonomialIdeal(r, tuple(kept))


def validate_minimal(I: MonomialIdeal) -> None:
    """Full antichain check; raises if the representation is not canonical."""
    gens = I.generators
    for i, a in enumerate(gens):
        for j, b in enumerate(gens):
            if i != j and divides(a, b):
                raise InputError(f"generator {a} divides generator {b}")


def _require_same_r(I: MonomialIdeal, J: MonomialIdeal) -> None:
    if I.r != J.r:
        raise InputError(f"ambient mismatch: {I.r} vs {J.r} variables")


def contains(I: MonomialIdeal, m: Monomial) -> bool:
    """Monomial membership: some generator divides m."""
    if len(m) != I.r:
        raise InputError(f"monomial {m} does not have {I.r} exponents")
    if any(e < 0 for e in m):
        raise InputError(f"negative exponent in monomial {m}")
    return any(divides(g, m) for g in I.generators)


def contains_ideal(I: MonomialIdeal, J: MonomialIdeal) -> bool:
    """J is a subideal of I (every generator of J lies in I)."""
    _require_same_r(I, J)
    return all(contains(I, g) for g in J.generators)


def product(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _require_same_r(I, J)
    if I.is_zero() or J.is_zero():
        return zero_ideal(I.r)
    if I.is_unit():
        return J
    if J.is_unit():
        return I
    return minimize(
        (monomial_mul(a, b) for a in I.generators for b in J.generators), I.r
    )


@lru_cache(maxsize=8192)
def power(I: MonomialIdeal, n: int) -> MonomialIdeal:
    """I**n via products of n generators (n = 0 gives the unit ideal)."""
    if n < 0:
        raise InputError(f"power exponent must be >= 0, got {n}")
    if n == 0:
        return unit_ideal(I.r)
    if n == 1 or I.is_zero() or I.is_unit():
        return I
    gens = I.generators
    r = I.r
    out: set[Monomial] = set()
    for combo in itertools.combinations_with_replacement(gens, n):
        v = [0] * r
        for g in combo:
            for i in range(r):
                v[i] += g[i]
        out.add(tuple(v))
    return minimize(out, r)


def intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _require_same_r(I, J)
    if I.is_zero() or J.is_zero():
        return zero_ideal(I.r)
    if I.is_unit():
        return J
    if J.is_unit():
        return I
    # nested ideals intersect to the smaller one; cheap test, big win on colon chains
    if contains_ideal(J, I):
        return I
    if contains_ideal(I, J):
        return J
    return minimize(
        (monomial_lcm(a, b) for a in I.generators for b in J.generators), I.r
    )


def intersect_all(ideals: Iterable[MonomialIdeal], r: int) -> MonomialIdeal:
    acc = unit_ideal(r)
    for J in ideals:
        acc = intersect(acc, J)
    return acc


def add(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """Ideal sum I + J."""
    _require_same_r(I, J)
    if contains_ideal(I, J):
        return I
    if contains_ideal(J, I):
        return J
    return minimize(I.generators + J.generators, I.r)


def colon_monomial(I: MonomialIdeal, m: Monomial) -> MonomialIdeal:
    """I : m for a single monomial m."""
    if len(m) != I.r or any(e < 0 for e in m):
        raise InputError(f"bad colon monomial {m} for ambient {I.r}")
    if I.is_zero():
        return I
    return minimize((monomial_colon(g, m) for g in I.generators), I.r)


def colon_ideal(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I : J, the intersection of I : g over the generators of J."""
    _require_same_r(I, J)
    if J.is_zero():
        # everything multiplies the zero ideal into I
        return unit_ideal(I.r)
    acc = unit_ideal(I.r)
    for g in J.generators:
        acc = intersect(acc, colon_monomial(I, g))
    return acc


def saturate(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I : J^infinity by iterating the colon until it stops growing."""
    _require_same_r(I, J)
    if J.is_zero():
        raise InputError("saturation by the zero ideal is undefined")
    current = I
    while True:
        nxt = colon_ideal(current, J)
        if nxt == current:
            return current
        current = nxt


def _zero_coords(I: MonomialIdeal, positions: frozenset[int]) -> MonomialIdeal:
    """Set the given 0-based exponent positions to zero in every generator."""
    if I.is_zero():
        return I
    return minimize(
        (
            tuple(0 if i in positions else e for i, e in enumerate(g))
            for g in I.generators
        ),
        I.r,
    )


@lru_cache(maxsize=8192)
def delete_variable(I: MonomialIdeal, j: int) -> MonomialIdeal:
    """Zero the j-th exponent (1-based) in every generator, same ambient ring.

    This is the image of I under sending the j-th variable to 1.
    """
    if I.r < 2:
        raise InputError("variable deletion needs at least 2 ambient variables")
    if not 1 <= j <= I.r:
        raise InputError(f"variable index {j} out of range 1..{I.r}")
    return _zero_coords(I, frozenset({j - 1}))


def used_variables(I: MonomialIdeal) -> tuple[int, ...]:
    """1-based indices of variables with a positive exponent in some generator."""
    return tuple(
        i + 1 for i in range(I.r) if any(g[i] for g in I.generators)
    )


def is_pure_power(I: MonomialIdeal) -> bool:
    """Every generator is a power of a single variable."""
    return bool(I.generators) and all(
        sum(1 for e in g if e) == 1 for g in I.generators
    )


def max_exponents(I: MonomialIdeal) -> tuple[int, ...]:
    """Componentwise maximum over the generators (all zeros for the zero ideal)."""
    out = [0] * I.r
    for g in I.generators:
        for i, e in enumerate(g):
            if e > out[i]:
                out[i] = e
    return tuple(out)


def iter_box(bounds: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All integer points v with 0 <= v_i <= bounds_i, ascending lexicographically."""
    return itertools.product(*(range(b + 1) for b in bounds))


def _axis_mask(total: int, stride: int, dim: int, k: int) -> int:
    """Cells of a row-major box whose coordinate on the axis (stride, dim) is >= k."""
    mask = ((1 << (dim - k) * stride) - 1) << (k * stride)
    period = stride * dim
    # the pattern repeats every period cells: copy it up to the whole box
    while period < total:
        mask |= mask << period
        period *= 2
    return mask & ((1 << total) - 1)


_CELL_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class BoxTable:
    """Monomial membership of an ideal restricted to a finite exponent box.

    The box is a bitset: bit idx of `bits` is the cell whose row-major index
    sum(v_i * strides[i]) is idx, so the lowest set bit is the
    lexicographically first cell.  The upward closure is a prefix OR along
    each axis by doubling shifts, each masked to the cells that did not wrap
    into the next row.  `table` holds the same cells one byte each, for O(r)
    point queries.
    """

    __slots__ = ("bounds", "dims", "strides", "bits", "table")

    def __init__(
        self,
        gens: Iterable[Monomial],
        bounds: tuple[int, ...],
        budget: int | None = None,
    ):
        dims = tuple(b + 1 for b in bounds)
        total = prod(dims)
        charge_budget(total, budget, "membership box")
        e = len(dims)
        strides = [1] * e
        for i in range(e - 2, -1, -1):
            strides[i] = strides[i + 1] * dims[i + 1]
        cells = bytearray((total + 7) // 8)
        for g in gens:
            if all(x <= b for x, b in zip(g, bounds)):
                idx = sum(x * s for x, s in zip(g, strides))
                cells[idx >> 3] |= 1 << (idx & 7)
        bits = int.from_bytes(cells, "little")
        for s, d in zip(strides, dims):
            k = 1
            # after the step for k, each cell holds the OR of the 2k cells
            # that end at it along this axis
            while k < d and bits:
                bits |= (bits << k * s) & _axis_mask(total, s, d, k)
                k *= 2
        self.bounds = bounds
        self.dims = dims
        self.strides = tuple(strides)
        self.bits = bits
        self.table = bytearray(format(bits, f"0{total}b")[::-1], "ascii").translate(
            _CELL_BYTES
        )

    def __getitem__(self, v: tuple[int, ...]) -> bool:
        idx = 0
        for x, s in zip(v, self.strides):
            idx += x * s
        return bool(self.table[idx])

    def point(self, idx: int) -> tuple[int, ...]:
        """The cell with row-major index idx."""
        out = []
        for s in self.strides:
            x, idx = divmod(idx, s)
            out.append(x)
        return tuple(out)

    def points(self, bits: int) -> Iterator[tuple[int, ...]]:
        """The cells of a bitset in this box's layout, ascending lexicographically."""
        digits = format(bits, "b")[::-1]
        idx = digits.find("1")
        while idx >= 0:
            yield self.point(idx)
            idx = digits.find("1", idx + 1)

    def sub_box(self, caps: tuple[int, ...]) -> int:
        """The bitset of the cells v with v <= caps componentwise."""
        total = len(self.table)
        cells = (1 << total) - 1
        for s, d, c in zip(self.strides, self.dims, caps):
            if c + 1 < d:
                cells &= ~_axis_mask(total, s, d, c + 1)
        return cells
