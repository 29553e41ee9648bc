"""Exact arithmetic on monomial ideals.

Monomials are exponent tuples in a fixed number of variables; ideals are
kept as canonical minimal generating sets (a divisibility antichain in
descending lexicographic order), so ideal equality is dataclass equality.
No coefficient field is ever represented.  Every power the library forms
comes off a `Ladder`, charged as it is formed; `power` reads a fresh one.
Every colon, `colon_ideal`'s and the Ratliff-Rush chain's alike, runs the
one kernel `_colon_above`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain
from math import prod
from operator import gt, le, mul
from typing import Iterable, Iterator, Sequence

from .errors import InputError, charge_budget, is_int, require_count

Monomial = tuple[int, ...]
# packed monomials side by side in slots, as `Packing.lay` returns them
Laid = tuple[int, int, int, int]


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
        require_count(self.r, 1, "ambient variable count")
        gens = self.generators
        # every check at once; only a failure walks the generators to name one
        if (
            set(map(len, gens)) == {self.r}
            and {int}.issuperset(map(type, chain.from_iterable(gens)))
            and min(map(min, gens)) >= 0
            and all(map(gt, gens, gens[1:]))
        ):
            return
        prev: Monomial | None = None
        for g in gens:
            if len(g) != self.r:
                raise InputError(f"generator {g} does not have {self.r} exponents")
            if not all(map(is_int, g)):
                raise InputError(f"non-integer exponent in generator {g}")
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


class Packing:
    """Exponent vectors in r variables packed into one int, for one operation.

    Variable 1 sits in the top field.  Each field is `width` bits: the bit
    length of the largest exponent the operation reads or produces, plus
    one, rounded up to whole bytes so that packing is one `int.from_bytes`,
    in time linear in r.  The top bit of every field, its guard, is therefore
    clear in a packed monomial, and fields never overflow into each other:
    integer order is lexicographic order, which extends divisibility, and a
    product of monomials is the sum of their packings.  With G the guard
    bits, (a | G) - b subtracts field by field without a borrow, and the
    guard of field i survives exactly when a_i >= b_i.
    """

    __slots__ = ("r", "width", "guard", "field", "_bytes")

    def __init__(self, r: int, top: int):
        n = (top.bit_length() + 8) // 8
        self.r = r
        self.width = 8 * n
        self.guard = int.from_bytes(b"\x80".ljust(n, b"\0") * r, "big")
        # the value bits of one field
        self.field = (1 << (8 * n - 1)) - 1
        self._bytes = n

    def pack(self, m: Iterable[int]) -> int:
        n = self._bytes
        if n == 1:
            return int.from_bytes(bytes(m), "big")
        return int.from_bytes(b"".join([e.to_bytes(n, "big") for e in m]), "big")

    def unpack(self, x: int) -> Monomial:
        n = self._bytes
        raw = x.to_bytes(self.r * n, "big")
        if n == 1:
            return tuple(raw)
        return tuple([int.from_bytes(raw[i : i + n], "big") for i in range(0, len(raw), n)])

    def pack_ideal(self, I: MonomialIdeal) -> list[int]:
        """I's generators packed, in ascending order."""
        return [self.pack(g) for g in reversed(I.generators)]

    def minimal(self, cands: Iterable[int]) -> list[int]:
        """The divisibility-minimal packed monomials among cands, ascending.

        Ascending integer order puts every divisor of a candidate before it,
        so a candidate is kept unless an earlier kept one divides it.  The
        kept monomials sit side by side in `block`, one slot of r*width + 1
        bits each, and a candidate p meets all of them at once: (p | G) in
        every slot minus `block` clears the guard of each field where p is
        short of that slot.  The spare top bit of a slot, its flag, survives
        flags - short only if the slot has no short field, that is, if the
        slot divides p; no slot borrows from the next.
        """
        G = self.guard
        stride = self.r * self.width + 1
        kept: list[int] = []
        block = ones = guards = flags = at = 0
        for p in sorted(set(cands)):
            short = ~((p | G) * ones - block) & guards
            if (flags - short) & flags:
                continue
            kept.append(p)
            block |= p << at
            ones |= 1 << at
            guards |= G << at
            flags |= 1 << (at + stride - 1)
            at += stride
        return kept

    def lay(self, A: list[int]) -> Laid:
        """A side by side in the slots of `minimal`, for `outside` to test
        monomials against: the block of A, and the ones, guards and flags
        of its slots."""
        stride = self.r * self.width + 1
        block = ones = 0
        for a in reversed(A):
            block = block << stride | a
            ones = ones << stride | 1
        return block, ones, self.guard * ones, ones << (stride - 1)

    def outside(self, laid: Laid, B: Iterable[int]) -> list[int]:
        """The monomials of B that are multiples of none of the laid
        monomials (see `lay`), in B's order, by the slot test of `minimal`."""
        block, ones, guards, flags = laid
        G = self.guard
        return [p for p in B if not (flags - (~((p | G) * ones - block) & guards)) & flags]

    def covers(self, A: list[int], B: list[int]) -> bool:
        """Whether every monomial of B is a multiple of one of A."""
        return not self.outside(self.lay(A), B)

    def meet(self, A: list[int], B: list[int], floor: Laid | None = None) -> list[int]:
        """The minimal generators of the intersection of two ideals given
        by their ascending packed minimal generators.

        A generator a of A that lies in (B) lies in the intersection, and
        every lcm(a, b) is a multiple of it; so only the generators of each
        side outside the other form lcms.  With none outside, one ideal
        holds the other and meet returns it, the same list object.  With
        the laid generators of an ideal F as floor, where A and B lie
        outside F, the lcms in F are dropped before they are minimized, and
        the result is the generators of the intersection outside F.
        """
        out_a = self.outside(self.lay(B), A)
        if not out_a:
            return A
        out_b = self.outside(self.lay(A), B)
        if not out_b:
            return B
        G, s = self.guard, self.width - 1
        # each side's generators that lie in the other ideal: one shared by
        # both sides lies in both ideals, so it is in neither out list
        lcms = {*A, *B}.difference(out_a, out_b)
        for a in out_a:
            a |= G
            for b in out_b:
                # lcm(a, b) = b * (a : b), the colon being the fields of
                # a - b whose guard survived, each guard turned into the
                # value bits below it, and 0 elsewhere
                x = a - b
                ge = x & G
                lcms.add(b + (x & (ge - (ge >> s))))
        return self.minimal(lcms if floor is None else self.outside(floor, lcms))

    def ideal(self, kept: list[int]) -> MonomialIdeal:
        """The ideal of ascending packed minimal generators."""
        return MonomialIdeal(self.r, tuple(map(self.unpack, reversed(kept))))


def _top(*ideals: MonomialIdeal) -> int:
    """The largest exponent in the generators of the ideals (0 if none)."""
    return max((max(g) for I in ideals for g in I.generators), default=0)


def minimize(gens: Iterable[Monomial], r: int) -> MonomialIdeal:
    """Canonical form of the ideal generated by an arbitrary monomial list.

    An exponent may be anything int() reads without losing a fraction, such
    as 2.0 or "3"; any other value is refused, never truncated."""
    vecs: set[Monomial] = set()
    for g in gens:
        g = tuple(g)
        try:
            t = tuple(map(int, g))
            exact = t == g or all(a == b or isinstance(a, str) for a, b in zip(g, t))
        except (TypeError, ValueError, OverflowError):
            exact = False
        if not exact:
            raise InputError(f"non-integer exponent in generator {g}")
        if len(t) != r:
            raise InputError(f"generator {t} does not have {r} exponents")
        if any(e < 0 for e in t):
            raise InputError(f"negative exponent in generator {t}")
        vecs.add(t)
    P = Packing(r, max((e for v in vecs for e in v), default=0))
    return P.ideal(P.minimal(map(P.pack, vecs)))


def _require_same_r(I: MonomialIdeal, J: MonomialIdeal) -> None:
    if I.r != J.r:
        raise InputError(f"ambient mismatch: {I.r} vs {J.r} variables")


class Ladder:
    """The packed powers I^k of one request, climbed one at a time from
    I^0 and I^1.  Each higher power is the last one times the generators
    of I, formed when first asked for and charged |G(I^(k-1))|·s products
    ("power walk") on every climb.  One packing holds every power held,
    re-packed when a new power needs wider fields; those below I^low have
    been let go.  gens holds the generators of I in the order a colon
    chain meets their parts (see `_colon_above`).
    """

    __slots__ = ("top", "P", "gens", "low", "powers")

    def __init__(self, I: MonomialIdeal):
        self.top, self.low = _top(I), 0
        self.P = P = Packing(I.r, self.top)
        self.gens = P.pack_ideal(I)
        # I^0 is the unit ideal, whose one generator packs to 0
        self.powers = [[0], self.gens]

    def __getitem__(self, k: int) -> list[int]:
        """I^k for low <= k, climbing to it first if need be."""
        while self.low + len(self.powers) <= k:
            self.climb()
        return self.powers[k - self.low]

    def climb(self) -> None:
        """Form the power above the highest one held."""
        k = self.low + len(self.powers)
        if (k * self.top).bit_length() >= self.P.width:
            # I^k needs wider fields: the same monomials, packed anew
            P, self.P = self.P, Packing(self.P.r, k * self.top)
            self.gens, *self.powers = [self.repack(P, xs) for xs in (self.gens, *self.powers)]
        high, gens = self.powers[-1], self.gens
        charge_budget(len(high) * len(gens), "power walk", unit="products")
        self.powers.append(self.P.minimal(a + g for a in high for g in gens))

    def repack(self, P: Packing, xs: list[int]) -> list[int]:
        """Monomials packed by P, packed by the ladder's packing."""
        return [self.P.pack(P.unpack(x)) for x in xs]

    def drop_below(self, k: int) -> None:
        """Let go of the powers below I^k, climbing to it first if need be,
        so that no more than two powers are held on the way up."""
        while self.low < k:
            if len(self.powers) == 1:
                self.climb()
            del self.powers[0]
            self.low += 1

    def ideal(self, k: int) -> MonomialIdeal:
        """I^k, letting go of the powers below it."""
        self.drop_below(k)
        return self.P.ideal(self.powers[0])


# maxsize=0 keeps nothing, so every call charges alike; the decorator stays
# only for the cache_clear and cache_info that bench/run.py and spans.py call
@lru_cache(maxsize=0)
def power(I: MonomialIdeal, n: int) -> MonomialIdeal:
    """I**n (n = 0 gives the unit ideal), read off a fresh `Ladder` and
    charged as its products on every call."""
    require_count(n, 0, "power exponent")
    return Ladder(I).ideal(n)


def intersect(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    _require_same_r(I, J)
    P = Packing(I.r, _top(I, J))
    A, B = P.pack_ideal(I), P.pack_ideal(J)
    C = P.meet(A, B)
    return I if C is A else J if C is B else P.ideal(C)


def colon_ideal(I: MonomialIdeal, J: MonomialIdeal) -> MonomialIdeal:
    """I : J, the intersection of the parts I : g over the generators g of
    J: `_colon_above` over the zero ideal as floor, whose sieve has no
    slots and so drops nothing."""
    _require_same_r(I, J)
    if J.is_zero():
        # everything multiplies the zero ideal into I
        return unit_ideal(I.r)
    P = Packing(I.r, _top(I, J))
    return P.ideal(_colon_above(P, P.pack_ideal(I), P.pack_ideal(J), P.lay([])))


def _colon_above(P: Packing, gens: list[int], qs: list[int], floor: Laid) -> list[int]:
    """The generators of (gens) : (qs) outside F, where floor holds the
    laid generators (`Packing.lay`) of an ideal F that lies in every part
    (gens) : q.

    Each part is then F + (E_q), with E_q its generators outside F, and for
    monomial ideals the intersection of the F + (E_q) is F + the
    intersection of the (E_q).  So only the E_q are met.  Every colon and
    lcm candidate in F is dropped before it is minimized: a divisor of a
    monomial outside F lies outside F too, so the minimal candidates
    outside F are the candidates outside F that are minimal among all of
    them.  The empty list, for a colon equal to F, comes back as soon as
    one E_q or running meet is empty, and that q moves to the front of
    qs: a caller that keeps the order meets it first next time.  The
    intersection does not depend on the order.  qs must not be empty.
    With the zero ideal as F, laid in no slots, nothing is dropped and the
    result is the whole colon, which is how `colon_ideal` reads it.
    """
    G, s = P.guard, P.width - 1
    block, ones, guards, flags = floor
    # (c | G) * ones - block, the slot test of `Packing.outside`, for c
    # with clear guards
    sieve = guards - block
    met = None
    for i, q in enumerate(qs):
        # each colon g : q by the guard subtraction of `meet`, kept when no
        # floor generator divides it
        part = []
        Gq = G - q
        for g in gens:
            x = g + Gq
            ge = x & G
            c = x & (ge - (ge >> s))
            if not (flags - (~(c * ones + sieve) & guards)) & flags:
                part.append(c)
        part = P.minimal(part)
        if part and met is not None:
            part = P.meet(met, part, floor)
        if not part:
            qs.insert(0, qs.pop(i))
            return part
        met = part
    return met


def _zero_coords(I: MonomialIdeal, positions: frozenset[int]) -> MonomialIdeal:
    """Set the given 0-based exponent positions to zero in every generator."""
    P = Packing(I.r, _top(I))
    keep = P.pack(0 if i in positions else P.field for i in range(I.r))
    return P.ideal(P.minimal(g & keep for g in P.pack_ideal(I)))


@lru_cache(maxsize=8192)
def delete_variable(I: MonomialIdeal, j: int) -> MonomialIdeal:
    """Zero the j-th exponent (1-based) in every generator, same ambient ring.

    This is the image of I under sending the j-th variable to 1.
    """
    if I.r < 2:
        raise InputError("variable deletion needs at least 2 ambient variables")
    if not (is_int(j) and 1 <= j <= I.r):
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
    if I.is_zero():
        return (0,) * I.r
    return tuple(map(max, zip(*I.generators)))


def _axis_mask(total: int, stride: int, dim: int, k: int) -> int:
    """Cells of a row-major box whose coordinate on the axis (stride, dim) is >= k."""
    mask = ((1 << (dim - k) * stride) - 1) << (k * stride)
    period = stride * dim
    # the pattern repeats every period cells: copy it up to the whole box
    while period < total:
        mask |= mask << period
        period *= 2
    return mask & ((1 << total) - 1)


class _AxisMasks(dict):
    """`_axis_mask` by its arguments, each built on first use.  Each table
    holds its own and drops it with the table: nothing caches masks across
    calls, since a mask holds one bit per cell of the box.  The top mask
    (k = dim - 1) is read off the k = 1 mask: the cells one step below a
    cell >= 1 are exactly the cells below the top, so each axis builds
    only its k = 1 mask."""

    def __missing__(self, key: tuple[int, int, int, int]) -> int:
        total, stride, dim, k = key
        if k == dim - 1 > 1:
            mask = ((1 << total) - 1) ^ (self[total, stride, dim, 1] >> stride)
        else:
            mask = _axis_mask(*key)
        self[key] = mask
        return mask


_CELL_BYTES = bytes.maketrans(b"01", b"\x00\x01")


class BoxTable:
    """Monomial membership of an ideal restricted to a finite exponent box.

    The box is a bitset: bit idx of `bits` is the cell whose row-major index
    sum(v_i * strides[i]) is idx, so the lowest set bit is the
    lexicographically first cell.  The upward closure is `close` along each
    axis, and `saturate` gives the table of each J : x_i^inf from J's.
    Other bitsets on the box, such as the powers of a power walk, use the
    table's axis masks through these methods.  `table` holds the same
    cells one byte each, built when first read; no query of the library
    reads it, and `bench/spans.py` counts cells by its length.
    """

    __slots__ = ("dims", "strides", "bits", "masks", "_table")

    def __init__(self, gens: Iterable[Sequence[int]], bounds: tuple[int, ...]):
        dims = tuple(b + 1 for b in bounds)
        total = prod(dims)
        charge_budget(total, "membership box")
        e = len(dims)
        strides = [1] * e
        for i in range(e - 2, -1, -1):
            strides[i] = strides[i + 1] * dims[i + 1]
        cells = bytearray((total + 7) // 8)
        gens = list(gens)
        # one test for the whole list; only a generator past the box sends
        # each one through its own
        if not all(map(le, map(max, zip(*gens)), bounds)):
            gens = [g for g in gens if all(map(le, g, bounds))]
        for g in gens:
            idx = sum(map(mul, g, strides))
            cells[idx >> 3] |= 1 << (idx & 7)
        self.dims = dims
        self.strides = tuple(strides)
        self.masks = _AxisMasks()
        self._table: bytearray | None = None
        self.bits = reduce(self.close, range(e), int.from_bytes(cells, "little"))

    def close(self, bits: int, i: int) -> int:
        """bits closed upward along axis i by a prefix OR of doubling shifts,
        each masked to the cells that did not wrap into the next row."""
        s, d, k = self.strides[i], self.dims[i], 1
        # only the k = 1 mask is shared: the cells with coordinate >= 2k are
        # those >= k whose cell k steps down is also >= k, so each step
        # derives its mask from the last one's and drops it after use
        mask = self.masks[prod(self.dims), s, d, 1]
        # after the step for k, each cell holds the OR of the 2k cells that
        # end at it along this axis
        while k < d and bits:
            if k > 1:
                mask &= mask << (k // 2) * s
            bits |= (bits << k * s) & mask
            k *= 2
        return bits

    def saturate(self, bits: int, i: int) -> int:
        """The cells v whose copy with v_i at the top of axis i lies in bits:
        from the table of J, that of J : x_i^inf when the top is at or past
        J's exponents of x_i, since raising v_i to it is then as good as any
        power of x_i."""
        s, d = self.strides[i], self.dims[i]
        top = bits & self.masks[prod(self.dims), s, d, d - 1]
        return self.close(top >> (d - 1) * s, i)

    def minimal(self, bits: int) -> int:
        """The cells of bits with no cell of bits one step below on any
        axis: for the table of an ideal, the cells of its minimal
        generators."""
        total = prod(self.dims)
        below = 0
        for s, d in zip(self.strides, self.dims):
            below |= (bits << s) & self.masks[total, s, d, 1]
        return bits & ~below

    def above(self, cells: tuple[Monomial, ...]) -> list[int]:
        """For each cell g, the bitset of the cells >= g.  Along an axis, the
        cells with coordinate >= c + 1 are those >= c whose cell one step
        down is >= c too, so each is one shift and AND from the last,
        starting from the shared mask of `close`."""
        total = prod(self.dims)
        box = (1 << total) - 1
        out = [box] * len(cells)
        for i, (s, d) in enumerate(zip(self.strides, self.dims)):
            top = max(g[i] for g in cells)
            if top:
                ge = [box, self.masks[total, s, d, 1]]
                while len(ge) <= top:
                    ge.append(ge[-1] & (ge[-1] << s))
                out = [m & ge[g[i]] for m, g in zip(out, cells)]
        return out

    @property
    def table(self) -> bytearray:
        """One byte per cell, 1 for the cells in the ideal."""
        if self._table is None:
            total = prod(self.dims)
            self._table = bytearray(
                format(self.bits, f"0{total}b")[::-1], "ascii"
            ).translate(_CELL_BYTES)
        return self._table

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
