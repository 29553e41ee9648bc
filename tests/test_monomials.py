import random
from functools import reduce
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles as ref
from brodmann.errors import BudgetError, InputError, enumeration_budget
from brodmann.monomials import (
    BoxTable,
    Ladder,
    _zero_coords,
    MonomialIdeal,
    Packing,
    _top,
    colon_ideal,
    delete_variable,
    intersect,
    is_pure_power,
    max_exponents,
    minimize,
    power,
    unit_ideal,
    used_variables,
    zero_ideal,
)

from oracles import in_power, iter_box, monomial_in


def ideal(r, *gens):
    return minimize(gens, r)


class TestCanonicalForm:
    def test_minimize_drops_divisible_generators(self):
        I = minimize([(2, 0), (3, 0), (2, 1)], 2)
        assert I.generators == ((2, 0),)

    def test_minimize_sorts_descending(self):
        I = minimize([(0, 3), (2, 0), (1, 1)], 2)
        assert I.generators == ((2, 0), (1, 1), (0, 3))

    def test_minimize_dedupes(self):
        I = minimize([(1, 1), (1, 1)], 2)
        assert I.generators == ((1, 1),)

    def test_minimize_idempotent(self):
        rng = random.Random(101)
        for _ in range(50):
            r = rng.choice((2, 3))
            gens = [tuple(rng.randint(0, 4) for _ in range(r)) for _ in range(4)]
            I = minimize(gens, r)
            assert minimize(I.generators, r) == I

    def test_zero_and_unit(self):
        assert zero_ideal(2).is_zero()
        assert unit_ideal(2).is_unit()
        assert minimize([], 3) == zero_ideal(3)
        assert minimize([(0, 0, 0), (1, 2, 0)], 3) == unit_ideal(3)

    def test_equality_is_structural(self):
        assert ideal(2, (2, 0), (1, 1)) == ideal(2, (1, 1), (2, 0), (2, 1))
        assert ideal(2, (2, 0)) != ideal(2, (1, 0))

    def test_construction_rejects_bad_input(self):
        with pytest.raises(InputError):
            MonomialIdeal(0, ())
        with pytest.raises(InputError):
            MonomialIdeal(2, ((1,),))
        with pytest.raises(InputError):
            MonomialIdeal(2, ((1, -1),))
        with pytest.raises(InputError):
            MonomialIdeal(2, ((1, 1), (2, 0)))  # not descending

    def test_validate_minimal_rejects_divisible_pair(self):
        with pytest.raises(ValueError):
            ref.validate_minimal(MonomialIdeal(2, ((2, 1), (1, 0))).generators)


class TestMinimizeErrors:
    """minimize names the first offending generator in input order, with the
    generator as read, even when a unit or a divisor met earlier makes it
    redundant."""

    @pytest.mark.parametrize(
        "gens, message",
        [
            ([(1, 2), (1,), (-1, 0)], "generator (1,) does not have 2 exponents"),
            ([(1, 2), (-1, 0), (1,)], "negative exponent in generator (-1, 0)"),
            ([(0, 0), (1, 2, 3)], "generator (1, 2, 3) does not have 2 exponents"),
            ([(1, 0), (5, -2)], "negative exponent in generator (5, -2)"),
            ([("3", 2.0), (True,)], "generator (1,) does not have 2 exponents"),
            ([[4, 0], (-7, "-1")], "negative exponent in generator (-7, -1)"),
            ([(2.5, 0), (0, 1.9)], "non-integer exponent in generator (2.5, 0)"),
            ([(1, 0), ("4", 1.5), (1,)], "non-integer exponent in generator ('4', 1.5)"),
            ([("2.5", 0)], "non-integer exponent in generator ('2.5', 0)"),
            ([(float("nan"), 0)], "non-integer exponent in generator (nan, 0)"),
            ([(float("inf"), 0)], "non-integer exponent in generator (inf, 0)"),
            ([(None, 1)], "non-integer exponent in generator (None, 1)"),
        ],
    )
    def test_first_offender_and_text(self, gens, message):
        with pytest.raises(InputError) as exc:
            minimize(gens, 2)
        assert str(exc.value) == message

    def test_bad_ambient(self):
        for r in (0, -1):
            with pytest.raises(InputError) as exc:
                minimize([], r)
            assert str(exc.value) == f"ambient variable count must be >= 1, got {r}"
        with pytest.raises(InputError) as exc:
            minimize([()], 0)
        assert str(exc.value) == "ambient variable count must be >= 1, got 0"


class TestMembership:
    def test_contains_basics(self):
        I = ideal(2, (2, 0), (1, 1))
        assert monomial_in((2, 0), I.generators)
        assert monomial_in((5, 3), I.generators)
        assert not monomial_in((1, 0), I.generators)
        assert not monomial_in((0, 4), I.generators)

    def test_zero_unit_membership(self):
        assert not monomial_in((0, 0), zero_ideal(2).generators)
        assert monomial_in((0, 0), unit_ideal(2).generators)

    def test_contains_ideal_reflexive_and_orders(self):
        P = Packing(2, 2)
        I = P.pack_ideal(ideal(2, (2, 0), (1, 1)))
        J = P.pack_ideal(ideal(2, (1, 0)))
        assert P.covers(I, I)
        assert P.covers(J, I)
        assert not P.covers(I, J)


class TestArithmetic:
    def test_power_zero_is_unit(self):
        assert power(ideal(2, (3, 1)), 0) == unit_ideal(2)

    def test_power_of_zero_ideal(self):
        assert power(zero_ideal(2), 3) == zero_ideal(2)
        assert power(zero_ideal(2), 0) == unit_ideal(2)

    def test_power_matches_multiplicity_oracle(self):
        rng = random.Random(202)
        for _ in range(25):
            r = rng.choice((2, 3))
            gens = []
            for _ in range(rng.randint(1, 3)):
                v = (0,) * r
                while not any(v):
                    v = tuple(rng.randint(0, 3) for _ in range(r))
                gens.append(v)
            I = minimize(gens, r)
            n = rng.randint(1, 3)
            P = power(I, n)
            caps = tuple(c * n + 1 for c in max_exponents(I))
            for m in iter_box(caps):
                assert monomial_in(m, P.generators) == in_power(
                    m, I.generators, n
                ), (I, n, m)

    def test_intersect_membership_property(self):
        rng = random.Random(303)
        for _ in range(25):
            r = 2
            gens = lambda: [
                tuple(rng.randint(0, 4) for _ in range(r)) for _ in range(3)
            ]
            I = minimize([g for g in gens() if any(g)] or [(1, 0)], r)
            J = minimize([g for g in gens() if any(g)] or [(0, 1)], r)
            M = intersect(I, J)
            for m in iter_box((6, 6)):
                assert monomial_in(m, M.generators) == (
                    monomial_in(m, I.generators) and monomial_in(m, J.generators)
                )

    def test_intersect_specifics(self):
        I = ideal(2, (2, 0), (1, 1))
        assert intersect(I, unit_ideal(2)) == I
        assert intersect(I, zero_ideal(2)) == zero_ideal(2)
        assert intersect(ideal(2, (2, 0)), ideal(2, (0, 3))) == ideal(2, (2, 3))

    def test_intersect_all(self):
        parts = [ideal(2, (2, 0)), ideal(2, (0, 2)), ideal(2, (1, 1))]
        assert reduce(intersect, parts, unit_ideal(2)) == ideal(2, (2, 2))
        assert intersect(unit_ideal(2), zero_ideal(2)) == zero_ideal(2)
        assert intersect(unit_ideal(2), unit_ideal(2)) == unit_ideal(2)

    def test_colon_membership_property(self):
        rng = random.Random(404)
        for _ in range(25):
            r = 2
            mk = lambda: minimize(
                [
                    v
                    for v in (
                        tuple(rng.randint(0, 4) for _ in range(r)) for _ in range(3)
                    )
                    if any(v)
                ]
                or [(1, 1)],
                r,
            )
            I, J = mk(), mk()
            C = colon_ideal(I, J)
            for u in iter_box((5, 5)):
                expected = all(
                    monomial_in(tuple(a + b for a, b in zip(u, g)), I.generators)
                    for g in J.generators
                )
                assert monomial_in(u, C.generators) == expected, (I, J, u)

    def test_colon_specifics(self):
        I = ideal(2, (3, 0), (1, 2))
        assert colon_ideal(I, ideal(2, (1, 0))) == ideal(2, (2, 0), (0, 2))
        assert colon_ideal(I, unit_ideal(2)) == I
        assert colon_ideal(I, zero_ideal(2)) == unit_ideal(2)
        # the zero ideal has no generators to take colons of
        Z = zero_ideal(2)
        assert colon_ideal(Z, I) == colon_ideal(Z, ideal(2, (1, 0))) == Z


# Exponent caps, one drawn per exponent vector: 0 leaves every field zero,
# 127 and 128 sit on either side of a one-byte field, and 2**80 needs eleven
# bytes, so the operands of one operation differ in field width.
CAPS = (0, 1, 4, 127, 128, 2**80)
RANKS = st.integers(1, 5)
KERNEL_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def exponent_vectors(draw, r):
    cap = draw(st.sampled_from(CAPS))
    return draw(st.tuples(*[st.integers(0, cap)] * r))


def generator_lists(r):
    """Up to 6 generators, duplicates and divisible pairs allowed; the empty
    list gives the zero ideal and an all-zero vector the unit ideal."""
    return st.lists(exponent_vectors(r), max_size=6)


def ideals(r):
    return generator_lists(r).map(lambda gens: minimize(gens, r))


def ideal_pairs():
    return RANKS.flatmap(lambda r: st.tuples(ideals(r), ideals(r)))


@st.composite
def generator_tuples(draw):
    """(r, generators) for r = 1..5: up to 6 generators, some of the wrong
    length or with a negative exponent, in drawn order or sorted strictly
    descending, so that every check passes on some and fails on others."""
    r = draw(RANKS)
    lengths = st.integers(r - 1, r + 1) if draw(st.booleans()) else st.just(r)
    low = draw(st.sampled_from((-1, 0)))
    vector = lengths.flatmap(lambda k: st.tuples(*[st.integers(low, 3)] * k))
    gens = draw(st.lists(vector, max_size=6))
    if draw(st.booleans()):
        gens = sorted(set(gens), reverse=True)
    return r, tuple(gens)


class TestConstructorChecks:
    @KERNEL_SETTINGS
    @given(generator_tuples())
    @example((2, ()))
    @example((2, ((1, -1), (3,))))
    @example((2, ((0, 2), (1, 0))))
    @example((3, ((2, 0, 1), (0, 1, 0))))
    def test_accepts_and_names_the_offender_like_the_loop(self, case):
        r, gens = case
        message = ref.ideal_check_message(r, gens)
        if message is None:
            assert MonomialIdeal(r, gens).generators == gens
        else:
            with pytest.raises(InputError) as exc:
                MonomialIdeal(r, gens)
            assert str(exc.value) == message

    @pytest.mark.parametrize("bad", [1.5, 2.0, float("nan"), True, False, "2", None])
    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_refuses_non_integer_exponents(self, bad, at):
        gens = [(3, 0), (1, 2), (0, 4)]
        gens[at] = (bad, 0) if at == 0 else (gens[at][0], bad)
        gens = tuple(gens)
        with pytest.raises(InputError) as exc:
            MonomialIdeal(2, gens)
        assert str(exc.value) == f"non-integer exponent in generator {gens[at]}"
        assert str(exc.value) == ref.ideal_check_message(2, gens)


class TestPackedKernelMatchesTupleReferences:
    """The packed-int kernel against `oracles`, which minimizes by pairwise
    divisibility on tuples: the same generators in the same order."""

    @KERNEL_SETTINGS
    @given(RANKS.flatmap(lambda r: st.tuples(st.just(r), generator_lists(r))))
    def test_minimize(self, case):
        r, gens = case
        assert minimize(gens, r).generators == ref.minimal(gens)

    @KERNEL_SETTINGS
    @given(ideal_pairs())
    def test_product(self, pair):
        """A product of monomials is the sum of their packings (`Ladder`
        forms each power so), here on two ideals of unequal widths."""
        I, J = pair
        P = Packing(I.r, _top(I) + _top(J))
        B = P.pack_ideal(J)
        got = P.ideal(P.minimal(a + b for a in P.pack_ideal(I) for b in B))
        assert got.generators == ref.product_ref(I.generators, J.generators)

    @KERNEL_SETTINGS
    @given(RANKS.flatmap(ideals), st.integers(0, 3))
    def test_power(self, I, n):
        assert power(I, n).generators == ref.power_ref(I.generators, n, I.r)

    @KERNEL_SETTINGS
    @given(ideal_pairs())
    def test_intersect(self, pair):
        I, J = pair
        assert intersect(I, J).generators == ref.intersect_ref(I.generators, J.generators)

    @KERNEL_SETTINGS
    @given(RANKS.flatmap(lambda r: st.tuples(ideals(r), exponent_vectors(r))))
    def test_colon_monomial(self, case):
        I, m = case
        got = colon_ideal(I, MonomialIdeal(I.r, (m,)))
        assert got.generators == ref.colon_monomial_ref(I.generators, m)

    @KERNEL_SETTINGS
    @given(ideal_pairs())
    def test_colon_ideal(self, pair):
        I, J = pair
        expected = ref.colon_ideal_ref(I.generators, J.generators, I.r)
        assert colon_ideal(I, J).generators == expected

    @KERNEL_SETTINGS
    @given(ideal_pairs())
    def test_contains_ideal(self, pair):
        """`Packing.covers`, the inclusion test of the Ratliff-Rush chain."""
        I, J = pair
        P = Packing(I.r, _top(I, J))
        A, B = P.pack_ideal(I), P.pack_ideal(J)
        assert P.covers(A, B) == ref.contains_ideal_ref(I.generators, J.generators)
        assert P.covers(A, A)

    @KERNEL_SETTINGS
    @given(st.integers(2, 5).flatmap(lambda r: st.tuples(ideals(r), st.integers(1, r))))
    def test_delete_variable(self, case):
        I, j = case
        assert delete_variable(I, j).generators == ref.delete_variable_ref(I.generators, j)

    def test_many_variables(self):
        # fields of 1 and 11 bytes, packed ints of several thousand bits
        rng = random.Random(707)
        r = 600
        for cap in (3, 2**80):
            gens = [
                tuple(rng.choice((0, 0, 1, cap)) for _ in range(r)) for _ in range(6)
            ]
            I, J = minimize(gens[:3], r), minimize(gens[3:], r)
            A, B = I.generators, J.generators
            assert I.generators == ref.minimal(gens[:3])
            assert power(I, 2).generators == ref.power_ref(A, 2, r)
            assert intersect(I, J).generators == ref.intersect_ref(A, B)
            assert colon_ideal(I, J).generators == ref.colon_ideal_ref(A, B, r)
            P = Packing(r, _top(I, J))
            assert P.covers(P.pack_ideal(I), P.pack_ideal(J)) == ref.contains_ideal_ref(A, B)
            assert delete_variable(I, r).generators == ref.delete_variable_ref(A, r)


@st.composite
def ladder_cases(draw):
    """(I, k): 1..4 generators in 1..3 variables, exponents at most a top
    in 17..40 that one of them reaches, and k up to 8, so that k·top
    crosses 127, past which a one-byte field needs two."""
    r = draw(st.integers(1, 3))
    top = draw(st.integers(17, 40))
    gens = draw(st.lists(st.tuples(*[st.integers(0, top)] * r), min_size=1, max_size=4))
    axis = draw(st.integers(0, r - 1))
    gens[0] = gens[0][:axis] + (top,) + gens[0][axis + 1 :]
    return minimize(gens, r), draw(st.integers(0, 8))


class TestLadder:
    @KERNEL_SETTINGS
    @given(ladder_cases())
    @example((ideal(2, (40, 0), (3, 5), (0, 17)), 8))
    def test_powers_match_the_combination_reference(self, case):
        """Every power the ladder holds, I^0..I^k read after climbing to
        I^k, so across a re-pack, and `power`, equal the reference."""
        I, k = case
        ladder = Ladder(I)
        ladder[k]
        assert ladder.P.width == (16 if k * _top(I) > 127 else 8)
        for j in range(k + 1):
            assert ladder.P.ideal(ladder[j]).generators == ref.power_ref(I.generators, j, I.r)
        assert power(I, k).generators == ref.power_ref(I.generators, k, I.r)

    def test_climbing_lets_go_of_the_powers_below(self, monkeypatch):
        """`ideal` climbs to I^k holding at most two powers on the way,
        and charges the products of I^1..I^(k-1) times I."""
        I = ideal(2, (2, 0), (1, 1), (0, 3))
        held = []
        climb = Ladder.climb

        def spy_climb(self):
            climb(self)
            held.append(len(self.powers))

        monkeypatch.setattr(Ladder, "climb", spy_climb)
        ladder = Ladder(I)
        with enumeration_budget() as meter:
            assert ladder.ideal(6) == ideal(2, *ref.power_ref(I.generators, 6, 2))
        assert held == [2] * 5
        assert (ladder.low, len(ladder.powers)) == (6, 1)
        assert meter.used == sum(len(ref.power_ref(I.generators, j, 2)) * 3 for j in range(1, 6))


@st.composite
def overlapping_pairs(draw):
    """(I, J), both proper and nonzero, J built from I's generators: each is
    kept, raised in one variable or dropped, and a few new ones join.  One
    side then often lies in the other or shares generators with it.  The
    raise by 130 crosses a one-byte field."""
    r = draw(RANKS)
    vectors = st.tuples(*[st.integers(0, 6)] * r).filter(any)
    gens = draw(st.lists(vectors, min_size=1, max_size=6))
    derived = []
    for g in gens:
        action = draw(st.sampled_from(("keep", "raise", "drop")))
        if action == "keep":
            derived.append(g)
        elif action == "raise":
            i = draw(st.integers(0, r - 1))
            e = draw(st.sampled_from((1, 2, 130)))
            derived.append(g[:i] + (g[i] + e,) + g[i + 1 :])
    derived += draw(st.lists(vectors, min_size=0 if derived else 1, max_size=3))
    pair = (minimize(gens, r), minimize(derived, r))
    return pair[::-1] if draw(st.booleans()) else pair


def overlap_case(I, J):
    """Which way `Packing.meet` goes on (I, J), read from the references."""
    A, B = I.generators, J.generators
    if ref.contains_ideal_ref(B, A):
        return "I in J"
    if ref.contains_ideal_ref(A, B):
        return "J in I"
    if set(A) & set(B):
        return "shared generator"
    return "both outside"


@st.composite
def floors_and_candidates(draw):
    """(F, candidates): an ideal F and up to 8 monomials, each drawn at
    random or as a generator of F times a random monomial, so that both
    sides of F are drawn."""
    r = draw(RANKS)
    F = draw(ideals(r))
    cands = []
    for v in draw(st.lists(exponent_vectors(r), max_size=8)):
        if F.generators and draw(st.booleans()):
            g = draw(st.sampled_from(F.generators))
            v = tuple(map(sum, zip(g, v)))
        cands.append(v)
    return F, cands


class TestFloorSieve:
    """The Ratliff-Rush chain drops the colon and lcm candidates that lie
    in a floor ideal F before `Packing.minimal` sees them.  A divisor of a
    monomial outside F lies outside F too, so the minimal candidates
    outside F are the candidates outside F that are minimal among all."""

    @KERNEL_SETTINGS
    @given(floors_and_candidates())
    def test_minimal_commutes_with_the_floor(self, case):
        F, cands = case
        P = Packing(F.r, max((max(v) for v in [*F.generators, *cands]), default=0))
        packed = [P.pack(v) for v in cands]
        floor = P.lay(P.pack_ideal(F))
        outside = P.outside(floor, packed)
        assert [P.unpack(p) for p in outside] == [
            v for v in cands if not monomial_in(v, F.generators)
        ]
        assert P.minimal(outside) == P.outside(floor, P.minimal(packed))

    @KERNEL_SETTINGS
    @given(RANKS.flatmap(lambda r: st.tuples(ideals(r), ideals(r), ideals(r))))
    def test_meet_above_a_floor(self, case):
        """With F as floor, `meet` of the generators of A and B outside F
        gives those of (F + A) meet (F + B) outside F."""
        F, A, B = case
        P = Packing(F.r, _top(F, A, B))
        floor = P.lay(P.pack_ideal(F))
        E_a, E_b = (P.outside(floor, P.pack_ideal(J)) for J in (A, B))
        above = [ref.minimal(F.generators + J.generators) for J in (A, B)]
        expected = [
            g for g in ref.intersect_ref(*above) if not monomial_in(g, F.generators)
        ]
        assert [P.unpack(p) for p in reversed(P.meet(E_a, E_b, floor))] == expected


class TestMeetOnOverlappingIdeals:
    """`meet` forms lcms only between the generators of each side outside
    the other; on pairs built to overlap, against `oracles`."""

    def test_every_case_is_drawn(self):
        seen = set()

        @KERNEL_SETTINGS
        @given(overlapping_pairs())
        def record(pair):
            seen.add(overlap_case(*pair))

        record()
        assert seen == {"I in J", "J in I", "shared generator", "both outside"}

    @KERNEL_SETTINGS
    @given(overlapping_pairs())
    def test_intersect(self, pair):
        I, J = pair
        got = intersect(I, J)
        assert got.generators == ref.intersect_ref(I.generators, J.generators)
        case = overlap_case(I, J)
        if case == "I in J":
            assert got is I
        elif case == "J in I":
            assert got is J

    @KERNEL_SETTINGS
    @given(overlapping_pairs())
    def test_colon_ideal(self, pair):
        I, J = pair
        for A, B in ((I, J), (J, I)):
            expected = ref.colon_ideal_ref(A.generators, B.generators, A.r)
            assert colon_ideal(A, B).generators == expected


class TestVariableOps:
    def test_delete_variable_semantics(self):
        rng = random.Random(505)
        for _ in range(25):
            r = rng.choice((2, 3))
            gens = []
            for _ in range(rng.randint(1, 3)):
                v = (0,) * r
                while not any(v):
                    v = tuple(rng.randint(0, 3) for _ in range(r))
                gens.append(v)
            I = minimize(gens, r)
            j = rng.randint(1, r)
            D = delete_variable(I, j)
            big = max(max_exponents(I)) + 1
            for m in iter_box(tuple(3 for _ in range(r))):
                lifted = tuple(
                    big if i == j - 1 else c for i, c in enumerate(m)
                )
                assert monomial_in(m, D.generators) == monomial_in(
                    lifted, I.generators
                ), (I, j, m)

    def test_delete_variable_drops_coordinate(self):
        # y := 1 turns y^3 into a unit
        I = ideal(2, (2, 1), (0, 3))
        assert delete_variable(I, 2) == unit_ideal(2)
        assert delete_variable(I, 1) == ideal(2, (0, 1))

    def test_delete_variable_requires_r_at_least_two(self):
        with pytest.raises(InputError):
            delete_variable(ideal(1, (2,)), 1)

    def test_used_variables(self):
        I = minimize([(2, 0, 0), (1, 1, 0)], 3)
        assert used_variables(I) == (1, 2)

    def test_is_pure_power(self):
        # the flag covers ideals generated entirely by single-variable powers
        assert is_pure_power(ideal(3, (0, 4, 0)))
        assert is_pure_power(ideal(3, (1, 0, 0), (0, 1, 0)))
        assert not is_pure_power(ideal(3, (1, 1, 0)))
        assert not is_pure_power(ideal(3, (2, 0, 0), (1, 1, 0)))
        assert not is_pure_power(zero_ideal(3))


def check_box(gens, bounds):
    """Every cell of BoxTable(gens, bounds) against raw divisibility, read
    through the byte table and the bitset alike."""
    t = BoxTable(tuple(gens), bounds)
    assert t.dims == tuple(b + 1 for b in bounds)
    assert len(t.table) == prod(t.dims)
    assert t.bits >> len(t.table) == 0
    for idx, m in enumerate(iter_box(bounds)):
        expected = monomial_in(m, gens)
        assert (t.bits >> idx) & 1 == expected, (gens, bounds, m)
        assert t.table[idx] == expected
        assert t.point(idx) == m
    assert list(t.points(t.bits)) == [m for m in iter_box(bounds) if monomial_in(m, gens)]
    return t


class TestBoxTable:
    def test_matches_direct_membership(self):
        rng = random.Random(606)
        for _ in range(30):
            r = rng.choice((2, 3))
            gens = []
            for _ in range(rng.randint(1, 4)):
                v = (0,) * r
                while not any(v):
                    v = tuple(rng.randint(0, 4) for _ in range(r))
                gens.append(v)
            bounds = tuple(rng.randint(1, 6) for _ in range(r))
            check_box(gens, bounds)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_every_ambient_up_to_four(self, r):
        rng = random.Random(600 + r)
        for _ in range(15):
            # exponents up to 7 reach past bounds down to 0, so some
            # generators fall outside the box
            gens = [
                tuple(rng.randint(0, 7) for _ in range(r))
                for _ in range(rng.randint(1, 5))
            ]
            bounds = tuple(rng.randint(0, 9 if r < 4 else 5) for _ in range(r))
            check_box(gens, bounds)

    def test_byte_table_built_on_first_read(self):
        t = BoxTable([(1, 2)], (3, 3))
        assert t._table is None
        assert t.table is t.table and t._table is not None

    @pytest.mark.parametrize("bounds", [(0,), (4,), (0, 0), (3, 0, 2), (2, 2, 2, 2)])
    def test_empty_generator_list(self, bounds):
        t = check_box([], bounds)
        assert t.bits == 0 and not any(t.table)

    @pytest.mark.parametrize("bounds", [(0,), (4,), (0, 0), (3, 0, 2), (2, 2, 2, 2)])
    def test_unit_generator_fills_the_box(self, bounds):
        t = check_box([(0,) * len(bounds)], bounds)
        assert t.bits == (1 << len(t.table)) - 1

    def test_zero_bounds(self):
        assert check_box([(0, 0, 0)], (0, 0, 0)).bits == 1
        assert check_box([(1, 0, 0)], (0, 0, 0)).bits == 0

    def test_generators_outside_the_box_are_dropped(self):
        t = check_box([(5, 0), (0, 5), (4, 4)], (3, 3))
        assert t.bits == 0
        t = check_box([(5, 0), (1, 2)], (3, 3))
        assert list(t.points(t.bits)) == [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]

    def test_budget_refusal(self):
        with enumeration_budget(100), pytest.raises(BudgetError):
            BoxTable(((1, 1),), (1000, 1000))

    def test_iter_box_count(self):
        assert sum(1 for _ in iter_box((2, 3))) == 12
        assert list(iter_box((0, 0))) == [(0, 0)]


@st.composite
def saturation_cases(draw):
    """An ideal in 1..4 variables, a box past its exponents by up to 2 (by
    0 on an axis the ideal may leave unused, which then has length 1), and
    two axes to saturate along in turn, possibly the same one."""
    r = draw(st.integers(1, 4))
    unused = draw(st.sampled_from([None, *range(r)]))
    vectors = st.tuples(*[st.integers(0, 4 if r < 4 else 3)] * r)
    gens = [
        tuple(0 if k == unused else e for k, e in enumerate(g))
        for g in draw(st.lists(vectors, max_size=5))
    ]
    J = minimize(gens, r)
    bounds = tuple(
        c + (0 if k == unused else draw(st.integers(0, 2)))
        for k, c in enumerate(max_exponents(J))
    )
    axes = st.integers(0, r - 1)
    return J, bounds, draw(axes), draw(axes)


def saturated(J, axes):
    """J with the variables on the given 0-based axes set to 1."""
    if J.r == 1:
        return _zero_coords(J, frozenset(axes))
    for i in axes:
        J = delete_variable(J, i + 1)
    return J


class TestSaturation:
    @KERNEL_SETTINGS
    @given(saturation_cases())
    @example((minimize([(2, 0, 1), (1, 0, 3)], 3), (3, 0, 4), 1, 2))
    @example((minimize([(3,)], 1), (4,), 0, 0))
    def test_saturate_gives_the_table_of_the_saturation(self, case):
        """On a box past J's exponents, saturating J's table along axis i
        gives the table of J with x_(i+1) set to 1, once and twice over."""
        J, bounds, i, j = case
        t = BoxTable(J.generators, bounds)
        once = t.saturate(t.bits, i)
        assert once == BoxTable(saturated(J, [i]).generators, bounds).bits
        twice = t.saturate(once, j)
        assert twice == BoxTable(saturated(J, [i, j]).generators, bounds).bits
