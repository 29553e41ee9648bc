import random
from itertools import combinations_with_replacement

import pytest
from hypothesis import example, given, settings, strategies as st

import brodmann.cohomology as cohomology
import brodmann.monomials as monomials
from brodmann.assprimes import ass_power, max_ideal_in_ass
from brodmann.cli import example_ideal
from brodmann.cohomology import (
    DEFAULT_M_CAP,
    A0Result,
    RRResult,
    a0_observed,
    h0_m_monomials,
    ratliff_rush,
)
from brodmann.errors import BudgetError, InputError, enumeration_budget
from brodmann.monomials import (
    MonomialIdeal,
    Packing,
    _colon_above,
    _top,
    colon_ideal,
    minimize,
    power,
    unit_ideal,
    zero_ideal,
)

from conftest import random_ideal
from oracles import (
    a0_ref,
    colon_ideal_ref,
    contains_ideal_ref,
    full_support_prime,
    generator_power_ref,
    monomial_in,
    product_ref,
    ratliff_rush_ref,
)


def ideal(r, *gens):
    return minimize(gens, r)


def rr_example():
    return ideal(2, (4, 0), (3, 1), (1, 3), (0, 4))


def generator_powers(I, m):
    """The ideal of the m-th powers of I's generators, from the oracle."""
    return MonomialIdeal(I.r, generator_power_ref(I.generators, m))


class TestGeneratorPowerIdeal:
    def test_zero_exponent_is_unit(self):
        assert generator_powers(ideal(2, (2, 0), (1, 1)), 0) == unit_ideal(2)

    def test_generator_powers(self):
        I = ideal(2, (2, 0), (1, 1))
        assert generator_powers(I, 2) == ideal(2, (4, 0), (2, 2))

    def test_contained_in_power(self):
        rng = random.Random(111)
        for _ in range(20):
            I = random_ideal(rng)
            for m in range(1, 4):
                assert contains_ideal_ref(power(I, m).generators, generator_powers(I, m).generators)


class TestH0Monomials:
    def test_family_witnesses(self):
        rep = h0_m_monomials(example_ideal(5), 0)
        assert rep.nonzero
        assert set(rep.witnesses) == {(2, 3, 0), (3, 3, 0)}

    def test_maximal_ideal_itself(self):
        rep = h0_m_monomials(ideal(2, (1, 0), (0, 1)), 0)
        assert rep.nonzero
        assert rep.witnesses == ((0, 0),)

    def test_principal_has_no_torsion(self):
        rep = h0_m_monomials(ideal(2, (2, 1)), 1)
        assert not rep.nonzero
        assert rep.witnesses == ()

    def test_univariate_torsion_is_the_whole_quotient(self):
        # I^2/I^3 = (x^6)/(x^9) in K[x]: all of it is torsion
        rep = h0_m_monomials(ideal(1, (3,)), 2)
        assert rep.nonzero
        assert rep.witnesses == ((6,), (7,), (8,))

    def test_univariate_agrees_with_ass(self):
        for a in range(1, 5):
            I = ideal(1, (a,))
            for n in range(4):
                prime_in_ass = (1,) in ass_power(I, n, "both")
                assert max_ideal_in_ass(I, n) is prime_in_ass, (a, n)
                assert h0_m_monomials(I, n).nonzero is prime_in_ass, (a, n)

    def test_agrees_with_table_route_and_ass(self):
        rng = random.Random(222)
        for _ in range(20):
            I = random_ideal(rng)
            for n in range(2):
                rep = h0_m_monomials(I, n)
                assert rep.nonzero == max_ideal_in_ass(I, n), (I, n)
                assert rep.nonzero == (
                    full_support_prime(I.r) in ass_power(I, n)
                ), (I, n)

    def test_rejects_zero_unit(self):
        with pytest.raises(InputError):
            h0_m_monomials(zero_ideal(2), 1)
        with pytest.raises(InputError):
            h0_m_monomials(unit_ideal(2), 1)

    def test_budget_refusal(self):
        I = ideal(3, (9, 0, 0), (0, 9, 0), (0, 0, 9), (4, 4, 4))
        with enumeration_budget(10), pytest.raises(BudgetError):
            h0_m_monomials(I, 3)


class TestRatliffRush:
    def test_known_closure(self):
        res = ratliff_rush(rr_example(), 1)
        assert res.closure == ideal(2, *rr_example().generators, (2, 2))
        assert res.certified
        assert res.stabilized_at_m == 1
        assert res.chain_monotone

    def test_principal_is_already_closed(self):
        res = ratliff_rush(ideal(2, (2, 1)), 3)
        assert res.closure == power(ideal(2, (2, 1)), 3)
        assert res.certified
        assert res.stabilized_at_m == 0

    def test_closure_contains_power(self):
        rng = random.Random(333)
        for _ in range(25):
            I = random_ideal(rng)
            res = ratliff_rush(I, 1)
            assert contains_ideal_ref(res.closure.generators, power(I, 1).generators)
            assert res.chain_monotone

    def test_uncertified_when_cap_too_small(self):
        res = ratliff_rush(rr_example(), 1, m_cap=2)
        assert not res.certified
        assert res.stabilized_at_m == 2

    def test_certified_result_is_cap_independent(self):
        a = ratliff_rush(rr_example(), 1, m_cap=4)
        b = ratliff_rush(rr_example(), 1, m_cap=8)
        assert a.closure == b.closure
        assert a.stabilized_at_m == b.stabilized_at_m == 1

    def test_closure_product_containment(self):
        # closure(n) * closure(m) lands inside closure(n + m)
        rng = random.Random(444)
        count = 0
        while count < 12:
            I = random_ideal(rng)
            one = ratliff_rush(I, 1)
            two = ratliff_rush(I, 2)
            if not (one.certified and two.certified):
                continue
            count += 1
            square = product_ref(one.closure.generators, one.closure.generators)
            assert contains_ideal_ref(two.closure.generators, square), I

    def test_colon_chain_union_forms_agree(self):
        """The colon chain by generator powers reaches the same union as
        the definitional chain by full powers (scan m <= 4, n = 1)."""
        samples = [rr_example(), ideal(2, (2, 0), (1, 1))]
        rng = random.Random(555)
        while len(samples) < 12:
            samples.append(random_ideal(rng))
        for I in samples:
            by_full = [*power(I, 1).generators]
            by_gens = [*power(I, 1).generators]
            for m in range(1, 5):
                high = power(I, 1 + m)
                by_full += colon_ideal(high, power(I, m)).generators
                by_gens += colon_ideal(high, generator_powers(I, m)).generators
            assert minimize(by_full, I.r) == minimize(by_gens, I.r), I

    def test_per_step_colon_antitonicity(self):
        # a smaller denominator gives a larger colon, generator powers sit
        # inside the full power, so the generator-power colon dominates
        rng = random.Random(556)
        for _ in range(10):
            I = random_ideal(rng)
            for m in range(1, 4):
                high = power(I, 1 + m)
                full_colon = colon_ideal(high, power(I, m))
                gens_colon = colon_ideal(high, generator_powers(I, m))
                assert contains_ideal_ref(gens_colon.generators, full_colon.generators), (I, m)

    def test_packing_follows_the_powers_formed(self, monkeypatch):
        """A huge cap changes neither the answer nor the packing, which
        never holds more than the powers the chain reaches."""
        I, n = example_ideal(5), 3
        tops = []
        init = Packing.__init__

        def spy(self, r, top):
            tops.append(top)
            init(self, r, top)

        monkeypatch.setattr(Packing, "__init__", spy)
        res = ratliff_rush(I, n, 10**4000)
        m_reached = res.stabilized_at_m + 2
        assert res.certified and tops
        assert max(tops) <= (n + m_reached + 1) * _top(I)
        assert res == ratliff_rush(I, n, 6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(InputError):
            ratliff_rush(rr_example(), 0)
        with pytest.raises(InputError):
            ratliff_rush(rr_example(), 1, m_cap=1)
        with pytest.raises(InputError):
            ratliff_rush(zero_ideal(2), 1)


class TestA0Observed:
    def test_known_value(self):
        res = a0_observed(rr_example(), 3)
        assert res.value == 0
        assert res.flags == (True, False, False)
        assert res.certified
        assert res.warnings == ()

    def test_principal_never_flags(self):
        res = a0_observed(ideal(2, (2, 1)), 3)
        assert res.value is None
        assert res.flags == (False, False, False)
        assert res.certified

    def test_uncertified_scan_warns(self):
        res = a0_observed(rr_example(), 2, m_cap=2)
        assert not res.certified
        assert res.warnings

    def test_flag_count_matches_scan(self):
        res = a0_observed(rr_example(), 4)
        assert len(res.flags) == 4

    def test_rejects_a_cap_below_two(self):
        with pytest.raises(InputError, match="chain cap must be >= 2, got 1"):
            a0_observed(rr_example(), 3, m_cap=1)

    def test_a_huge_cap_changes_nothing(self):
        I = example_ideal(5)
        assert a0_observed(I, 3, 10**4000) == a0_observed(I, 3, 6)

    def test_forms_each_power_once_without_power(self, monkeypatch):
        """One ladder serves every degree: I^2, I^3, ... are each formed
        once, as far as the highest chain reaches, and `power` is never
        called."""
        I, n_max = example_ideal(5), 4
        expected = a0_observed(I, n_max)
        top = max(n + chain_reach(ratliff_rush(I, n)) for n in range(1, n_max + 1))
        powers = [power(I, k) for k in range(2, top + 1)]
        formed = []
        climb = monomials.Ladder.climb

        def spy_climb(self):
            climb(self)
            formed.append(self.P.ideal(self.powers[-1]))

        def no_power(*args):
            raise AssertionError(f"power{args} called")

        monkeypatch.setattr(monomials.Ladder, "climb", spy_climb)
        monkeypatch.setattr(monomials, "power", no_power)
        assert a0_observed(I, n_max) == expected
        assert formed == powers


CHAIN_SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def gapped_ideal(r, d):
    """Every x_i^d with x_i^(d-1) x_j and x_i x_j^(d-1) for each pair of
    neighbours on a cycle of the variables (one pair when r = 2): the gaps
    left at degree d make the colon chain climb for some steps, d - 3 of
    them at n = 1 when r = 2."""
    gens = []
    for i in range(r):
        j = (i + 1) % r
        for a, b in ((d, 0), (d - 1, 1), (1, d - 1)):
            gens.append(tuple(a * (k == i) + b * (k == j) for k in range(r)))
    return ideal(r, *gens)


@st.composite
def chain_cases(draw):
    """(I, n, m_cap) with r = 1..4, n = 1..4 and m_cap = 2..6.  I either
    has up to four random generators with exponents up to 4, whose chains
    mostly settle at once, or is a gapped ideal in two or three variables,
    whose chain climbs, so that a small cap leaves it uncertified.  The
    gapped ideals in three variables stop at degree 3 and n = 3, where the
    reference chain still takes well under a second."""
    r = draw(st.integers(1, 4))
    if r in (2, 3) and draw(st.booleans()):
        d = draw(st.integers(4, 6)) if r == 2 else 3
        I, n = gapped_ideal(r, d), draw(st.integers(1, 4 if r == 2 else 3))
    else:
        vector = st.tuples(*[st.integers(0, 4)] * r).filter(any)
        I = ideal(r, *draw(st.lists(vector, min_size=1, max_size=4)))
        n = draw(st.integers(1, 4))
    return I, n, draw(st.integers(2, 6))


class TestChainMatchesReference:
    @CHAIN_SETTINGS
    @given(chain_cases())
    @example((rr_example(), 1, 2))
    @example((gapped_ideal(2, 6), 1, 4))
    @example((gapped_ideal(3, 3), 1, 2))
    def test_ratliff_rush(self, case):
        I, n, m_cap = case
        res = ratliff_rush(I, n, m_cap)
        closure, stabilized_at_m, certified, monotone = ratliff_rush_ref(
            I.generators, n, m_cap, I.r
        )
        assert res.closure.generators == closure
        assert (res.n, res.stabilized_at_m) == (n, stabilized_at_m)
        assert (res.certified, res.chain_monotone) == (certified, monotone)

    @CHAIN_SETTINGS
    @given(chain_cases())
    @example((rr_example(), 2, 2))
    def test_a0_observed(self, case):
        I, n_max, m_cap = case
        res = a0_observed(I, n_max, m_cap)
        value, flags, uncertified = a0_ref(I.generators, n_max, m_cap, I.r)
        assert (res.value, res.flags) == (value, flags)
        assert (res.certified, len(res.warnings)) == (not uncertified, len(uncertified))


def spread_ideal(d, *mixed):
    """x1^d and x2^d with x1^a x2^(d-a) for each a of mixed: with a gap in
    the middle, C_1 can be I^n while C_2 is not."""
    return ideal(2, (d, 0), (0, d), *((a, d - a) for a in mixed))


# C_1 = I^n at n = 1, but C_2 is not, and the plateau is at 2
LATE_PLATEAU = [
    spread_ideal(8, 5, 3, 1),
    ideal(3, (6, 3, 0), (4, 5, 0), (4, 3, 3), (2, 6, 1), (1, 3, 6), (0, 5, 4)),
]


# chains that climb: at n = 1, rr_example() (which is gapped_ideal(2, 4))
# and gapped_ideal(3, 3) stop at 1, gapped_ideal(2, 5) and LATE_PLATEAU[0]
# at 2 and gapped_ideal(2, 6) at 3; each one step lower per step of n,
# down to 0
CLIMBING = {
    2: [rr_example(), gapped_ideal(2, 5), gapped_ideal(2, 6), LATE_PLATEAU[0]],
    3: [gapped_ideal(3, 3)],
}


@st.composite
def plateau_cases(draw):
    """(I, n, m_cap) with r = 2..3, n = 1..3 and m_cap in {2, 3, 6}.  I is
    one of CLIMBING, whose chains mostly stop past 0, so that the caps 2
    and 3 cut some of them short, or has up to four random generators with
    exponents up to 4, whose chains mostly stop at 0."""
    r = draw(st.integers(2, 3))
    if draw(st.booleans()):
        I = draw(st.sampled_from(CLIMBING[r]))
    else:
        vector = st.tuples(*[st.integers(0, 4)] * r).filter(any)
        I = ideal(r, *draw(st.lists(vector, min_size=1, max_size=4)))
    return I, draw(st.integers(1, 3)), draw(st.sampled_from((2, 3, 6)))


def plateau_examples(test):
    """The chains that stop past 0 or hit the cap: rr_example() stops at
    1, gapped_ideal(2, 6) at 3, each of LATE_PLATEAU at 2 after C_1 = I^n,
    and gapped_ideal(3, 3) at 1; each under every cap."""
    for I in (rr_example(), gapped_ideal(2, 6), *LATE_PLATEAU, gapped_ideal(3, 3)):
        for m_cap in (2, 3, 6):
            test = example((I, 1, m_cap))(test)
    return test


class TestPlateausPastZero:
    """The chain forms C_2 first and then C_1, C_3, C_4, ...: every field
    of `ratliff_rush` and `a0_observed` against the reference chain, on
    chains that stop past 0 and chains the cap cuts short."""

    @CHAIN_SETTINGS
    @given(plateau_cases())
    @plateau_examples
    def test_ratliff_rush(self, case):
        I, n, m_cap = case
        res = ratliff_rush(I, n, m_cap)
        closure, stabilized_at_m, certified, monotone = ratliff_rush_ref(
            I.generators, n, m_cap, I.r
        )
        assert res == RRResult(MonomialIdeal(I.r, closure), n, stabilized_at_m, certified, monotone)

    @CHAIN_SETTINGS
    @given(plateau_cases())
    @plateau_examples
    def test_a0_observed(self, case):
        I, n_max, m_cap = case
        res = a0_observed(I, n_max, m_cap)
        value, flags, uncertified = a0_ref(I.generators, n_max, m_cap, I.r)
        warnings = tuple(
            f"closure of power {n} not certified within chain cap {m_cap}" for n in uncertified
        )
        assert res == A0Result(value, flags, not uncertified, warnings)

    def test_the_climbing_chains_stop_past_zero(self):
        """CLIMBING, which the cases draw from, stops at 1, 2 and 3, and
        the caps cut some of its chains short."""
        stops = {
            res.stabilized_at_m if res.certified else ("cap", m_cap)
            for chains in CLIMBING.values()
            for I in chains
            for n in (1, 2, 3)
            for m_cap in (2, 3, 6)
            for res in [ratliff_rush(I, n, m_cap)]
        }
        assert {1, 2, 3, ("cap", 2), ("cap", 3)} <= stops

    @pytest.mark.parametrize("I", LATE_PLATEAU)
    def test_c1_at_the_floor_is_no_plateau(self, I):
        assert not colon_above(I, 1, 1) and colon_above(I, 1, 2)
        res = ratliff_rush(I, 1)
        assert (res.stabilized_at_m, res.certified) == (2, True)


class TestColonCount:
    """How many colons a chain forms: one when it stops at 0, and from
    there on C_1, then one per step up to the plateau's C_(j+2) or the cap."""

    @staticmethod
    def counting(monkeypatch):
        calls = []

        def spy(*args):
            calls.append(True)
            return _colon_above(*args)

        monkeypatch.setattr(cohomology, "_colon_above", spy)
        return calls

    @pytest.mark.parametrize(
        "I", [ideal(2, (2, 0), (1, 1), (0, 3)), ideal(3, (3, 0, 0), (1, 1, 1), (0, 2, 2))]
    )
    def test_a_chain_that_stops_at_zero_forms_one_colon(self, monkeypatch, I):
        calls = self.counting(monkeypatch)
        for n in range(1, 5):
            res = ratliff_rush(I, n)
            assert (res.stabilized_at_m, res.certified) == (0, True)
        assert len(calls) == 4
        assert a0_observed(I, 4).certified
        assert len(calls) == 4 + 4

    @pytest.mark.parametrize(
        "I,n,m_cap,count",
        [
            (rr_example(), 1, 6, 3),
            (gapped_ideal(2, 6), 1, 6, 5),
            (LATE_PLATEAU[0], 1, 6, 4),
            (gapped_ideal(2, 6), 1, 4, 4),
            (gapped_ideal(2, 6), 1, 2, 1),
        ],
    )
    def test_a_longer_chain(self, monkeypatch, I, n, m_cap, count):
        calls = self.counting(monkeypatch)
        ratliff_rush(I, n, m_cap)
        assert len(calls) == count


def colon_above_ref(I, n, m):
    """The generators of C_m = I^(n+m) : (g_1^m, ..., g_s^m) outside I^n,
    by the tuple reference of the colon."""
    C = colon_ideal_ref(power(I, n + m).generators, generator_power_ref(I.generators, m), I.r)
    return tuple(g for g in C if not monomial_in(g, power(I, n).generators))


def colon_above_args(I, n, m):
    """The arguments of `_colon_above` for C_m, packed as the chain packs them."""
    P = Packing(I.r, (n + m) * _top(I))
    qs = [m * g for g in P.pack_ideal(I)]
    floor = P.lay(P.pack_ideal(power(I, n)))
    return P, P.pack_ideal(power(I, n + m)), qs, floor


def colon_above(I, n, m):
    """The same generators from `_colon_above`."""
    P, gens, qs, floor = colon_above_args(I, n, m)
    return P.ideal(_colon_above(P, gens, qs, floor)).generators


@st.composite
def colon_steps(draw):
    """(I, n, m) with r = 1..4, n = 1..3 and m = 1..4.  I is a gapped ideal
    of degree 3..6 in one or two variables and 3..4 in three; in four
    variables, where the reference is slow, up to six generators of the
    one of degree 3.  About a quarter of the colons have generators outside
    I^n."""
    r = draw(st.integers(1, 4))
    gens = gapped_ideal(r, draw(st.integers(3, (6, 6, 4, 3)[r - 1]))).generators
    if r == 4:
        gens = draw(st.lists(st.sampled_from(gens), min_size=1, max_size=6, unique=True))
    return ideal(r, *gens), draw(st.integers(1, 3)), draw(st.integers(1, 4))


def widening_ideal(scale=8):
    """gapped_ideal(2, 6) with x1 raised to the scale-th power: its chain at
    n = 1 stops at m = 3.  With scale 8 the powers need two-byte fields from
    I^3 on, where C_2 is formed, and with scale 6 from I^4 on, where C_3 is."""
    return ideal(2, *((scale * a, b) for a, b in gapped_ideal(2, 6).generators))


def chain_order(count):
    """The m of the first count colons a chain forms: C_2, then C_1, C_3, C_4, ..."""
    return [2, 1, *range(3, count + 1)][:count]


class TestColonAboveTheFloor:
    """`_colon_above`, the kernel of the Ratliff-Rush chain, against the
    tuple reference of the colon, and the sieve that keeps the candidates
    in the floor I^n away from `Packing.minimal`."""

    @CHAIN_SETTINGS
    @given(colon_steps())
    def test_matches_the_reference(self, case):
        assert colon_above(*case) == colon_above_ref(*case)

    @CHAIN_SETTINGS
    @given(colon_steps(), st.data())
    def test_any_order_of_the_parts(self, case, data):
        """The parts are met in any order to the same generators, and the
        kernel leaves qs a reordering of itself."""
        P, gens, qs, floor = colon_above_args(*case)
        expected = _colon_above(P, gens, list(qs), floor)
        order = data.draw(st.permutations(qs))
        assert _colon_above(P, gens, order, floor) == expected
        assert sorted(order) == sorted(qs)

    def test_some_colons_leave_the_floor(self):
        outside = []

        @CHAIN_SETTINGS
        @given(colon_steps())
        def record(case):
            outside.append(bool(colon_above(*case)))

        record()
        assert sum(outside) >= len(outside) / 10

    @staticmethod
    def widths_of_a_widening_chain(monkeypatch, scale):
        """The packing width of each colon the chain of widening_ideal(scale)
        forms at n = 1, in order, after checking each colon against the
        reference for its m (C_2, C_1, C_3, C_4, C_5) and the result
        against the reference chain."""
        I, n = widening_ideal(scale), 1
        steps = []

        def spy(P, gens, qs, floor):
            got = _colon_above(P, gens, qs, floor)
            steps.append((P.width, P.ideal(got).generators))
            return got

        monkeypatch.setattr(cohomology, "_colon_above", spy)
        res = ratliff_rush(I, n)
        expected = [colon_above_ref(I, n, m) for m in chain_order(len(steps))]
        assert [c for _, c in steps] == expected
        assert all(c for _, c in steps[:3])
        closure, stabilized_at_m, certified, monotone = ratliff_rush_ref(
            I.generators, n, DEFAULT_M_CAP, I.r
        )
        assert (res.closure.generators, res.stabilized_at_m) == (closure, stabilized_at_m)
        assert (res.certified, res.chain_monotone) == (certified, monotone)
        return [width for width, _ in steps]

    def test_a_chain_that_widens_its_packing(self, monkeypatch):
        """The climb to C_2 widens the packing, before any colon is formed."""
        assert self.widths_of_a_widening_chain(monkeypatch, 8) == [16] * 5

    def test_a_chain_that_widens_past_c2(self, monkeypatch):
        """The climb to C_3 widens the packing after C_2 and C_1 are
        formed, so the chain re-packs them before comparing."""
        assert self.widths_of_a_widening_chain(monkeypatch, 6) == [8, 8, 16, 16, 16]

    @pytest.mark.parametrize(
        "I,n", [(widening_ideal(), 1), (gapped_ideal(3, 4), 2), (example_ideal(6), 2)]
    )
    def test_the_floor_stays_out_of_minimal(self, monkeypatch, I, n):
        """No colon or lcm candidate in I^n reaches `minimal` from the
        kernel, and I^n is laid out once for each packing that a colon runs
        under, and for no other.  The chains at n = 2 meet parts whose lcms
        fall in I^n.  The widening chain at n = 1 re-packs on its climb to
        I^3, before its first colon, so its entry packing lays nothing."""
        floor = power(I, n).generators
        packings, floor_lays, kernel, used = [], [], [], []
        init, lay, minimal = Packing.__init__, Packing.lay, Packing.minimal

        def spy_init(self, r, top):
            packings.append(self)
            init(self, r, top)

        def spy_lay(self, A):
            if [self.unpack(a) for a in A] == list(reversed(floor)):
                floor_lays.append(self)
            return lay(self, A)

        def spy_minimal(self, cands):
            cands = list(cands)
            if kernel:
                assert not [p for p in cands if monomial_in(self.unpack(p), floor)]
            return minimal(self, cands)

        def spy_kernel(*args):
            if args[0] not in used:
                used.append(args[0])
            kernel.append(True)
            try:
                return _colon_above(*args)
            finally:
                kernel.pop()

        monkeypatch.setattr(Packing, "__init__", spy_init)
        monkeypatch.setattr(Packing, "lay", spy_lay)
        monkeypatch.setattr(Packing, "minimal", spy_minimal)
        monkeypatch.setattr(cohomology, "_colon_above", spy_kernel)
        res = ratliff_rush(I, n)
        assert res.stabilized_at_m >= 1 and used
        assert floor_lays == used
        if I == widening_ideal():
            assert len(packings) > len(used)


def chain_reach(res):
    """How many steps above I^n a chain went: the powers it formed."""
    return res.stabilized_at_m + 2 if res.certified else res.stabilized_at_m


def walk_products(I, low, high):
    """The products of walking I^low up to I^high, |G(I^k)|·s per step."""
    s = len(I.generators)
    return sum(len(power(I, k).generators) * s for k in range(low, high))


class TestChainBudget:
    """Each power a chain forms is charged its products, on every call, so
    a request is refused exactly when its total passes the limit."""

    def fits_exactly(self, call, total):
        with enumeration_budget(total) as meter:
            res = call()
        assert meter.used == total
        with enumeration_budget(total - 1), pytest.raises(BudgetError, match="power walk"):
            call()
        with enumeration_budget() as meter:
            assert call() == res and call() == res
        assert meter.used == 2 * total

    @pytest.mark.parametrize("I,n", [(rr_example(), 2), (example_ideal(5), 3), (widening_ideal(), 1)])
    def test_ratliff_rush(self, I, n):
        res = ratliff_rush(I, n)
        total = walk_products(I, 1, n + chain_reach(res))
        self.fits_exactly(lambda: ratliff_rush(I, n), total)

    @pytest.mark.parametrize("I,n_max", [(rr_example(), 3), (example_ideal(5), 4)])
    def test_a0_observed_charges_one_ladder(self, I, n_max):
        top = max(n + chain_reach(ratliff_rush(I, n)) for n in range(1, n_max + 1))
        total = walk_products(I, 1, top)
        assert total < sum(
            walk_products(I, 1, n + chain_reach(ratliff_rush(I, n))) for n in range(1, n_max + 1)
        )
        self.fits_exactly(lambda: a0_observed(I, n_max), total)
