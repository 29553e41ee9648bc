import random
from itertools import combinations
from math import comb
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from brodmann import assprimes, cohomology, monomials
from brodmann.assprimes import (
    ass_of_quotient,
    ass_power,
    ass_profile,
    ass_witnesses,
    max_ideal_in_ass,
)
from brodmann.cli import example_ideal
from brodmann.cohomology import h0_m_monomials
from brodmann.errors import (
    BUDGET_ENV_VAR,
    DEFAULT_BUDGET,
    METHODS,
    BudgetError,
    InconsistencyError,
    InputError,
    charge_budget,
    enumeration_budget,
)
from brodmann.monomials import (
    MonomialIdeal,
    delete_variable,
    max_exponents,
    minimize,
    power,
    unit_ideal,
    used_variables,
    zero_ideal,
)

from conftest import random_ideal
from oracles import (
    brute_ass,
    colon_by_monomial,
    component_supports,
    divides,
    full_support_prime,
    localize_ref,
    monomial_in,
    power_ref,
    scan_ass_witnesses,
    scan_h0_witnesses,
    scan_max_ideal_in_ass,
    split_shell,
    unit,
)


def ideal(r, *gens):
    return minimize(gens, r)


def full_support_group(table, upper, lower):
    """The full-support group of `_prime_cells` on a power walk step (table,
    J^n, J^(n+1)): the socle cells of J^n/J^(n+1), 0 when it has none."""
    groups = dict(assprimes._prime_cells(table, lower, upper & ~lower))
    return groups.get(full_support_prime(len(table.dims)), 0)


class TestAssOfQuotient:
    def test_principal(self):
        assert ass_of_quotient(ideal(1, (2,))) == {(1,)}
        assert ass_of_quotient(ideal(2, (3, 2))) == {(1,), (2,)}

    def test_textbook_pair(self):
        # (x^2, xy) = (x) meet (x^2, y): one minimal, one embedded prime
        assert ass_of_quotient(ideal(2, (2, 0), (1, 1))) == {(1,), (1, 2)}

    def test_witness_needs_full_cap(self):
        # the maximal prime's witness here is x y, at the componentwise cap
        assert ass_of_quotient(ideal(2, (2, 1), (0, 2))) == {(2,), (1, 2)}

    def test_zero_and_unit_rejected(self):
        with pytest.raises(InputError):
            ass_of_quotient(zero_ideal(2))
        with pytest.raises(InputError):
            ass_of_quotient(unit_ideal(2))

    def test_matches_brute_force_on_random_ideals(self):
        rng = random.Random(909)
        for _ in range(60):
            I = random_ideal(rng)
            assert ass_of_quotient(I) == brute_ass(I), I

    def test_matches_brute_force_on_powers(self):
        rng = random.Random(910)
        for _ in range(15):
            I = random_ideal(rng)
            J = power(I, 2)
            assert ass_of_quotient(J) == brute_ass(J), I

    def test_enlarged_scan_box_finds_nothing_new(self):
        """All witnesses live inside the componentwise generator cap: a scan
        with extra margin yields the same primes on small random ideals."""
        rng = random.Random(911)
        for _ in range(30):
            r = 2
            gens = []
            for _ in range(rng.randint(1, 3)):
                v = (0, 0)
                while not any(v):
                    v = tuple(rng.randint(0, 3) for _ in range(r))
                gens.append(v)
            J = minimize(gens, r)
            if J.is_unit():
                continue
            caps = max_exponents(J)
            wide = set()
            for a in range(caps[0] + 3):
                for b in range(caps[1] + 3):
                    m = (a, b)
                    if monomial_in(m, J.generators):
                        continue
                    cg = colon_by_monomial(J.generators, m)
                    if cg and all(sum(v) == 1 for v in cg):
                        wide.add(
                            tuple(sorted(i + 1 for v in cg for i in range(r) if v[i]))
                        )
            assert ass_of_quotient(J) == frozenset(wide), J

    def test_budget_refusal(self):
        big = ideal(3, (9, 0, 0), (0, 9, 0), (0, 0, 9), (5, 5, 5))
        with enumeration_budget(50), pytest.raises(BudgetError):
            ass_of_quotient(power(big, 3))


class TestMaxIdealMembership:
    def test_family_values(self):
        I = example_ideal(5)
        assert max_ideal_in_ass(I, 0) is True
        assert max_ideal_in_ass(I, 1) is True
        assert max_ideal_in_ass(I, 2) is False
        assert max_ideal_in_ass(I, 3) is False

    def test_univariate_maximal_ideal_is_associated(self):
        # I^2/I^3 = (x^6)/(x^9) in K[x] is killed by x^3
        assert max_ideal_in_ass(ideal(1, (3,)), 2) is True

    def test_unused_variable_shortcut(self):
        I = ideal(3, (2, 0, 0), (1, 1, 0))
        for n in range(3):
            assert max_ideal_in_ass(I, n) is False

    def test_agrees_with_quotient_route(self):
        rng = random.Random(912)
        for _ in range(25):
            I = random_ideal(rng)
            for n in range(2):
                expected = full_support_prime(I.r) in ass_power(I, n)
                assert max_ideal_in_ass(I, n) == expected, (I, n)


class TestMethodAgreement:
    @pytest.mark.parametrize(
        "gens,r",
        [
            ([(2, 0), (1, 1)], 2),
            ([(2, 1), (0, 2)], 2),
            ([(3, 0), (0, 3)], 2),
            ([(2, 0, 0), (1, 1, 0)], 3),
            ([(1, 1, 1)], 3),
            ([(4, 0, 0), (0, 4, 0), (1, 1, 1)], 3),
        ],
    )
    def test_specific_ideals(self, gens, r):
        I = minimize(gens, r)
        for n in range(3):
            q = ass_power(I, n, method="quotient")
            rec = ass_power(I, n, method="recursion")
            assert q == rec, (I, n)
            assert ass_power(I, n, method="both") == q

    def test_recursion_handles_unused_variables(self):
        # no generator uses x3, so no prime holds it: only the supports of
        # the used variables are localized
        I = ideal(3, (2, 0, 0), (1, 1, 0))
        for n in range(3):
            assert ass_power(I, n, method="recursion") == ass_power(
                I, n, method="quotient"
            )
        assert ass_power(I, 0) == {(1,), (1, 2)}

    def test_unknown_method_rejected(self):
        with pytest.raises(InputError):
            ass_power(ideal(2, (1, 0)), 1, method="guess")

    def test_negative_power_rejected(self):
        with pytest.raises(InputError):
            ass_power(ideal(2, (1, 0)), -1)


class TestAssPower:
    def test_zero_and_unit_rejected(self):
        with pytest.raises(InputError):
            ass_power(zero_ideal(2), 1)
        with pytest.raises(InputError):
            ass_power(unit_ideal(2), 1)

    def test_pure_power_fast_path(self):
        assert ass_power(ideal(3, (0, 0, 5)), 4) == {(3,)}
        assert ass_power(ideal(3, (2, 0, 0), (0, 3, 0)), 2) == {(1, 2)}

    def test_quotient_equals_brute_definition(self):
        I = ideal(2, (2, 0), (1, 1))
        for n in range(3):
            assert ass_power(I, n) == brute_ass(power(I, n + 1)), n

    def test_graded_piece_witnesses_agree(self):
        """Ass(I^n/I^(n+1)) asks for witnesses inside I^n; with a widened
        scan box the filtered search finds the same primes as the plain
        Ass(R/I^(n+1)) computation on these samples."""
        rng = random.Random(913)
        samples = [ideal(2, (2, 0), (1, 1)), ideal(2, (2, 1), (0, 2))]
        while len(samples) < 10:
            I = random_ideal(rng)
            if I.r == 2:
                samples.append(I)
        for I in samples:
            for n in range(2):
                J = power(I, n + 1)
                Pn = power(I, n)
                caps = max_exponents(J)
                found = set()
                for a in range(caps[0] + 4):
                    for b in range(caps[1] + 4):
                        m = (a, b)
                        if monomial_in(m, J.generators):
                            continue
                        if not monomial_in(m, Pn.generators):
                            continue
                        cg = colon_by_monomial(J.generators, m)
                        if cg and all(sum(v) == 1 for v in cg):
                            found.add(
                                tuple(
                                    sorted(
                                        i + 1 for v in cg for i in range(2) if v[i]
                                    )
                                )
                            )
                assert ass_power(I, n) == frozenset(found), (I, n)


class TestProfile:
    def test_constant_profile(self):
        I = ideal(2, (2, 0), (1, 1))
        prof = ass_profile(I, 4)
        assert all(e == {(1,), (1, 2)} for e in prof.entries)
        assert prof.observed_stable_at == 0
        assert prof.non_monotone_at == ()

    def test_family_profile_shape(self):
        d = 5
        prof = ass_profile(example_ideal(d), d)
        small = frozenset({(1, 2), (1, 2, 3)})
        large = frozenset({(1, 2)})
        for n, entry in enumerate(prof.entries):
            assert entry == (small if n <= d - 4 else large), n
        assert prof.observed_stable_at == d - 3
        assert prof.non_monotone_at == ()

    def test_no_stabilization_when_last_entries_differ(self):
        # the maximal prime enters at n = 1 here, so a scan to n_max = 1
        # has no stable tail of length two
        I = ideal(3, (4, 2, 0), (1, 1, 2), (0, 2, 2))
        prof = ass_profile(I, 1)
        assert prof.entries[0] != prof.entries[1]
        assert prof.observed_stable_at is None

    def test_n_max_zero_rejected(self):
        with pytest.raises(InputError):
            ass_profile(ideal(2, (2, 0), (1, 1)), 0)

    def test_method_recorded(self):
        prof = ass_profile(ideal(2, (1, 1)), 2, method="recursion")
        assert prof.method == "recursion"
        assert prof.entries == (frozenset({(1,), (2,)}),) * 3


@st.composite
def proper_ideals(draw, max_r=4):
    """Proper nonzero ideals in 1..max_r variables, up to 5 generators;
    exponents up to 4 (up to 3 in four variables)."""
    r = draw(st.integers(1, max_r))
    top = 4 if r <= 3 else 3
    exponent_lists = st.lists(st.integers(0, top), min_size=r, max_size=r)
    gens = draw(
        st.lists(exponent_lists.filter(any), min_size=1, max_size=5).map(
            lambda gs: [tuple(g) for g in gs]
        )
    )
    return minimize(gens, r)


@st.composite
def multiplied_primary_ideals(draw, max_r=4):
    """w (I + (x_1^2, ..., x_r^2)): I from `proper_ideals` and w a
    squarefree monomial, so that I_S on every variable is w times an ideal
    primary to the maximal ideal."""
    I = draw(proper_ideals(max_r))
    w = draw(st.lists(st.integers(0, 1), min_size=I.r, max_size=I.r))
    pure = [tuple(2 * (j == i) for j in range(I.r)) for i in range(I.r)]
    return minimize([tuple(map(add, g, w)) for g in [*I.generators, *pure]], I.r)


# fixed examples: the suite is a regression check, not an open-ended search
ORACLE_SETTINGS = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)


class TestBitsetScansMatchCellScans:
    @ORACLE_SETTINGS
    @given(proper_ideals())
    def test_witness_dict_and_order(self, J):
        got = ass_witnesses(J)
        assert list(got.items()) == list(scan_ass_witnesses(J).items())

    @ORACLE_SETTINGS
    @given(proper_ideals(), st.integers(1, 3))
    def test_witnesses_certify_their_primes(self, I, k):
        """On J = I^k, the primes are those of the colon definition and each
        witness w has J : w generated by the variables of its prime, both
        read by reference code that builds no box."""
        J = minimize(power_ref(I.generators, k, I.r), I.r)
        got = ass_witnesses(J)
        assert frozenset(got) == brute_ass(J)
        for prime, w in got.items():
            variables = {tuple(int(j + 1 == i) for j in range(J.r)) for i in prime}
            assert set(colon_by_monomial(J.generators, w)) == variables, (prime, w)

    @pytest.mark.parametrize(
        "J",
        [
            power(example_ideal(6), 4),
            ideal(4, (3, 0, 0, 1), (0, 3, 0, 0), (0, 0, 3, 0), (1, 1, 1, 1)),
        ],
        ids=["worked_family", "four_variables"],
    )
    def test_witness_scan_builds_one_table_and_saturates_nothing(self, monkeypatch, J):
        """One `ass_witnesses` call builds one table, closes it once along
        each axis (the table's own build) and calls no `saturate`: a count
        of the scan's work that does not depend on the machine."""
        calls = []
        for name in ("__init__", "close", "saturate"):
            original = getattr(monomials.BoxTable, name)

            def counting(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(monomials.BoxTable, name, counting)
        ass_witnesses(J)
        counts = [calls.count(name) for name in ("__init__", "close", "saturate")]
        assert counts == [1, J.r, 0]

    @ORACLE_SETTINGS
    @given(proper_ideals(max_r=3), st.integers(0, 2))
    def test_max_ideal_boolean(self, I, n):
        assert max_ideal_in_ass(I, n) == scan_max_ideal_in_ass(I, n)

    @ORACLE_SETTINGS
    @given(proper_ideals(max_r=3), st.integers(0, 2))
    def test_h0_witnesses(self, I, n):
        assert h0_m_monomials(I, n).witnesses == scan_h0_witnesses(I, n)

    def test_table_count_on_worked_family(self, monkeypatch):
        """One table per power of the quotient route and one per box of a
        power walk, whose steps give the other powers on that box: 11
        tables of 27278 cells in all for d = 6, n = 0..6, both methods (7
        for the quotient route, 4 boxes for the walk of S = {1, 2, 3};
        S = {1, 2} is settled without one)."""
        built = []
        original = assprimes.BoxTable

        def counting(*args, **kwargs):
            table = original(*args, **kwargs)
            built.append(len(table.table))
            return table

        monkeypatch.setattr(assprimes, "BoxTable", counting)
        ass_profile(example_ideal(6), 6, method="both")
        assert (len(built), sum(built)) == (11, 27278)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: ass_witnesses(power(example_ideal(6), 4)),
            lambda: max_ideal_in_ass(example_ideal(6), 3),
            lambda: h0_m_monomials(example_ideal(6), 1),
        ],
        ids=["ass_witnesses", "max_ideal_in_ass", "h0_m_monomials"],
    )
    def test_axis_masks_built_once_per_box(self, monkeypatch, call):
        """Each box (one per call, or one per two powers of a power walk)
        builds its masks with one `_axis_mask` call per axis, the cells
        with coordinate >= 1 (`up`), from which the table derives its top
        masks and the masks of `close` and `BoxTable.above`; a second call
        builds them again (no mask outlives a call)."""
        built, tables = [], []
        original = monomials._axis_mask
        original_init = monomials.BoxTable.__init__

        def counting(*args):
            built.append(args)
            return original(*args)

        def init(self, *args):
            tables.append(self)
            original_init(self, *args)

        monkeypatch.setattr(monomials, "_axis_mask", counting)
        monkeypatch.setattr(monomials.BoxTable, "__init__", init)
        call()
        first = list(built)
        assert tables and first == [
            (t.total, s, d) for t in tables for s, d in zip(t.strides, t.dims)
        ]
        call()
        assert built == first + first


class TestLadderFedQuotientRoute:
    """The quotient route of `_entries` builds each power's table straight
    from the ladder's packed generators."""

    @ORACLE_SETTINGS
    @given(proper_ideals(), st.integers(0, 4))
    @example(ideal(2, (64, 0), (1, 1), (0, 3)), 4)
    @example(ideal(3, (64, 0, 1), (1, 1, 0), (0, 3, 0)), 3)
    def test_entries_match_the_public_route(self, I, n_max):
        """The packed route gives the entries of `ass_of_quotient` on each
        power.  The examples, with an exponent of 64, re-pack the ladder to
        two-byte fields at I^2, whose exponents are then unpacked."""
        entries = assprimes._entries(I, range(n_max + 1), "quotient")
        assert entries == tuple(ass_of_quotient(power(I, n + 1)) for n in range(n_max + 1))

    def test_builds_no_ideal_and_only_first_axis_masks(self, monkeypatch):
        """On the worked family for d = 6, n = 0..6, the quotient route
        constructs no `MonomialIdeal`, and each of its 7 tables makes one
        `_axis_mask` call per axis, for the `up` mask that `close` reads:
        the top masks of the scan are derived from it."""
        I = example_ideal(6)
        ideals, masks, tables = [], [], []
        monkeypatch.setattr(
            monomials.MonomialIdeal, "__post_init__", lambda self: ideals.append(self)
        )
        original_mask = monomials._axis_mask
        monkeypatch.setattr(
            monomials, "_axis_mask", lambda *args: masks.append(args) or original_mask(*args)
        )
        original_init = monomials.BoxTable.__init__

        def counting(self, *args):
            tables.append(self)
            original_init(self, *args)

        monkeypatch.setattr(monomials.BoxTable, "__init__", counting)
        assprimes._entries(I, range(7), "quotient")
        assert ideals == []
        assert len(tables) == 7
        assert masks == [(t.total, s, d) for t in tables for s, d in zip(t.strides, t.dims)]


class TestLocalizationLoop:
    """The recursion route localizes at each support S of the used variables
    and asks whether the maximal ideal is associated there."""

    @ORACLE_SETTINGS
    @given(proper_ideals())
    def test_matches_quotient_route_and_definition(self, I):
        for n in range(3):
            assert ass_power(I, n, "recursion") == ass_of_quotient(power(I, n + 1)), (I, n)
        assert ass_power(I, 0, "recursion") == brute_ass(I)

    @staticmethod
    def localized(I):
        """ass_power(I, n, "recursion") for n = 0..2, checked against both
        oracles, and the supports `_local_ideals` keeps: each with I_S's
        generators, or None when it is settled."""
        for n in range(3):
            got = ass_power(I, n, "recursion")
            assert got == ass_of_quotient(power(I, n + 1)), (I, n)
        assert ass_power(I, 0, "recursion") == brute_ass(I)
        local = dict(assprimes._local_ideals(I))
        for S, gens in local.items():
            assert gens in (None, localize_ref(I.generators, S)), (I, S)
        return local

    def test_support_localizing_to_the_unit_ideal_is_skipped(self):
        # x3*x4 has no variable in {1, 2}: there I_S is the unit ideal
        I = ideal(4, (2, 0, 0, 0), (1, 1, 0, 0), (0, 0, 1, 1))
        assert localize_ref(I.generators, (1, 2)) == unit(2)
        local = self.localized(I)
        assert (1, 2) not in local and (1, 2, 3) in local
        assert ass_power(I, 0, "recursion") == {(1, 3), (1, 4), (1, 2, 3), (1, 2, 4)}

    def test_pure_power_localization_adds_its_support(self, monkeypatch):
        # at {1, 2}, x1*x3*x4 becomes x1: I_S = (x1, x2^3), settled
        I = ideal(4, (2, 0, 0, 0), (0, 3, 0, 0), (1, 0, 1, 1))
        tested = []
        walk = assprimes._power_walk
        monkeypatch.setattr(
            assprimes, "_power_walk", lambda J, *at: tested.append(J) or walk(J, *at)
        )
        local = self.localized(I)
        assert localize_ref(I.generators, (1, 2)) == ideal(2, (1, 0), (0, 3)).generators
        assert local[(1, 2)] is None
        assert tested and ideal(2, (1, 0), (0, 3)) not in tested
        assert ass_power(I, 0, "recursion") == {(1, 2), (1, 2, 3), (1, 2, 4)}

    def test_support_with_an_unused_variable_is_not_associated(self):
        # at {1, 2, 3}, x1*x4 becomes x1, which swallows x1*x2: x2 drops out
        I = ideal(4, (1, 0, 0, 1), (1, 1, 0, 0), (0, 0, 2, 0))
        assert localize_ref(I.generators, (1, 2, 3)) == ideal(3, (1, 0, 0), (0, 0, 2)).generators
        assert (1, 2, 3) not in self.localized(I)
        for n in range(3):
            assert (1, 2, 3) not in ass_power(I, n, "recursion")

    @settings(ORACLE_SETTINGS, max_examples=100)
    @given(st.one_of(proper_ideals(), multiplied_primary_ideals()))
    @example(ideal(4, (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3), (1, 1, 1, 1)))
    @example(ideal(3, (3, 0, 0), (1, 2, 0), (1, 0, 2), (2, 1, 1)))
    @example(ideal(3, (1, 1, 1), (2, 2, 0)))
    def test_settled_supports_match_the_cell_scan(self, I):
        """Every proper I_S that `_local_ideals` settles without a walk
        agrees with the cell scan at n = 0..3: kept with None, the maximal
        ideal is associated at every n; left out, at none.  The examples
        are a primary non-pure-power I_S, one that is x1 times a primary
        ideal, and a principal I_S on two variables.  Walked supports come
        with the generators of I_S."""
        local = dict(assprimes._local_ideals(I))
        used = used_variables(I)
        for k in range(1, len(used) + 1):
            for S in combinations(used, k):
                J = MonomialIdeal(k, localize_ref(I.generators, S))
                if J.is_unit():
                    continue
                if local.get(S) is not None:
                    assert local[S] == J.generators, (I, S)
                    continue
                for n in range(4):
                    assert scan_max_ideal_in_ass(J, n) == (S in local), (I, S, n)

    def test_localizes_once_per_profile(self, monkeypatch):
        """The supports and their localizations do not depend on n: a
        longer profile forms them no more often, and forms a
        `MonomialIdeal` only for the one support it walks."""
        calls, formed = [], []
        original = assprimes._local_ideals
        monkeypatch.setattr(
            assprimes, "_local_ideals", lambda I: calls.append(I) or original(I)
        )
        monkeypatch.setattr(
            assprimes, "MonomialIdeal", lambda *args: formed.append(args) or MonomialIdeal(*args)
        )
        counts = []
        for n_max in (1, 6):
            calls.clear()
            formed.clear()
            ass_profile(example_ideal(5), n_max, "recursion")
            counts.append((len(calls), len(formed)))
        assert counts == [(1, 1), (1, 1)]

    @ORACLE_SETTINGS
    @given(proper_ideals(max_r=3), st.integers(1, 3), st.sampled_from(METHODS))
    def test_entries_equal_ass_power(self, I, n_max, method):
        entries = ass_profile(I, n_max, method).entries
        assert entries == tuple(ass_power(I, n, method) for n in range(n_max + 1))


@st.composite
def wide_ideals(draw):
    """Ideals in 1..5 variables, mostly four or five, with 2..6 generators
    of exponents up to 3: about a third of them have a walked support
    inside another."""
    r = draw(st.sampled_from((1, 2, 3, 4, 4, 5, 5, 5)))
    exponent_lists = st.lists(st.integers(0, 3), min_size=r, max_size=r).filter(any)
    return minimize(draw(st.lists(exponent_lists, min_size=2, max_size=6)), r)


# at {1, 2, 3, 4} every 3-subset is walked too, and all five are read off
# the one walk of the full support
NESTED = ideal(4, (3, 2, 3, 0), (2, 1, 3, 3), (1, 3, 2, 0), (3, 0, 3, 1), (2, 2, 1, 2))


class TestNestedSupports:
    """The recursion route walks only the supports in no larger walked
    support, and reads every walked support inside one off its walk."""

    @settings(ORACLE_SETTINGS, max_examples=100)
    @given(wide_ideals(), st.integers(1, 4))
    @example(NESTED, 3)
    def test_flags_match_a_walk_of_their_own(self, I, n_max):
        """For every walked S, the flags read off its containing walk are
        those of the full-support group of `_prime_cells` over a walk of
        I_S alone, and the profile charges no more than those separate
        walks."""
        ns = range(n_max + 1)
        walked = {S: J for S, J in assprimes._local_ideals(I) if J is not None}
        flags = assprimes._walked_flags(walked, ns)
        assert flags.keys() == walked.keys()
        with enumeration_budget() as separate:
            for S, gens in walked.items():
                J = MonomialIdeal(len(S), gens)
                alone = [bool(full_support_group(*t)) for t in assprimes._power_walk(J, ns)]
                assert flags[S] == alone, (I, S)
        with enumeration_budget() as shared:
            ass_profile(I, n_max, "recursion")
        assert shared.used <= separate.used

    def test_one_walk_for_five_walked_supports(self, monkeypatch):
        """The full support and its four 3-subsets are walked supports of
        NESTED; one walk decides all five, and n_max = 3 charges 92,886
        units, against 115,986 for five walks."""
        walks = []
        original = assprimes._power_walk
        monkeypatch.setattr(
            assprimes, "_power_walk", lambda J, ns: walks.append(J) or original(J, ns)
        )
        walked = [S for S, J in assprimes._local_ideals(NESTED) if J is not None]
        assert walked == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 3, 4)]
        with enumeration_budget() as meter:
            entries = ass_profile(NESTED, 3, "recursion").entries
        assert walks == [NESTED]
        assert meter.used == 92886
        assert entries == ass_profile(NESTED, 3, "quotient").entries

    @settings(ORACLE_SETTINGS, max_examples=100)
    @given(wide_ideals(), st.integers(0, 2))
    @example(NESTED, 2)
    def test_irreducible_components_give_the_primes(self, I, n):
        """The supports of the irreducible components of I^(n+1), from the
        Alexander dual, are Ass(I^n/I^(n+1)) on both routes: an oracle that
        builds no box and reaches five variables."""
        J = power_ref(I.generators, n + 1, I.r)
        want = component_supports(J, I.r)
        assert ass_power(I, n, "quotient") == ass_power(I, n, "recursion") == want

    @pytest.mark.parametrize("mutant", ["settle_a_walked_support", "drop_a_settled_support"])
    def test_quotient_route_checks_the_settled_supports(self, monkeypatch, mutant):
        """A quotient-only request checks its entries against the supports
        `_local_ideals` settles or drops: on the worked family, a rule that
        settles the walked {1, 2, 3}, associated only up to n = 1, or drops
        the settled {1, 2}, fails with both answers."""
        original = assprimes._local_ideals

        def broken(I):
            local = original(I)
            if mutant == "settle_a_walked_support":
                return [(S, None) for S, _ in local]
            return [(S, J) for S, J in local if S != (1, 2)]

        want = ass_profile(example_ideal(5), 3, "quotient")
        monkeypatch.setattr(assprimes, "_local_ideals", broken)
        with pytest.raises(InconsistencyError, match="settled supports disagree") as info:
            ass_profile(example_ideal(5), 3, "quotient")
        assert set(info.value.payload) == {"n", "quotient", "settled", "walked"}
        monkeypatch.setattr(assprimes, "_local_ideals", original)
        assert ass_profile(example_ideal(5), 3, "quotient") == want


@st.composite
def walk_ideals(draw):
    """Ideals in 1..4 variables, up to 3 generators, with exponents small
    enough for the cell scan to reach n = 7 (up to 4, 3, 2, 1 in 1..4
    variables); single generators among them."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    r = rng.choice((1, 2, 3, 3, 4, 4))
    gens = [[rng.randint(0, 5 - r) for _ in range(r)] for _ in range(rng.choice((1, 2, 3, 3, 3)))]
    return minimize([g for g in gens if any(g)] or [[1] * r], r)


WALK_SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)

# whole walks, walks that start past 0, and single steps
WALK_RANGES = [range(8), range(1, 8), range(3, 6), range(0, 1), range(4, 5), range(7, 8)]

# the worked family for d = 4 with its z on axis 2, 0 and 1: z stays at
# exponent <= 1 in every power, so the boxes outgrow the powers on that axis
FAMILY_ROTATIONS = [
    minimize([g[k:] + g[:k] for g in example_ideal(4).generators], 3) for k in range(3)
]


class TestPowerWalk:
    """The recursion route walks each I_S up its powers on bitsets,
    re-laying the walk on a larger box every two steps."""

    @WALK_SETTINGS
    @given(walk_ideals())
    @example(FAMILY_ROTATIONS[0])
    def test_flags_match_torsion_scans(self, J):
        """Across the re-seeds, the walk's flags match the cell scan, and so
        do the h0 witnesses, from a walk started at J^n."""
        walk = assprimes._power_walk(J, range(8))
        for n in range(8):
            cells = scan_h0_witnesses(J, n)
            flag = bool(assprimes._torsion(*next(walk)))
            assert flag == bool(cells), (J, n)
            assert h0_m_monomials(J, n).witnesses == cells, (J, n)
            assert max_ideal_in_ass(J, n) == flag, (J, n)

    @WALK_SETTINGS
    @given(walk_ideals(), st.sampled_from(WALK_RANGES))
    @example(FAMILY_ROTATIONS[0], range(8))
    @example(FAMILY_ROTATIONS[1], range(8))
    @example(FAMILY_ROTATIONS[2], range(8))
    @example(FAMILY_ROTATIONS[0], range(3, 8))
    @example(FAMILY_ROTATIONS[1], range(5, 6))
    def test_tables_are_the_powers_on_the_reseeded_box(self, J, ns):
        """A walk over ns gives len(ns) entries.  Each box reaches the
        exponents of J^n0 plus `steps` times those of J, n0 the power it
        starts at and steps two, or one for a single n, and holds the tables
        of J^n0..J^(n0+steps)."""
        caps = max_exponents(J)
        steps = min(2, len(ns))
        walk = list(assprimes._power_walk(J, ns))
        assert len(walk) == len(ns)
        for n, (table, upper, lower) in zip(ns, walk):
            n0 = n - (n - ns[0]) % steps
            start = max_exponents(MonomialIdeal(J.r, power_ref(J.generators, n0, J.r)))
            bounds = tuple(e + steps * c for e, c in zip(start, caps))
            assert table.dims == tuple(b + 1 for b in bounds), (J, n)
            for k, bits in ((n, upper), (n + 1, lower)):
                want = monomials.BoxTable(power_ref(J.generators, k, J.r), bounds).bits
                assert bits == want, (J, k)

    @WALK_SETTINGS
    @given(walk_ideals(), st.sampled_from(WALK_RANGES))
    @example(FAMILY_ROTATIONS[0], range(8))
    @example(FAMILY_ROTATIONS[2], range(3, 8))
    def test_socle_is_nonzero_with_the_torsion(self, J, ns):
        """On every step of a walk, the socle cells are torsion cells, and
        there are some exactly when there is torsion."""
        for table, upper, lower in assprimes._power_walk(J, ns):
            socle = full_support_group(table, upper, lower)
            torsion = assprimes._torsion(table, upper, lower)
            assert bool(socle) == bool(torsion), (J, ns)
            assert socle & ~torsion == 0, (J, ns)

    @WALK_SETTINGS
    @given(walk_ideals(), st.sampled_from(WALK_RANGES))
    @example(FAMILY_ROTATIONS[0], range(8))
    @example(FAMILY_ROTATIONS[2], range(3, 8))
    def test_groups_split_the_shell_cell_by_cell(self, J, ns):
        """On every step of a walk, the `_prime_cells` groups are the split
        of the shell J^n minus J^(n+1) on the step's box that `split_shell`
        makes cell by cell, each cell's prime read off the ideal itself
        and not off the box."""
        for n, (table, upper, lower) in zip(ns, assprimes._power_walk(J, ns)):
            groups = assprimes._prime_cells(table, lower, upper & ~lower)
            got = {prime: list(table.points(cells)) for prime, cells in groups}
            shell = (power_ref(J.generators, k, J.r) for k in (n, n + 1))
            assert got == split_shell(*shell, tuple(d - 1 for d in table.dims)), (J, n)

    @ORACLE_SETTINGS
    @given(proper_ideals(max_r=4))
    def test_profile_matches_quotient_route(self, I):
        entries = ass_profile(I, 8, "recursion").entries
        assert entries == tuple(ass_of_quotient(power(I, n + 1)) for n in range(9))

    def test_recursion_route_forms_no_power(self, monkeypatch):
        """The two routes share no power: the recursion route walks its
        own, so it answers with the quotient route's `_ladder_entry` made
        to fail, and so do the two torsion tools.  `power` keeps nothing,
        and the only powers read from it are the seeds of walks: I_T^0 for
        a profile and I_T^n for one n.  A quotient-only request reads
        none, its one ladder of I climbing every power it needs."""
        ideals = [example_ideal(5), ideal(4, (2, 1, 0, 1), (0, 2, 2, 0), (1, 0, 1, 2))]
        want = [ass_profile(I, 6).entries for I in ideals]
        torsion = [scan_h0_witnesses(I, 3) for I in ideals]
        seeds = []

        def spy(J, n):
            seeds.append(n)
            return power(J, n)

        def refuse(*args):
            raise AssertionError("quotient route called")

        monkeypatch.setattr(assprimes, "power", spy)
        for I, entries in zip(ideals, want):
            assert ass_profile(I, 6, "quotient").entries == entries
            assert ass_power(I, 3, "quotient") == entries[3]
        assert seeds == []
        monkeypatch.setattr(assprimes, "_ladder_entry", refuse)
        for I, entries, cells in zip(ideals, want, torsion):
            seeds.clear()
            assert ass_profile(I, 6, "recursion").entries == entries
            assert seeds and set(seeds) == {0}
            seeds.clear()
            assert ass_power(I, 3, "recursion") == entries[3]
            assert max_ideal_in_ass(I, 3) == (full_support_prime(I.r) in entries[3])
            assert h0_m_monomials(I, 3).witnesses == cells
            assert seeds and set(seeds) == {3}
        with pytest.raises(AssertionError, match="quotient route called"):
            ass_profile(ideals[0], 6, "both")

    def test_pure_power_ideal_walks_nothing(self):
        """An m-primary pure power ideal is associated at every n without a
        walk, whose boxes would grow in every variable: n = 40 in four
        variables charges nothing."""
        I = ideal(4, (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3))
        with enumeration_budget(DEFAULT_BUDGET) as meter:
            entries = ass_profile(I, 40, "recursion").entries
        assert meter.used == 0
        assert entries == ({(1, 2, 3, 4)},) * 41

    @pytest.mark.parametrize("call", [h0_m_monomials, max_ideal_in_ass])
    def test_torsion_tools_charge_two_tables(self, call):
        """Both torsion tools charge the products of I^1..I^39 times I,
        19690, and two tables of the box of I^40 plus I, 206 * 206 * 2
        cells (the z of I^40 is 0), and nothing more."""
        with enumeration_budget(DEFAULT_BUDGET) as meter:
            call(example_ideal(5), 40)
        assert meter.used == 19690 + 2 * 206 * 206 * 2

    def test_torsion_of_cubes_reaches_n_17(self):
        """The torsion tools answer at one large n for the price of that n:
        for the cubes in four variables, two tables of 55^4 cells and the
        4 * (C(20, 4) - 1) products of I^1..I^16 times I fit the default
        budget.
        I^17/I^18 is all torsion, 3^4 * C(20, 3) monomials: each exponent
        is 3q + t with t < 3 and the q summing to 17."""
        I = ideal(4, (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3))
        with enumeration_budget(DEFAULT_BUDGET) as meter:
            witnesses = h0_m_monomials(I, 17).witnesses
        assert meter.used == 2 * 55**4 + 4 * (comb(20, 4) - 1)
        assert len(witnesses) == 3**4 * comb(20, 3)
        with enumeration_budget(DEFAULT_BUDGET):
            assert max_ideal_in_ass(I, 17)

    @pytest.mark.parametrize(
        "d, n_max, method, charge", [(5, 40, "recursion", 2889429), (6, 30, "both", 2649288)]
    )
    def test_long_profiles_fit_the_default_budget(self, d, n_max, method, charge):
        with enumeration_budget(DEFAULT_BUDGET) as meter:
            prof = ass_profile(example_ideal(d), n_max, method)
        assert meter.used == charge
        assert prof.observed_stable_at == d - 3
        assert prof.entries[-1] == {(1, 2)}


class TestRequestBudget:
    """One budget covers every enumeration made inside its block."""

    @ORACLE_SETTINGS
    @given(
        proper_ideals(max_r=3),
        st.integers(0, 2),
        st.sampled_from(METHODS),
        st.integers(1, 3),
        st.integers(-2, 2),
    )
    def test_call_returns_exactly_when_its_charges_fit(self, I, n, method, div, offset):
        with enumeration_budget() as meter:
            want = ass_power(I, n, method)
        total = meter.used
        limit = max(1, total // div + offset)
        try:
            with enumeration_budget(limit) as metered:
                got = ass_power(I, n, method)
        except BudgetError:
            assert total > limit
        else:
            assert total <= limit
            assert (got, metered.used) == (want, total)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: power(example_ideal(5), 6),
            *(lambda m=m: ass_power(example_ideal(5), 3, m) for m in METHODS),
            *(lambda m=m: ass_profile(example_ideal(5), 4, m) for m in METHODS),
            lambda: cohomology.ratliff_rush(example_ideal(5), 3),
            lambda: cohomology.a0_observed(example_ideal(5), 3),
            lambda: h0_m_monomials(example_ideal(5), 3),
        ],
        ids=[
            "power",
            *(f"ass_power-{m}" for m in METHODS),
            *(f"ass_profile-{m}" for m in METHODS),
            "ratliff_rush", "a0_observed", "h0_m_monomials",
        ],
    )  # fmt: skip
    def test_a_request_charges_the_same_cold_or_warm(self, call):
        """Every power a request reads comes off a fresh ladder, so two
        calls in a row charge the same, the second after `power` has been
        asked for every power the first one read: `power` keeps none."""
        power.cache_clear()
        with enumeration_budget() as cold:
            want = call()
        for k in range(10):
            power(example_ideal(5), k)
        with enumeration_budget() as warm:
            assert call() == want
        assert warm.used == cold.used > 0

    def test_quotient_route_is_refused_at_its_last_climb(self):
        """A quotient-route profile is refused one below its total, and one
        below its total less its last table, at the climb to I^(n_max+1)."""
        I, n_max = example_ideal(5), 4
        last = power(I, n_max + 1)
        with enumeration_budget() as meter:
            want = ass_profile(I, n_max, "quotient")
        with enumeration_budget() as table:
            ass_of_quotient(last)
        with enumeration_budget(meter.used):
            assert ass_profile(I, n_max, "quotient") == want
        with enumeration_budget(meter.used - 1), pytest.raises(BudgetError, match="membership box"):
            ass_profile(I, n_max, "quotient")
        limit = meter.used - table.used - 1
        with enumeration_budget(limit), pytest.raises(BudgetError, match="power walk"):
            ass_profile(I, n_max, "quotient")

    def test_charges_add_up_only_inside_a_block(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "150")
        for _ in range(3):
            charge_budget(100, "box")
        with enumeration_budget() as meter, pytest.raises(BudgetError) as info:
            charge_budget(100, "box")
            charge_budget(100, "box")
        assert meter.used == 100
        assert str(info.value) == "box needs 100 lattice points, budget is 150, 100 already charged"

    def test_limit_stays_what_the_first_charge_read(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "150")
        with enumeration_budget() as meter:
            charge_budget(100, "box")
            monkeypatch.setenv(BUDGET_ENV_VAR, "1000")
            with pytest.raises(BudgetError, match="budget is 150, 100 already charged"):
                charge_budget(100, "box")
            monkeypatch.setenv(BUDGET_ENV_VAR, "lots")
            charge_budget(50, "box")
        assert (meter.limit, meter.used) == (150, 150)

    def test_limit_is_read_at_the_first_charge(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "lots")
        with enumeration_budget(), enumeration_budget(0):
            pass
        with enumeration_budget(0), pytest.raises(InputError, match="must be positive"):
            charge_budget(1)
        with enumeration_budget(), pytest.raises(InputError, match="must be an integer"):
            charge_budget(1)
