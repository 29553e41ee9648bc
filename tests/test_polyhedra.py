import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from brodmann.cli import example_ideal
from brodmann.errors import BudgetError, InputError, enumeration_budget
from brodmann.cohomology import h0_m_monomials
from brodmann.monomials import (
    MonomialIdeal,
    intersect,
    is_pure_power,
    max_exponents,
    minimize,
    power,
    used_variables,
)
from brodmann.polyhedra import (
    ConstraintSystem,
    _box_solutions,
    _det,
    bound_a1,
    bound_a2,
    build_system,
    designated_generator,
    extreme_rays,
    hilbert_generators,
    module_generators,
    norm_sq,
    solve_feasible,
    staircase_system,
)
from brodmann.radicals import ExactRadical, RadicalSum

from oracles import (
    box_solutions,
    cone_bound_ceils,
    decompose,
    hilbert_generators_ref,
    in_nonneg_span,
    is_prime,
    iter_box,
    module_generators_ref,
    monomial_in,
    power_ref,
    solve_nonneg,
    star_norm,
)


def ideal(r, *gens):
    return minimize(gens, r)


def orthant(e):
    return ConstraintSystem(e, (), ())


def gauss_det(rows):
    n = len(rows)
    A = [[Fraction(x) for x in row] for row in rows]
    sign = 1
    for col in range(n):
        sel = next((i for i in range(col, n) if A[i][col]), None)
        if sel is None:
            return Fraction(0)
        if sel != col:
            A[col], A[sel] = A[sel], A[col]
            sign = -sign
        for i in range(col + 1, n):
            f = A[i][col] / A[col][col]
            A[i] = [x - f * y for x, y in zip(A[i], A[col])]
    out = Fraction(sign)
    for i in range(n):
        out *= A[i][i]
    return out


class TestConstraintSystem:
    def test_validation(self):
        with pytest.raises(InputError):
            ConstraintSystem(0, (), ())
        with pytest.raises(InputError):
            ConstraintSystem(2, ((1,),), (0,))
        with pytest.raises(InputError):
            ConstraintSystem(2, ((1, 0),), ())
        with pytest.raises(InputError):
            ConstraintSystem(2, ((1, 0),), (0,), ("only_one",))
        with pytest.raises(InputError, match="must be distinct"):
            ConstraintSystem(2, ((1, 0),), (0,), ("a", "a"))

    @pytest.mark.parametrize(
        "rows, rhs, labels, message",
        [
            (((1, 0),), (0.5,), None, "non-integer right-hand side in (0.5,)"),
            (((1.5, 0),), (0,), None, "row (1.5, 0) is not a tuple of 2 integers"),
            (((True, 0),), (0,), None, "row (True, 0) is not a tuple of 2 integers"),
            (((1, 0),), (False,), None, "non-integer right-hand side in (False,)"),
            ([(1, 0)], (0,), None, "rows and right-hand sides must be tuples of one length"),
            (((1, 0),), [0], None, "rows and right-hand sides must be tuples of one length"),
            (([1, 0],), (0,), None, "row [1, 0] is not a tuple of 2 integers"),
            (((1, 0),), (0,), ["a", "b"], "labels must be a tuple of 2 strings, got ['a', 'b']"),
            (((1, 0),), (0,), ("a", 2), "labels must be a tuple of 2 strings, got ('a', 2)"),
        ],
        ids=[
            "float-rhs", "float-entry", "bool-entry", "bool-rhs", "list-rows", "list-rhs",
            "list-row", "list-labels", "int-label",
        ],
    )
    def test_refuses_non_int_entries_and_non_tuples(self, rows, rhs, labels, message):
        """A float right-hand side made `solve_feasible` answer with a
        float, a float row made `extreme_rays` raise a bare TypeError, and a
        list compares unequal to the same system of tuples."""
        with pytest.raises(InputError) as exc:
            ConstraintSystem(2, rows, rhs, labels)
        assert str(exc.value) == message

    def test_homogeneous_and_homogenized(self):
        sys_ = ConstraintSystem(2, ((1, -1),), (1,))
        assert not sys_.is_homogeneous()
        h = sys_.homogenized()
        assert h.is_homogeneous()
        assert h.rows == sys_.rows

    def test_satisfies(self):
        sys_ = ConstraintSystem(2, ((2, -1),), (0,))
        assert sys_.satisfies((1, 2))
        assert not sys_.satisfies((1, 3))
        assert not sys_.satisfies((-1, 0))

    def test_norms(self):
        assert norm_sq((3, -4)) == 25
        assert star_norm((3, -4)) == 4
        assert star_norm((0, 0)) == 0


class TestDeterminant:
    def test_matches_gaussian_elimination(self):
        rng = random.Random(1001)
        for _ in range(40):
            n = rng.randint(1, 5)
            rows = tuple(
                tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n)
            )
            assert _det(rows) == gauss_det(rows), rows

    def test_singular(self):
        assert _det(((1, 2), (2, 4))) == 0


class TestExtremeRays:
    def test_staircase_rays(self):
        assert extreme_rays(staircase_system(2, 2)) == [(1, 0), (1, 2)]
        assert extreme_rays(staircase_system(3, 2)) == [
            (1, 0, 0),
            (1, 2, 0),
            (1, 2, 4),
        ]
        assert (1, 3, 9) in extreme_rays(staircase_system(3, 3))

    def test_orthant_rays_are_units(self):
        assert extreme_rays(orthant(3)) == [
            (0, 0, 1),
            (0, 1, 0),
            (1, 0, 0),
        ]

    def test_single_variable(self):
        assert extreme_rays(ConstraintSystem(1, ((1,),), (0,))) == [(1,)]
        assert extreme_rays(ConstraintSystem(1, ((-1,),), (0,))) == []
        # the one empty subsystem, charged as one against the budget
        with enumeration_budget(1):
            assert extreme_rays(orthant(1)) == [(1,)]

    def test_requires_homogeneous(self):
        with pytest.raises(InputError):
            extreme_rays(ConstraintSystem(2, ((1, 0),), (1,)))

    def test_rays_are_primitive_and_feasible(self):
        rng = random.Random(1002)
        for _ in range(25):
            e = rng.randint(2, 4)
            k = rng.randint(1, 3)
            rows = tuple(
                tuple(rng.randint(-3, 3) for _ in range(e)) for _ in range(k)
            )
            sys_ = ConstraintSystem(e, rows, (0,) * k)
            rays = extreme_rays(sys_)
            from math import gcd
            for v in rays:
                assert sys_.satisfies(v)
                assert gcd(*v) == 1 if len(v) > 1 else v[0] == 1

    def test_rays_span_all_boxed_cone_points(self):
        rng = random.Random(1003)
        for _ in range(15):
            e = rng.randint(2, 3)
            k = rng.randint(1, 3)
            rows = tuple(
                tuple(rng.randint(-3, 3) for _ in range(e)) for _ in range(k)
            )
            sys_ = ConstraintSystem(e, rows, (0,) * k)
            rays = extreme_rays(sys_)
            from itertools import product as iproduct
            for v in iproduct(range(4), repeat=e):
                if sys_.satisfies(v):
                    assert in_nonneg_span(v, rays), (rows, v)

    def test_budget_refusal(self):
        rows = tuple(
            tuple((i * 7 + j * 3) % 5 - 2 for j in range(8)) for i in range(20)
        )
        sys_ = ConstraintSystem(8, rows, (0,) * 20)
        with enumeration_budget(10), pytest.raises(BudgetError) as info:
            extreme_rays(sys_)
        # 7 of the 20 rows and 8 coordinate hyperplanes: C(28, 7) subsystems
        assert str(info.value) == "ray subsystem enumeration needs 1184040 subsystems, budget is 10"


class TestNormBounds:
    def test_a1_oracles(self):
        assert bound_a1(staircase_system(2, 2)) == 4
        assert bound_a1(orthant(2)) == 2
        assert bound_a1(ConstraintSystem(1, (), ())) == 1
        # e = 3 staircase d = 2: columns (2,0), (-1,2), (0,-1);
        # the two largest squared norms are 5 and 4, so the bound is 6*sqrt(5)
        v = bound_a1(staircase_system(3, 2))
        assert v == ExactRadical(Fraction(6), 5)
        assert v.ceil() == 14

    def test_a2_oracles(self):
        one = ConstraintSystem(1, ((1,),), (1,))
        assert bound_a2(one) == 2
        plane = ConstraintSystem(2, ((1, 0), (0, 1)), (1, 1))
        v = bound_a2(plane)
        assert v == RadicalSum.of(2, ExactRadical.sqrt_of(2))
        assert v.ceil() == 4

    def test_a2_homogeneous_collapses_to_e_times_product(self):
        # columns (1,1) and (-1,0) have norms sqrt(2) and 1, rhs is zero
        sys_ = ConstraintSystem(2, ((1, -1), (1, 0)), (0, 0))
        assert bound_a2(sys_) == RadicalSum.of(ExactRadical(Fraction(2), 2))

    def test_bounds_with_an_unfactorable_radicand(self):
        # rhs (p, p, 1) with p and (2p^2 + 1) / 3 prime near 2^40:
        # |b|^2 = 3 * q with q a 79-bit prime
        p = 1099511628427
        assert is_prime(p) and is_prime((2 * p * p + 1) // 3)
        rows, rhs = ((1, 2), (3, 1), (2, 5)), (p, p, 1)
        sys_ = ConstraintSystem(2, rows, rhs)
        want = cone_bound_ceils(rows, rhs)
        assert bound_a1(sys_.homogenized()).ceil() == want["bound_a1"]
        a2 = bound_a2(sys_)
        assert a2.ceil() == want["bound_a2"]
        # columns (1,3,2) and (2,1,5): squared norms 14 and 30, product 420
        assert a2 == RadicalSum.of(
            ExactRadical.sqrt_of(420) * 2, ExactRadical.sqrt_of(420 * (2 * p * p + 1))
        )


BOX_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@st.composite
def boxed_systems(draw):
    """(system, box, pinned): e = 1..5, box 0..3, up to 3 rows, all of them
    nonnegative in about half the draws, pinned values up to 3 past the box."""
    e = draw(st.integers(1, 5))
    box = draw(st.integers(0, 3))
    low = 0 if draw(st.booleans()) else -3
    k = draw(st.integers(0, 3))
    rows = tuple(tuple(draw(st.integers(low, 3)) for _ in range(e)) for _ in range(k))
    rhs = tuple(draw(st.integers(-4, 8)) for _ in range(k))
    pinned = draw(st.dictionaries(st.integers(0, e - 1), st.integers(0, box + 3), max_size=e))
    return ConstraintSystem(e, rows, rhs), box, pinned


class TestBoxSolutions:
    """The pruned depth-first scan against the whole box tested point by point."""

    @BOX_SETTINGS
    @given(boxed_systems())
    @example((ConstraintSystem(3, ((1, 1, -1),), (5,)), 2, {2: 4}))
    @example((ConstraintSystem(2, ((0, 1), (0, -1)), (1, 0)), 3, {}))
    @example((ConstraintSystem(2, ((1, 2),), (0,)), 3, {0: 6, 1: 5}))
    @example((ConstraintSystem(4, ((1, 1, 1, 1),), (0,)), 2, {}))  # nothing to prune
    def test_equals_product_and_test(self, case):
        sys_, box, pinned = case
        want = box_solutions(sys_.rows, sys_.rhs, sys_.e, box, pinned)
        assert list(_box_solutions(sys_, box, pinned)) == want

    @BOX_SETTINGS
    @given(boxed_systems())
    def test_feasibility_search_returns_the_first_solution(self, case):
        sys_, box, pinned = case
        want = box_solutions(sys_.rows, sys_.rhs, sys_.e, box, pinned)
        assert solve_feasible(sys_, pinned, box) == (want[0] if want else None)


class TestGeneratorsAgainstDefinitions:
    """Both generator enumerations against their definitions, read off the
    whole box: the kept-summand reduction and the single scan of the module
    enumeration give the same lists, element for element."""

    @BOX_SETTINGS
    @given(boxed_systems())
    def test_hilbert_generators(self, case):
        sys_, box, _ = case
        assume(sys_.rows)
        cap = max(box, 1)
        want = hilbert_generators_ref(sys_.rows, sys_.e, cap)
        assert hilbert_generators(sys_.homogenized(), cap) == want

    @BOX_SETTINGS
    @given(boxed_systems())
    @example((ConstraintSystem(2, ((2, -1),), (1,)), 3, {}))
    @example((ConstraintSystem(2, ((1, 1),), (-2,)), 2, {}))  # the origin is a solution
    def test_module_generators(self, case):
        sys_, box, _ = case
        assume(sys_.rows)
        cap = max(box, 1)
        want = module_generators_ref(sys_.rows, sys_.rhs, sys_.e, cap)
        assert module_generators(sys_, cap) == want


class TestHilbertGenerators:
    def test_staircase_oracles(self):
        assert hilbert_generators(staircase_system(2, 2), cap=4) == [
            (1, 0),
            (1, 1),
            (1, 2),
        ]
        gens = hilbert_generators(staircase_system(3, 2), cap=4)
        assert (1, 2, 4) in gens
        assert len(gens) == 9

    def test_orthant_units(self):
        assert hilbert_generators(orthant(2), cap=3) == [(0, 1), (1, 0)]

    def test_generators_obey_star_norm_bound(self):
        rng = random.Random(1004)
        for _ in range(15):
            e = rng.randint(2, 3)
            k = rng.randint(1, 2)
            rows = tuple(
                tuple(rng.randint(-3, 3) for _ in range(e)) for _ in range(k)
            )
            sys_ = ConstraintSystem(e, rows, (0,) * k)
            a1 = bound_a1(sys_)
            for v in hilbert_generators(sys_, cap=6):
                assert a1 >= star_norm(v), (rows, v)

    def test_every_boxed_solution_decomposes(self):
        sys_ = staircase_system(2, 3)
        gens = hilbert_generators(sys_, cap=9)
        from itertools import product as iproduct
        for v in iproduct(range(7), repeat=2):
            if not sys_.satisfies(v) or not any(v):
                continue
            found = decompose(v, gens)
            assert found is not None, v
            base, parts = found
            assert tuple(map(sum, zip(base, *parts))) == v

    def test_requires_homogeneous_and_cap(self):
        inhom = ConstraintSystem(2, ((1, 0),), (1,))
        with pytest.raises(InputError):
            hilbert_generators(inhom, cap=3)
        with pytest.raises(InputError):
            hilbert_generators(orthant(2), cap=0)


class TestModuleGenerators:
    def test_halfline(self):
        sys_ = ConstraintSystem(1, ((1,),), (1,))
        assert module_generators(sys_, cap=5) == [(1,)]

    def test_homogeneous_gives_origin(self):
        assert module_generators(staircase_system(2, 2), cap=3) == [(0, 0)]

    def test_slanted_halfplane(self):
        sys_ = ConstraintSystem(2, ((2, -1),), (1,))
        assert module_generators(sys_, cap=4) == [(1, 0), (1, 1)]

    def test_decompose_module(self):
        sys_ = ConstraintSystem(2, ((2, -1),), (1,))
        mgens = module_generators(sys_, cap=4)
        cone = hilbert_generators(sys_.homogenized(), cap=4)
        for v in iter_box((4, 4)):
            if not sys_.satisfies(v):
                continue
            found = decompose(v, cone, mgens)
            assert found is not None, v
            base, parts = found
            assert base in mgens
            assert tuple(map(sum, zip(base, *parts))) == v


class TestEDSystems:
    def test_ed1_layout_for_two_generator_ideal(self):
        I = ideal(2, (2, 0), (1, 1))
        sys_ = build_system(I, "ED1")
        assert sys_.e == 2 * 2 + 2
        assert sys_.labels[:3] == ("z", "y1", "y2")
        # designated generator is xy (largest support)
        assert designated_generator(I) == 1
        assert not sys_.is_homogeneous()

    def test_ed2_is_homogenized_ed1(self):
        I = ideal(2, (2, 0), (1, 1))
        ed1 = build_system(I, "ED1")
        ed2 = build_system(I, "ED2")
        assert ed2.rows == ed1.rows
        assert ed2.is_homogeneous()

    def test_ed3_variable_count(self):
        I = ideal(2, (2, 0), (1, 1))
        sys_ = build_system(I, "ED3")
        s = len(I.generators)
        assert sys_.e == s * (s - 1) + I.r + 2
        assert sys_.labels[:2] == ("z", "x")

    def test_variable_counts_on_family(self):
        I = minimize([(5, 0, 0), (4, 1, 0), (1, 4, 0), (0, 5, 0), (2, 3, 1)], 3)
        r, s = I.r, len(I.generators)
        assert build_system(I, "ED1").e == r * s + s
        assert build_system(I, "ED2").e == r * s + s
        assert build_system(I, "ED3").e == s * (s - 1) + r + 2

    def test_designated_generator_prefers_large_support(self):
        I = ideal(3, (2, 2, 0), (0, 0, 3), (1, 1, 1))
        assert I.generators[designated_generator(I)] == (1, 1, 1)

    def test_designated_generator_tie_takes_first(self):
        I = ideal(3, (2, 1, 0), (1, 0, 1), (0, 1, 1))
        assert designated_generator(I) == 0

    def test_pure_power_is_refused(self):
        with pytest.raises(InputError, match="fast path"):
            build_system(ideal(2, (3, 0)), "ED1")
        with pytest.raises(InputError):
            build_system(ideal(2, (2, 0), (0, 3)), "ED1")

    def test_unknown_mode(self):
        with pytest.raises(InputError):
            build_system(ideal(2, (1, 1), (2, 0)), "ED9")

    def test_ed1_feasibility_matches_membership(self):
        """Fixing z = n and y = b, ED1 is feasible exactly when t^b lies in
        I^(n-1) intersected with every single-variable localization power."""
        from brodmann.monomials import delete_variable

        I = ideal(2, (2, 0), (1, 1))
        sys_ = build_system(I, "ED1")
        for n in (1, 2):
            member = intersect(
                intersect(power(delete_variable(I, 1), n), power(delete_variable(I, 2), n)),
                power(I, n - 1),
            )
            for b1 in range(5):
                for b2 in range(5):
                    fixed = {"z": n, "y1": b1, "y2": b2}
                    witness = solve_feasible(sys_, fixed, box=2 * n + 2)
                    expected = monomial_in((b1, b2), member.generators)
                    assert (witness is not None) == expected, (n, (b1, b2))


@st.composite
def ed1_cases(draw):
    """(I, n) for n = 0..3: 2..4 generators in 2 variables with exponents
    up to 3, or 3 in 3 variables up to 2, every variable used and one
    generator in two variables at least (a pure power ideal has no ED
    systems).  ED1's x columns then number (s-1)(r+1) <= 9, so its box
    stays within the budget."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    r = rng.choice((2, 3))
    top, s_min, s_max = (3, 2, 4) if r == 2 else (2, 3, 3)
    while True:
        gens = [[rng.randint(0, top) for _ in range(r)] for _ in range(rng.randint(s_min, s_max))]
        I = minimize(gens, r)
        if len(I.generators) >= s_min and len(used_variables(I)) == r and not is_pure_power(I):
            return I, draw(st.integers(0, 3))


class TestED1MeansTorsion:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(ed1_cases())
    @example((ideal(2, (2, 0), (1, 1), (0, 3)), 2))
    def test_feasible_outside_the_next_power_is_the_h0_torsion(self, case):
        """Over the box of the exponents of I^(n+1), ED1 with z = n+1 and
        y = b is feasible, with b outside I^(n+1), exactly at the witnesses
        of `h0_m_monomials(I, n)`.  Every x column is at most z by the sum
        rows, so the box n+1 of `solve_feasible` is exact."""
        I, n = case
        sys_ = build_system(I, "ED1")
        upper = power_ref(I.generators, n + 1, I.r)
        ys = [f"y{j + 1}" for j in range(I.r)]
        torsion = tuple(
            b
            for b in iter_box(max_exponents(MonomialIdeal(I.r, upper)))
            if not monomial_in(b, upper)
            and solve_feasible(sys_, {"z": n + 1, **dict(zip(ys, b))}, n + 1) is not None
        )
        assert h0_m_monomials(I, n).witnesses == torsion


def sparse_rows(sys_):
    """Each row as its nonzero terms, coefficient then column label, and
    its right-hand side."""
    return [
        " ".join(f"{c:+d}{lab}" for c, lab in zip(row, sys_.labels) if c) + f" >= {b}"
        for row, b in zip(sys_.rows, sys_.rhs)
    ]


# the designated generator x1 x2 x3 x4 is second in canonical order
FOUR_VARIABLES = minimize([(3, 1, 0, 0), (0, 2, 1, 0), (1, 0, 0, 2), (1, 1, 1, 1)], 4)

# (labels, sparse_rows) as build_system wrote them when each mode had its own
# row loops; ED2 is ED1 with every right-hand side zero
FAMILY5_ED1 = (
    "z y1 y2 y3 x1 x2 x3 x4 x1_1 x1_2 x1_3 x1_4 x2_1 x2_2 x2_3 x2_4 x3_1 x3_2 x3_3 x3_4",
    [
        "-2z +1y1 -3x1 -2x2 +1x3 +2x4 >= -2",
        "-3z +1y2 +3x1 +2x2 -1x3 -2x4 >= -3",
        "-1z +1y3 +1x1 +1x2 +1x3 +1x4 >= -1",
        "+1z -1x1 -1x2 -1x3 -1x4 >= 1",
        "-3z +1y2 +3x1_1 +2x1_2 -1x1_3 -2x1_4 >= 0",
        "-1z +1y3 +1x1_1 +1x1_2 +1x1_3 +1x1_4 >= 0",
        "-2z +1y1 -3x2_1 -2x2_2 +1x2_3 +2x2_4 >= 0",
        "-1z +1y3 +1x2_1 +1x2_2 +1x2_3 +1x2_4 >= 0",
        "-2z +1y1 -3x3_1 -2x3_2 +1x3_3 +2x3_4 >= 0",
        "-3z +1y2 +3x3_1 +2x3_2 -1x3_3 -2x3_4 >= 0",
        "+1z -1x1_1 -1x1_2 -1x1_3 -1x1_4 >= 0",
        "+1z -1x2_1 -1x2_2 -1x2_3 -1x2_4 >= 0",
        "+1z -1x3_1 -1x3_2 -1x3_3 -1x3_4 >= 0",
    ],
)
FOUR_ED1 = (
    "z y1 y2 y3 y4 x1 x2 x3 x1_1 x1_2 x1_3 x2_1 x2_2 x2_3 x3_1 x3_2 x3_3 x4_1 x4_2 x4_3",
    [
        "-1z +1y1 -2x1 +1x3 >= -1",
        "-1z +1y2 +1x2 -1x3 >= -1",
        "-1z +1y3 +1x1 +1x2 >= -1",
        "-1z +1y4 +1x1 -1x2 +1x3 >= -1",
        "+1z -1x1 -1x2 -1x3 >= 1",
        "-1z +1y2 +1x1_2 -1x1_3 >= 0",
        "-1z +1y3 +1x1_1 +1x1_2 >= 0",
        "-1z +1y4 +1x1_1 -1x1_2 +1x1_3 >= 0",
        "-1z +1y1 -2x2_1 +1x2_3 >= 0",
        "-1z +1y3 +1x2_1 +1x2_2 >= 0",
        "-1z +1y4 +1x2_1 -1x2_2 +1x2_3 >= 0",
        "-1z +1y1 -2x3_1 +1x3_3 >= 0",
        "-1z +1y2 +1x3_2 -1x3_3 >= 0",
        "-1z +1y4 +1x3_1 -1x3_2 +1x3_3 >= 0",
        "-1z +1y1 -2x4_1 +1x4_3 >= 0",
        "-1z +1y2 +1x4_2 -1x4_3 >= 0",
        "-1z +1y3 +1x4_1 +1x4_2 >= 0",
        "+1z -1x1_1 -1x1_2 -1x1_3 >= 0",
        "+1z -1x2_1 -1x2_2 -1x2_3 >= 0",
        "+1z -1x3_1 -1x3_2 -1x3_3 >= 0",
        "+1z -1x4_1 -1x4_2 -1x4_3 >= 0",
    ],
)
FOUR_ED3 = (
    "z x y1 y2 y3 y4 x1_1 x1_2 x1_3 x2_1 x2_2 x2_3 x3_1 x3_2 x3_3 x4_1 x4_2 x4_3",
    [
        "-1z +2x +1y1 -2x1_1 +1x1_3 >= 0",
        "-1z +1y2 +1x1_2 -1x1_3 >= 0",
        "-1z -1x +1y3 +1x1_1 +1x1_2 >= 0",
        "-1z -1x +1y4 +1x1_1 -1x1_2 +1x1_3 >= 0",
        "+1z +1x -1x1_1 -1x1_2 -1x1_3 >= 0",
        "-1z +1y1 -2x2_1 +1x2_3 >= 0",
        "-1z -1x +1y2 +1x2_2 -1x2_3 >= 0",
        "-1z -1x +1y3 +1x2_1 +1x2_2 >= 0",
        "-1z +1x +1y4 +1x2_1 -1x2_2 +1x2_3 >= 0",
        "+1z +1x -1x2_1 -1x2_2 -1x2_3 >= 0",
        "-1z -1x +1y1 -2x3_1 +1x3_3 >= 0",
        "-1z +1x +1y2 +1x3_2 -1x3_3 >= 0",
        "-1z +1y3 +1x3_1 +1x3_2 >= 0",
        "-1z -1x +1y4 +1x3_1 -1x3_2 +1x3_3 >= 0",
        "+1z +1x -1x3_1 -1x3_2 -1x3_3 >= 0",
        "-1z +1y1 -2x4_1 +1x4_3 >= 0",
        "-1z +1y2 +1x4_2 -1x4_3 >= 0",
        "-1z +1y3 +1x4_1 +1x4_2 >= 0",
        "-1z +1y4 +1x4_1 -1x4_2 +1x4_3 >= 0",
        "+1z +1x -1x4_1 -1x4_2 -1x4_3 >= 0",
    ],
)



class TestEDLayout:
    """The whole layout of ED1/ED2 for the d = 5 worked family (ED3 of it
    is pinned by the CLI goldens) and of all three modes for a 4-variable,
    4-generator ideal whose designated generator is not last in canonical
    order: the j != i skip of ED1/ED2 and its row order show here."""

    @pytest.mark.parametrize(
        "I, mode, pinned",
        [
            (example_ideal(5), "ED1", FAMILY5_ED1),
            (FOUR_VARIABLES, "ED1", FOUR_ED1),
            (FOUR_VARIABLES, "ED3", FOUR_ED3),
        ],
        ids=["family5-ED1", "four-ED1", "four-ED3"],
    )
    def test_rows_rhs_and_labels(self, I, mode, pinned):
        labels, rows = pinned
        sys_ = build_system(I, mode)
        assert " ".join(sys_.labels) == labels
        assert sys_.e == len(sys_.labels)
        assert sparse_rows(sys_) == rows

    @pytest.mark.parametrize("I", [example_ideal(5), FOUR_VARIABLES], ids=["family5", "four"])
    def test_ed2_is_ed1_with_zero_right_hand_sides(self, I):
        ed1, ed2 = build_system(I, "ED1"), build_system(I, "ED2")
        assert (ed2.e, ed2.rows, ed2.labels) == (ed1.e, ed1.rows, ed1.labels)
        assert ed2.rhs == (0,) * len(ed1.rows)


class TestSolveFeasible:
    def test_membership_encoding_feasible(self):
        # multiplicities alpha with alpha1 + alpha2 = 2 and
        # 2 a1 + a2 <= 3, a2 <= 1 encode x^3 y in I^2 for I = (x^2, xy)
        sys_ = ConstraintSystem(
            2,
            ((1, 1), (-1, -1), (-2, -1), (0, -1)),
            (2, -2, -3, -1),
        )
        witness = solve_feasible(sys_, {}, box=2)
        assert witness is not None
        assert witness[0] == 1  # alpha_1 = 1 as in the hand computation

    def test_membership_encoding_infeasible(self):
        # same shape for x^2 y: no multiplicity split works
        sys_ = ConstraintSystem(
            2,
            ((1, 1), (-1, -1), (-2, -1), (0, -1)),
            (2, -2, -2, -1),
        )
        assert solve_feasible(sys_, {}, box=2) is None

    def test_trivial_monomial_in_homogeneous_system(self):
        I = ideal(2, (2, 0), (1, 1))
        ed2 = build_system(I, "ED2")
        fixed = {"z": 0, "y1": 0, "y2": 0}
        witness = solve_feasible(ed2, fixed, box=0)
        assert witness == (0,) * ed2.e

    def test_fix_validation(self):
        sys_ = ConstraintSystem(2, ((1, 0),), (0,), ("a", "b"))
        with pytest.raises(InputError):
            solve_feasible(sys_, {"c": 1}, box=2)
        with pytest.raises(InputError):
            solve_feasible(sys_, {5: 1}, box=2)
        with pytest.raises(InputError):
            solve_feasible(sys_, {"a": -1}, box=2)

    def test_bool_fixed_value_is_refused(self):
        sys_ = ConstraintSystem(1, ((1,),), (1,))
        with pytest.raises(InputError, match="must be a nonnegative integer"):
            solve_feasible(sys_, {0: True}, 1)

    @pytest.mark.parametrize("key", [True, 0.0, None])
    def test_key_that_is_not_a_label_or_index_is_refused(self, key):
        sys_ = ConstraintSystem(2, ((1, 0),), (1,))
        with pytest.raises(InputError, match="label or a 0-based index"):
            solve_feasible(sys_, {key: 1}, 1)

    def test_index_keys_work_without_labels(self):
        sys_ = ConstraintSystem(2, ((1, -1),), (0,))
        witness = solve_feasible(sys_, {0: 3}, box=3)
        assert witness is not None and witness[0] == 3

    def test_budget_refusal(self):
        sys_ = orthant(8)
        with enumeration_budget(100), pytest.raises(BudgetError):
            solve_feasible(sys_, {}, box=30)


class TestStaircase:
    def test_shape(self):
        sys_ = staircase_system(3, 2)
        assert sys_.e == 3
        assert sys_.rows == ((2, -1, 0), (0, 2, -1))
        assert sys_.is_homogeneous()
