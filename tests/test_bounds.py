import itertools
import random
import sys
from fractions import Fraction
from math import isqrt

import oracles as ref
import pytest

from brodmann.bounds import (
    BoundReport,
    _decimal_digits,
    _floor_times_root,
    bound_report,
    ideal_parameters,
)
from brodmann.cli import example_ideal
from brodmann.errors import InputError
from brodmann.monomials import minimize, unit_ideal, zero_ideal
from brodmann.radicals import ExactRadical, RadicalSum


class TestIndividualBounds:
    """Each threshold, read off its field of `bound_report`."""

    def test_b1_oracle(self):
        assert bound_report(2, 2, 2).b1 == 1024
        # r=2, s=3, d=3: 3*(6+3+3)*sqrt(2)^3*(3 sqrt(2))^6 = 419904 sqrt(2)
        rep = bound_report(2, 3, 3)
        assert rep.b1 == ExactRadical(Fraction(419904), 2)
        assert rep.b1.ceil() == rep.b1_ceil == 593834

    def test_b2_oracle(self):
        assert bound_report(2, 2, 2).b2 == 16777216
        expected = 5 * (5 + 3) ** 4 * 5 ** (3 + 2) * 5**2 * (2 * 25) ** (25 - 5 + 1)
        assert bound_report(3, 5, 5).b2 == expected

    def test_b3_readings(self):
        rep = bound_report(2, 2, 2)
        assert rep.b3 == RadicalSum.of(ExactRadical(Fraction(2048), 2), -1)
        assert rep.b3.ceil() == rep.b3_ceil == 2896
        assert rep.b3_floor_reading == 2895

    def test_b4_oracle(self):
        assert bound_report(2, 2, 2).b4 == 5791

    def test_b4_dominated_by_b2_on_grid(self):
        for r in range(1, 7):
            for s in range(1, 7):
                for d in range(1, 11):
                    rep = bound_report(r, s, d)
                    bracket = rep.b3 + RadicalSum.of(1)
                    # b4 >= 1, so b4 (b3 + 1) < b2 reads b3 + 1 < b2 / b4
                    assert bracket.compare(Fraction(rep.b2, rep.b4)) < 0, (r, s, d)

    def test_stabilization_is_max(self):
        assert bound_report(2, 2, 2).b_exact == 16777216
        # many variables and one generator: the radical side wins
        rep = bound_report(8, 1, 1)
        assert rep.b1 == ExactRadical(Fraction(40960), 8) and rep.b1 > rep.b2
        assert rep.b_exact == rep.b1 and rep.b_ceil == rep.b1_ceil
        for r, s, d in itertools.product(range(1, 13), range(1, 4), range(1, 4)):
            rep = bound_report(r, s, d)
            assert rep.b_exact == max(rep.b1, ExactRadical.of_fraction(rep.b2)), (r, s, d)

    def test_validation(self):
        bads = (((0, 2, 2), "r"), ((2, 0, 2), "s"), ((2, 2, 0), "d"), ((-1, 1, 1), "r"))
        for bad, name in bads:
            with pytest.raises(InputError, match=f"parameter {name} must be a positive integer"):
                bound_report(*bad)
        # a bool is refused by name, not read as 1 or passed on to the radicals
        for bad, name in (((2, 2, True), "d"), ((True, 2, 2), "r")):
            with pytest.raises(InputError) as exc:
                bound_report(*bad)
            assert str(exc.value) == f"parameter {name} must be a positive integer, got True"


class TestBoundReport:
    def test_oracle_report(self):
        rep = bound_report(2, 2, 2)
        assert isinstance(rep, BoundReport)
        assert rep.b1 == 1024 and rep.b1_ceil == 1024
        assert rep.b2 == 16777216
        assert rep.b3_ceil == 2896 and rep.b3_floor_reading == 2895
        assert rep.b4 == 5791
        assert rep.b_exact == 16777216 and rep.b_ceil == 16777216
        assert rep.digits_b2 == len(str(16777216))

    def test_digits_past_the_int_str_limit(self):
        rep = bound_report(6, 35, 45)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            lengths = (len(str(rep.b1_ceil)), len(str(rep.b2)), len(str(rep.b_ceil)))
        finally:
            sys.set_int_max_str_digits(limit)
        assert lengths[1] > 4300
        assert (rep.digits_b1, rep.digits_b2, rep.digits_b) == lengths

    def test_decimal_digits_at_powers_of_ten(self):
        """At 10^k - 1, 10^k and 10^k + 1 for k up to 20,000, and on random
        ints of up to 66,000 bits (about 19,900 digits)."""
        ks = [*range(1, 400, 3), *range(400, 20000, 401), 20000]
        rng = random.Random(20000)
        values = [0, 1, 9] + [10**k + o for k in ks for o in (-1, 0, 1)]
        values += [rng.getrandbits(rng.randint(1, 66000)) for _ in range(200)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            for v in values:
                assert _decimal_digits(v) == len(str(v)), v.bit_length()
        finally:
            sys.set_int_max_str_digits(limit)

    def test_ceiling_dominates_exact(self):
        for r, s, d in ((1, 1, 1), (2, 3, 3), (3, 4, 2)):
            rep = bound_report(r, s, d)
            assert rep.b_exact <= rep.b_ceil
            assert rep.b_exact > rep.b_ceil - 1

    @pytest.mark.parametrize(
        "rsd,b3_ceil,b4",
        [((1, 2, 1), 71, 142), ((3, 2, 2), 6399, 12798), ((1, 8, 1), 695784701951, 5566277615608)],
    )
    def test_rational_bracket_readings(self, rsd, b3_ceil, b4):
        """For odd r and s = 2k^2 the bracket of b3 is rational, so both
        readings of b3 agree."""
        rep = bound_report(*rsd)
        assert rep.b3.is_rational()
        assert (rep.b3_ceil, rep.b3_floor_reading, rep.b4) == (b3_ceil, b3_ceil, b4)

    def test_floor_times_root_is_one_isqrt(self):
        """floor(s * sqrt(n)) against isqrt(s^2 n), on random n and s and
        on s past isqrt(n), where the first guess overshoots most."""
        rng = random.Random(2)
        cases = [(s, n) for s in range(1, 40) for n in range(1, 60)]
        for _ in range(2000):
            cases.append((rng.randint(1, 10**4), rng.getrandbits(rng.randint(1, 300)) + 1))
        for s, n in cases:
            assert _floor_times_root(s, n, isqrt(n)) == isqrt(s * s * n), (s, n)

    def test_every_field_matches_the_radical_chains_on_the_grid(self):
        """All 768 (r, s, d) with r <= 8, s <= 12, d <= 8, against the chains
        of exact radical products in `oracles.bound_report_ref`, printed
        forms included."""
        for r, s, d in itertools.product(range(1, 9), range(1, 13), range(1, 9)):
            got, want = vars(bound_report(r, s, d)), ref.bound_report_ref(r, s, d)
            assert got == want, (r, s, d)
            assert [str(got[k]) for k in ("b1", "b3", "b_exact")] == [
                str(want[k]) for k in ("b1", "b3", "b_exact")
            ], (r, s, d)


class TestIdealParameters:
    def test_family_parameters(self):
        assert ideal_parameters(example_ideal(5)) == (3, 5, 6)
        assert ideal_parameters(example_ideal(7)) == (3, 5, 8)

    def test_plain_ideal(self):
        I = minimize([(2, 0), (1, 1)], 2)
        assert ideal_parameters(I) == (2, 2, 2)

    def test_rejects_trivial_ideals(self):
        with pytest.raises(InputError):
            ideal_parameters(zero_ideal(2))
        with pytest.raises(InputError):
            ideal_parameters(unit_ideal(2))
