import random
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from brodmann.errors import InputError
from brodmann.radicals import ExactRadical, RadicalSum, split_square


class TestSplitSquare:
    def test_small_values(self):
        assert split_square(1) == (1, 1)
        assert split_square(2) == (1, 2)
        assert split_square(4) == (2, 1)
        assert split_square(8) == (1, 8)
        assert split_square(12) == (1, 12)
        assert split_square(36) == (6, 1)
        assert split_square(360) == (1, 360)

    @staticmethod
    def check(n):
        a, m = split_square(n)
        assert a * a * m == n
        assert (m == 1) == (isqrt(n) ** 2 == n)

    def test_exhaustive_reconstruction(self):
        for n in range(1, 400):
            self.check(n)

    def test_4000_bit_inputs(self):
        rng = random.Random(4713)
        k = rng.getrandbits(2000) | 1 << 1999
        for n in (k * k, k * k - 1, k * k + 1, 2 * k * k, (k * k) * (k * k)):
            self.check(n)
        assert split_square(k * k) == (k, 1)
        assert split_square(3 * k * k) == (1, 3 * k * k)

    def test_rejects_nonpositive(self):
        for n in (0, -4):
            with pytest.raises(InputError):
                split_square(n)


class TestExactRadical:
    def test_normalization(self):
        assert ExactRadical.sqrt_of(8) == ExactRadical(Fraction(2), 2)
        assert ExactRadical.sqrt_of(9) == 3
        assert ExactRadical.sqrt_of(0).is_zero()

    def test_equal_values_hash_alike(self):
        r8, two_r2 = ExactRadical.sqrt_of(8), ExactRadical(Fraction(2), 2)
        assert str(r8) == "sqrt(8)" and str(two_r2) == "2*sqrt(2)"
        assert r8 == two_r2 and hash(r8) == hash(two_r2)
        assert r8 != ExactRadical.sqrt_of(2)
        assert hash(ExactRadical.sqrt_of(9)) == hash(3)
        assert hash(ExactRadical.of_fraction(Fraction(1, 2))) == hash(Fraction(1, 2))

    def test_rejects_bad_input(self):
        with pytest.raises(InputError):
            ExactRadical(Fraction(-1), 2)
        assert ExactRadical(Fraction(1), 8) == ExactRadical(Fraction(2), 2)
        with pytest.raises(InputError):
            ExactRadical(Fraction(1), 4)  # a perfect square
        with pytest.raises(InputError):
            ExactRadical(Fraction(0), 2)  # zero must use radicand 1
        with pytest.raises(InputError):
            ExactRadical.sqrt_of(-1)
        with pytest.raises(InputError):
            ExactRadical.of_fraction(Fraction(-1, 2))

    def test_multiplication(self):
        r2 = ExactRadical.sqrt_of(2)
        r3 = ExactRadical.sqrt_of(3)
        assert r2 * r2 == 2
        assert r2 * r3 == ExactRadical.sqrt_of(6)
        assert (r2 * 3) == ExactRadical(Fraction(3), 2)
        assert ExactRadical.sqrt_of(6) * ExactRadical.sqrt_of(10) == ExactRadical(
            Fraction(2), 15
        )
        # the gcd leaves 4 * 1 and 4 * 9, perfect squares
        assert ExactRadical.sqrt_of(8) * ExactRadical.sqrt_of(2) == 4
        assert ExactRadical.sqrt_of(12) * ExactRadical.sqrt_of(27) == 18

    def test_powers(self):
        r2 = ExactRadical.sqrt_of(2)
        assert r2**2 == 2
        assert r2**3 == ExactRadical(Fraction(2), 2)
        assert r2**0 == 1
        assert ExactRadical.of_fraction(0) ** 5 == 0

    def test_comparisons(self):
        r2 = ExactRadical.sqrt_of(2)
        assert r2 < Fraction(3, 2)
        assert r2 > Fraction(7, 5)
        assert r2 <= r2
        assert ExactRadical.sqrt_of(3) > r2

    def test_floor_ceil(self):
        assert ExactRadical.sqrt_of(2).floor() == 1
        assert ExactRadical.sqrt_of(2).ceil() == 2
        assert ExactRadical.of_fraction(Fraction(7, 2)).floor() == 3
        assert ExactRadical.of_fraction(Fraction(7, 2)).ceil() == 4
        assert ExactRadical.of_fraction(3).ceil() == 3
        big = ExactRadical(Fraction(2048), 2)
        assert big.floor() == 2896
        assert big.ceil() == 2897

    def test_floor_is_exact_near_perfect_squares(self):
        # sqrt(k^2 - 1) floors to k - 1, sqrt(k^2) to k, no float wobble
        for k in (10**8, 10**12 + 7, 3**40):
            assert ExactRadical.sqrt_of(k * k - 1).floor() == k - 1
            assert ExactRadical.sqrt_of(k * k).floor() == k

    def test_str(self):
        assert str(ExactRadical.sqrt_of(2)) == "sqrt(2)"
        assert str(ExactRadical(Fraction(3, 2), 5)) == "3/2*sqrt(5)"
        assert str(ExactRadical.of_fraction(7)) == "7"

    def test_float(self):
        assert float(ExactRadical(Fraction(3, 2), 5)) == 1.5 * 5**0.5
        zero = float(ExactRadical.of_fraction(0))
        assert zero == 0.0 and isinstance(zero, float)


class TestRadicalSum:
    def test_exact_cancellation(self):
        r8 = ExactRadical.sqrt_of(8)
        two_r2 = ExactRadical(Fraction(2), 2)
        diff = RadicalSum.of(r8) - RadicalSum.of(two_r2)
        assert diff.is_zero()
        assert diff.sign() == 0
        assert diff == 0

    def test_float_of_zero_is_a_float(self):
        x = RadicalSum.of(ExactRadical.sqrt_of(2), 1)
        for zero in (RadicalSum.of(0), x - x):
            assert float(zero) == 0.0 and isinstance(float(zero), float)

    def test_mixed_terms_collapse(self):
        s = RadicalSum.of(ExactRadical.sqrt_of(2), ExactRadical.sqrt_of(2))
        assert s == ExactRadical(Fraction(2), 2)

    def test_dependent_terms_merge_on_the_smallest_radicand(self):
        r2, r8, r18 = (ExactRadical.sqrt_of(n) for n in (2, 8, 18))
        for parts in ((r8, r2, r18), (r18, r8, r2)):
            s = RadicalSum.of(*parts)
            assert s.terms == ((2, Fraction(6)),)
            assert str(s) == "6*sqrt(2)"
        assert str(RadicalSum.of(r8) + RadicalSum.of(3)) == "3 + sqrt(8)"
        assert str(RadicalSum.of(r18) + RadicalSum.of(r8)) == "5/2*sqrt(8)"

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(RadicalSum.of(ExactRadical.sqrt_of(2)))

    def test_sign_and_compare(self):
        s = RadicalSum.of(ExactRadical.sqrt_of(2), ExactRadical.sqrt_of(3))
        assert s.sign() == 1
        assert s > 3
        assert s < Fraction(16, 5)
        t = RadicalSum.of(ExactRadical.sqrt_of(2)) - RadicalSum.of(
            ExactRadical.sqrt_of(3)
        )
        assert t.sign() == -1

    def test_floor_ceil(self):
        s = RadicalSum.of(ExactRadical.sqrt_of(2), ExactRadical.sqrt_of(3))
        assert s.floor() == 3  # 3.146...
        assert s.ceil() == 4
        t = RadicalSum.of(ExactRadical.sqrt_of(2)) - RadicalSum.of(
            ExactRadical.sqrt_of(3)
        )
        assert t.floor() == -1  # -0.318...
        assert t.ceil() == 0
        assert RadicalSum.of(Fraction(7, 2)).floor() == 3
        assert RadicalSum.of().floor() == 0

    def test_random_sums_match_mpmath(self):
        """500 random signed radical sums against 128-bit floating point.

        Agreement is only asserted when the numeric value is far enough
        from zero (for sign) or from an integer (for floor) that the
        floating-point reading is itself trustworthy.
        """
        rng = random.Random(4711)
        margin = mpmath.mpf(2) ** -60
        with mpmath.workprec(128):
            for _ in range(500):
                total = RadicalSum.of()
                approx = mpmath.mpf(0)
                for _ in range(rng.randint(1, 4)):
                    num = rng.randint(-9, 9)
                    den = rng.randint(1, 9)
                    rad = rng.randint(1, 50)
                    term = ExactRadical.sqrt_of(rad) * Fraction(abs(num), den)
                    if num >= 0:
                        total = total + RadicalSum.of(term)
                    else:
                        total = total - RadicalSum.of(term)
                    approx += mpmath.mpf(num) / den * mpmath.sqrt(rad)
                if abs(approx) > margin:
                    expected_sign = 1 if approx > 0 else -1
                    assert total.sign() == expected_sign, str(total)
                nearest = mpmath.nint(approx)
                if abs(approx - nearest) > margin:
                    assert total.floor() == int(mpmath.floor(approx)), str(total)
                    assert total.ceil() == int(mpmath.ceil(approx)), str(total)

    def test_compare_transitivity_sample(self):
        rng = random.Random(4712)
        values = []
        for _ in range(12):
            a = ExactRadical.sqrt_of(rng.randint(1, 30)) * Fraction(
                rng.randint(0, 5), rng.randint(1, 4)
            )
            b = Fraction(rng.randint(-10, 10), rng.randint(1, 6))
            values.append(RadicalSum.of(a, b))
        ordered = sorted(values, key=lambda v: float(v))
        for u, v in zip(ordered, ordered[1:]):
            assert u.compare(v) <= 0


RADICAL_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)
# radicand k^2 * m, drawn as (k, m): small m so that terms of one square class
# meet often, k up to 10^12 so that the square factor is too large to find by
# trial division
SQUARED = st.tuples(st.integers(1, 10**12), st.integers(1, 30))
COEFFS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))
TERMS = st.lists(st.tuples(COEFFS, SQUARED), min_size=1, max_size=5)


def _term(q: Fraction, k: int, m: int, factored: bool) -> ExactRadical:
    """|q| * sqrt(k^2 m), built as sqrt_of(k^2 m) or as k * sqrt_of(m)."""
    if factored:
        return ExactRadical.sqrt_of(m) * (abs(q) * k)
    return ExactRadical.sqrt_of(k * k * m) * abs(q)


def _sum(terms, factored: bool) -> RadicalSum:
    total = RadicalSum.of()
    for q, (k, m) in terms:
        t = _term(q, k, m, factored)
        total = total + t if q > 0 else total - t
    return total


def _enclosure_floor(total: RadicalSum) -> int:
    """The floor of an irrational sum by refining its enclosure until both
    ends share one."""
    k = 8
    while True:
        lo, hi = total.bounds(k)
        if lo.numerator // lo.denominator == hi.numerator // hi.denominator:
            return lo.numerator // lo.denominator
        k *= 2


def _mp_value(terms) -> mpmath.mpf:
    return mpmath.fsum(q.numerator * k * mpmath.sqrt(m) / q.denominator for q, (k, m) in terms)


class TestRadicalProperties:
    """Derandomized properties over radicands k^2 * m with k up to 10^12."""

    @RADICAL_SETTINGS
    @given(TERMS)
    def test_sign_floor_ceil_match_mpmath(self, terms):
        total = _sum(terms, factored=False)
        with mpmath.workprec(256):
            approx = _mp_value(terms)
            nearest = mpmath.nint(approx)
            margin = mpmath.mpf(2) ** -150
            if abs(approx - nearest) < margin:
                # no value of this size lies that close to an integer unless
                # it is one, and then it must be exact and rational
                assert total.is_rational(), str(total)
                assert total == int(nearest)
                assert total.floor() == total.ceil() == int(nearest)
                assert total.sign() == mpmath.sign(nearest)
                return
            assert total.sign() == (1 if approx > 0 else -1), str(total)
            assert total.floor() == int(mpmath.floor(approx)), str(total)
            assert total.ceil() == int(mpmath.ceil(approx)), str(total)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 12)),
        st.builds(Fraction, st.integers(-10**6, 10**6).filter(bool), st.integers(1, 12)),
        SQUARED.filter(lambda km: isqrt(km[1]) ** 2 != km[1]),
    )
    def test_one_radical_floor_ceil_are_exact(self, c, q, km):
        """c + q*sqrt(k^2 m) with m not a square: floor and ceil agree with
        mpmath and with the enclosure loop, which they no longer call."""
        k, m = km
        term = ExactRadical.sqrt_of(k * k * m) * abs(q)
        total = RadicalSum.of(c) + term if q > 0 else RadicalSum.of(c) - term
        assert len(total.terms) == 1 + bool(c)
        refined = _enclosure_floor(total)
        with mpmath.workprec(512):
            approx = mpmath.mpf(c.numerator) / c.denominator + mpmath.mpf(
                q.numerator
            ) * k / q.denominator * mpmath.sqrt(m)
            assert abs(approx - mpmath.nint(approx)) > mpmath.mpf(2) ** -300
            expected = int(mpmath.floor(approx))
        with pytest.MonkeyPatch.context() as mp:
            mp.delattr(RadicalSum, "bounds")  # the exact route refines no enclosure
            assert total.floor() == refined == expected, str(total)
            assert total.ceil() == expected + 1, str(total)

    @RADICAL_SETTINGS
    @given(TERMS)
    def test_products_are_exact(self, terms):
        x, square, radicands = ExactRadical.of_fraction(1), Fraction(1), 1
        for q, (k, m) in terms:
            x = x * _term(q, k, m, factored=False)
            square *= q * q * k * k * m
            radicands *= m
            assert x.square() == square
            assert x.is_rational() == (isqrt(radicands) ** 2 == radicands)

    @RADICAL_SETTINGS
    @given(TERMS, TERMS)
    def test_construction_does_not_change_value_or_order(self, terms, other):
        plain, factored = _sum(terms, factored=False), _sum(terms, factored=True)
        assert plain == factored and factored == plain
        third = _sum(other, factored=True)
        assert plain.compare(third) == factored.compare(third)
        assert (plain < third) == (factored < third)
        assert (plain >= third) == (factored >= third)
        for q, (k, m) in terms:
            a, b = _term(q, k, m, False), _term(q, k, m, True)
            assert a == b and not a < b and not b < a

    @RADICAL_SETTINGS
    @given(TERMS, TERMS, st.randoms(use_true_random=False))
    def test_str_does_not_depend_on_operand_order(self, terms, other, rng):
        parts = [_term(q, k, m, factored=False) for q, (k, m) in terms]
        shuffled = rng.sample(parts, len(parts))
        assert str(RadicalSum.of(*parts)) == str(RadicalSum.of(*shuffled))
        a, b = _sum(terms, factored=False), _sum(other, factored=True)
        assert str(a + b) == str(b + a)
        assert str(a - b) == str(-b + a)

    @RADICAL_SETTINGS
    @given(TERMS)
    def test_both_constructions_print_alike_beside_the_bare_class(self, terms):
        # once a sum holds sqrt(m) itself, sqrt_of(k^2 m) and k * sqrt_of(m)
        # land on the same printed term
        bare = [ExactRadical.sqrt_of(m) for _, (_, m) in terms]
        a = RadicalSum.of(*bare) + _sum(terms, factored=False)
        b = RadicalSum.of(*bare) + _sum(terms, factored=True)
        assert str(a) == str(b) and a.terms == b.terms

    @RADICAL_SETTINGS
    @given(st.lists(st.tuples(COEFFS, SQUARED), min_size=2, max_size=6), st.booleans())
    def test_hash_agrees_with_equality(self, terms, factored):
        values = [_term(q, k, m, factored) for q, (k, m) in terms]
        values += [_term(q, k, m, not factored) for q, (k, m) in terms]
        values += [ExactRadical.sqrt_of(k * k) * abs(q) for q, (k, _) in terms]
        for x in values:
            for y in values:
                if x == y:
                    assert hash(x) == hash(y), (str(x), str(y))
            if x.is_rational():
                assert x == x.coeff and hash(x) == hash(x.coeff)
