import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import brodmann.printing as printing
from brodmann import cli
from brodmann.printing import CUTOVER_BITS, decimal_str, json_text
from brodmann.radicals import ExactRadical, RadicalSum


@pytest.fixture
def no_digit_limit():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(limit)


CUTOVER_DIGITS = CUTOVER_BITS * 30103 // 100000


def test_decimal_str_is_str_around_powers_of_ten(no_digit_limit):
    """At 10^k - 1, 10^k and 10^k + 1 on both sides of the cutover, and for
    k up to 10^5, signed."""
    ks = [1, 2, 19, 20, 4300, 4301, *range(CUTOVER_DIGITS - 2, CUTOVER_DIGITS + 3), 20000]
    ks += [65536, 99999, 100000]
    for k in ks:
        for v in (10**k - 1, 10**k, 10**k + 1):
            for n in (v, -v):
                assert decimal_str(n) == str(n), (k, n > 0)


def test_decimal_str_is_str_on_random_ints(no_digit_limit):
    """Random ints of up to 10^5 digits, half of them past the cutover."""
    rng = random.Random(100000)
    bits = [rng.randint(1, CUTOVER_BITS) for _ in range(20)]
    bits += [rng.randint(CUTOVER_BITS, 332_193) for _ in range(20)]  # 10^5 digits
    bits += [CUTOVER_BITS, CUTOVER_BITS + 1, 1025, 2049]
    for b in bits:
        n = rng.getrandbits(b) | 1 << (b - 1)
        n = -n if rng.random() < 0.25 else n
        assert decimal_str(n) == str(n), b
    assert decimal_str(0) == "0"


def test_decimal_str_keeps_the_digit_limit():
    """Like str(), it refuses ints past the int-to-str limit unless the
    limit is lifted, on both sides of the cutover."""
    for n in (10**5000, 10 ** (CUTOVER_DIGITS + 1), -(10 ** (2 * CUTOVER_DIGITS))):
        with pytest.raises(ValueError) as want:
            str(n)
        with pytest.raises(ValueError) as got:
            decimal_str(n)
        assert str(got.value) == str(want.value)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**60), 10**60),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    st.sampled_from(
        [ExactRadical.sqrt_of(8), RadicalSum.of(ExactRadical.sqrt_of(2), Fraction(-1, 3))]
    ),
)
keys = st.one_of(st.text(max_size=4), st.integers(), st.booleans(), st.none(), st.floats())
payloads = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(payloads)
def test_json_text_is_json_dumps(payload):
    assert json_text(payload) == json.dumps(payload, indent=2, default=str)


def test_json_text_writes_long_ints_as_json_dumps_does(no_digit_limit):
    rng = random.Random(7)
    big = rng.getrandbits(3 * CUTOVER_BITS)
    payload = {"n": big, "neg": -big, "row": [big, {str(big): big}], 5: ExactRadical(Fraction(big), 2)}
    assert json_text(payload) == json.dumps(payload, indent=2, default=str)


def test_json_text_refuses_keys_json_refuses():
    with pytest.raises(TypeError):
        json_text({(1, 2): 0})
    with pytest.raises(TypeError):
        json.dumps({(1, 2): 0})


@pytest.mark.parametrize("fmt", ["json", "tsv"])
def test_bound_converts_each_int_once_per_call(monkeypatch, no_digit_limit, fmt):
    """B2 is printed as b2, as b_ceil and inside the radical b; one `json_text`
    or `_tsv_bound` call converts it once, and the next call converts it
    again, since nothing is kept between calls."""
    args = cli._parse(["bound", "--r", "6", "--s", "35", "--d", "45", "--format", fmt])
    payload = args.func(args)
    write = json_text if fmt == "json" else args.tsv
    expected = write(payload)
    assert payload["b_ceil"] == payload["b2"] and str(payload["b"]) == str(payload["b2"])
    converted = []
    convert = printing._decimal_str

    def spy(n):
        converted.append(n)
        return convert(n)

    monkeypatch.setattr(printing, "_decimal_str", spy)
    for calls in (1, 2):
        assert write(payload) == expected
        assert converted.count(payload["b2"]) == calls
        assert len(converted) == calls * len(set(converted))
        assert printing._texts.get() is None
