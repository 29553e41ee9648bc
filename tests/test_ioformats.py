import json
import random

import pytest

from brodmann.errors import ParseError
from brodmann.ioformats import (
    ideal_to_json,
    ideal_to_text,
    load_ideal,
    load_system,
    monomial_str,
    parse_ideal_json,
    parse_ideal_text,
    parse_system_json,
    parse_system_text,
    prime_str,
    system_to_json,
    system_to_text,
)
from brodmann.monomials import minimize, unit_ideal, zero_ideal
from brodmann.polyhedra import ConstraintSystem

from conftest import random_ideal

# one digit past Python's default int-from-str limit of 4300 digits
LONG = "7" * 4301


class TestMonomialStrings:
    def test_monomial_str(self):
        assert monomial_str((2, 0, 1)) == "x1^2 x3"
        assert monomial_str((0, 0)) == "1"
        assert monomial_str((1, 1)) == "x1 x2"

    def test_prime_str(self):
        assert prime_str((1, 3)) == "{x1,x3}"
        assert prime_str((2,)) == "{x2}"


class TestIdealText:
    def test_parse_basic(self):
        I = parse_ideal_text("vars: 2\nx1^3 x2\nx2^4\n")
        assert I == minimize([(3, 1), (0, 4)], 2)

    def test_parse_normalizes(self):
        # divisible and duplicate generators collapse
        I = parse_ideal_text("vars: 2\nx1\nx1^2\nx1\n")
        assert I == minimize([(1, 0)], 2)

    def test_parse_comments_and_blank_lines(self):
        text = "# a comment\nvars: 2\n\nx1^2  # trailing\n"
        assert parse_ideal_text(text) == minimize([(2, 0)], 2)

    def test_zero_and_unit_forms(self):
        assert parse_ideal_text("vars: 3\n") == zero_ideal(3)
        assert parse_ideal_text("vars: 3\n1\n") == unit_ideal(3)
        assert parse_ideal_text(ideal_to_text(zero_ideal(3))) == zero_ideal(3)
        assert parse_ideal_text(ideal_to_text(unit_ideal(3))) == unit_ideal(3)

    def test_repeated_variable_tokens_accumulate(self):
        assert parse_ideal_text("vars: 2\nx1 x1 x2\n") == minimize([(2, 1)], 2)

    @pytest.mark.parametrize(
        "bad",
        [
            "x1^2\n",  # missing header
            "vars: 0\nx1\n",
            "vars: 2\nx3\n",  # out-of-range variable
            "vars: 2\nx1^-1\n",
            "vars: 2\ny2\n",
            "vars: 2\nx1^\n",
        ],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_ideal_text(bad)

    def test_parse_error_carries_location(self):
        with pytest.raises(ParseError) as info:
            parse_ideal_text("vars: 2\nx1\nbogus!\n", source="demo.txt")
        assert "demo.txt:3" in str(info.value)

    def test_round_trip_on_random_ideals(self):
        rng = random.Random(707)
        for _ in range(40):
            I = random_ideal(rng)
            assert parse_ideal_text(ideal_to_text(I)) == I
            assert parse_ideal_json(ideal_to_json(I)) == I


class TestIdealJson:
    def test_parse_json(self):
        I = parse_ideal_json('{"r": 2, "generators": [[3, 1], [0, 4]]}')
        assert I == minimize([(3, 1), (0, 4)], 2)

    @pytest.mark.parametrize(
        "bad",
        [
            "not json",
            "[]",
            '{"r": 2}',
            '{"r": 2, "generators": [[1]]}',
            '{"r": 2, "generators": [[1, -1]]}',
            '{"r": "2", "generators": []}',
            # JSON booleans are not integers
            '{"r": true, "generators": [[true]]}',
            '{"r": 1, "generators": [[true]]}',
            '{"r": 2, "generators": [[1, false]]}',
        ],
    )
    def test_json_errors(self, bad):
        with pytest.raises(ParseError):
            parse_ideal_json(bad)


class TestSystemFormats:
    def test_parse_text(self):
        sys_ = parse_system_text("vars: 2\n2 -1 >= 0\n0 1 >= 3\n")
        assert sys_.e == 2
        assert sys_.rows == ((2, -1), (0, 1))
        assert sys_.rhs == (0, 3)
        assert sys_.labels is None

    def test_labels_round_trip(self):
        sys_ = ConstraintSystem(2, ((1, -1),), (0,), ("z", "y1"))
        again = parse_system_text(system_to_text(sys_))
        assert again == sys_
        again_json = parse_system_json(system_to_json(sys_))
        assert again_json == sys_

    def test_json_tolerates_extra_keys(self):
        obj = {"e": 2, "rows": [[1, 0]], "rhs": [0], "mode": "ED1"}
        sys_ = parse_system_json(json.dumps(obj))
        assert sys_.e == 2

    @pytest.mark.parametrize(
        "bad",
        [
            "2 -1 >= 0\n",  # missing header
            "vars: 2\n2 -1 0 >= 0\n",  # arity
            "vars: 2\n2 -1 <= 0\n",
            "vars: 2\n2 x >= 0\n",
            "vars: 2\nlabels: a\n1 0 >= 0\n",  # label count
        ],
    )
    def test_system_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse_system_text(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            # JSON booleans are not integers
            '{"e": true, "rows": [[true]], "rhs": [false]}',
            '{"e": 1, "rows": [[true]], "rhs": [0]}',
            '{"e": 2, "rows": [[1, 0]], "rhs": [false]}',
        ],
    )
    def test_system_json_errors(self, bad):
        with pytest.raises(ParseError):
            parse_system_json(bad)

    def test_round_trip_random_systems(self):
        rng = random.Random(808)
        for _ in range(30):
            e = rng.randint(1, 4)
            k = rng.randint(0, 4)
            rows = tuple(
                tuple(rng.randint(-5, 5) for _ in range(e)) for _ in range(k)
            )
            rhs = tuple(rng.randint(-5, 5) for _ in range(k))
            sys_ = ConstraintSystem(e, rows, rhs)
            assert parse_system_text(system_to_text(sys_)) == sys_
            assert parse_system_json(system_to_json(sys_)) == sys_


class TestOversizedIntegers:
    """A decimal past the int-from-str limit is a located ParseError in
    every format, not a ValueError from int()."""

    @pytest.mark.parametrize(
        "parse, text, line",
        [
            (parse_ideal_text, f"vars: 1\nx1^{LONG}\n", 2),
            (parse_ideal_text, f"vars: 1\nx{LONG}\n", 2),
            (parse_ideal_text, f"vars: {LONG}\nx1\n", 1),
            (parse_ideal_json, f'{{"r": 1,\n "generators": [[{LONG}]]}}', 2),
            (parse_ideal_json, f'{{"r": {LONG}, "generators": []}}', 1),
            (parse_system_text, f"vars: 2\n1 {LONG} >= 0\n", 2),
            (parse_system_text, f"vars: 2\n\n1 2 >= -{LONG}\n", 3),
            (parse_system_json, f'{{"e": 2, "rows": [[1, {LONG}]], "rhs": [0]}}', 1),
        ],
    )
    def test_located_parse_error(self, parse, text, line):
        with pytest.raises(ParseError) as info:
            parse(text, source="big")
        assert str(info.value) == (
            f"big:{line}: integer of 4301 digits exceeds the 4300-digit limit"
        )

    @pytest.mark.parametrize("first", [f'"{"7" * 5000}"', f"{'7' * 5000}.5", f"-{'7' * 5000}e1"])
    def test_json_names_the_integer_not_an_earlier_digit_run(self, first):
        """A longer digit run on line 1, in a string label or in a number
        that json reads as a float, does not take the line of the error."""
        text = f'{{"e": 2, "labels": [{first}, "y"],\n "rows": [[1, {"7" * 5000}]], "rhs": [0]}}'
        with pytest.raises(ParseError) as info:
            parse_system_json(text, source="s")
        assert str(info.value) == "s:2: integer of 5000 digits exceeds the 4300-digit limit"

    def test_just_under_the_limit_parses(self):
        I = parse_ideal_text(f"vars: 1\nx1^{LONG[1:]}\n")
        assert I.generators == ((int(LONG[1:]),),)

    def test_long_non_integer_row_is_cut_short(self):
        with pytest.raises(ParseError) as info:
            parse_system_text(f"vars: 2\n1 x{LONG} >= 0\n", source="s")
        message = str(info.value)
        assert message.startswith("s:2: non-integer entry in row '1 x777")
        assert message.endswith("...'") and len(message) < 100

    def test_long_monomial_token_is_cut_short(self):
        with pytest.raises(ParseError) as info:
            parse_ideal_text(f"vars: 1\ny{LONG}\n", source="m")
        assert str(info.value).endswith("...'") and len(str(info.value)) < 100


class TestDeepNesting:
    """JSON nested past the recursion limit is a located ParseError."""

    @pytest.mark.parametrize("parse", [parse_ideal_json, parse_system_json])
    def test_deep_nesting_is_located_parse_error(self, parse):
        # a bracket inside a string neither nests nor locates
        text = '{"note": "[[[",\n"x":\n' + '{"a": [' * 50000 + "]}" * 50000 + "}"
        with pytest.raises(ParseError) as info:
            parse(text, source="deep")
        assert str(info.value) == (
            "deep:3: invalid JSON: arrays and objects nested 100001 deep exceed the recursion limit"
        )


class TestFileLoading:
    def test_load_ideal_sniffs_json(self, tmp_path):
        p = tmp_path / "ideal.json"
        p.write_text('{"r": 2, "generators": [[1, 0]]}')
        assert load_ideal(p) == minimize([(1, 0)], 2)
        q = tmp_path / "ideal.txt"
        q.write_text("vars: 2\nx1\n")
        assert load_ideal(q) == minimize([(1, 0)], 2)

    def test_load_system(self, tmp_path):
        p = tmp_path / "sys.txt"
        p.write_text("vars: 2\n1 -1 >= 0\n")
        assert load_system(p).rows == ((1, -1),)

    def test_load_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            load_ideal(tmp_path / "absent.txt")

    @pytest.mark.parametrize(
        "load, name, text, expected",
        [
            (load_ideal, "ideal.txt", "vars: 2\nx1^2\n", minimize([(2, 0)], 2)),
            (load_ideal, "ideal.json", '{"r": 2, "generators": [[2, 0]]}', minimize([(2, 0)], 2)),
            (load_system, "sys.txt", "vars: 2\n1 -1 >= 0\n", ConstraintSystem(2, ((1, -1),), (0,))),
            (
                load_system,
                "sys.json",
                '{"e": 2, "rows": [[1, -1]], "rhs": [0]}',
                ConstraintSystem(2, ((1, -1),), (0,)),
            ),
        ],
    )
    def test_a_byte_order_mark_is_skipped(self, tmp_path, load, name, text, expected):
        p = tmp_path / name
        p.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert load(p) == expected


# U+0662 and U+0661, Arabic-Indic two and one: int() reads them as 2 and 1
TWO, ONE = "٢", "١"


class TestAsciiDigitsOnly:
    """The text formats read ASCII digits only, where a regex \\d and int()
    would take the digits of other scripts too."""

    @pytest.mark.parametrize(
        "load, name, text, line, message",
        [
            (load_ideal, "ideal.txt", f"vars: {TWO}\nx1\n", 1, "expected header `vars: <count>`"),
            (load_ideal, "ideal.txt", f"vars: 2\nx{ONE}^2\n", 2, "bad monomial token"),
            (load_ideal, "ideal.txt", f"vars: 2\nx1^{TWO}\n", 2, "bad monomial token"),
            (load_system, "sys.txt", f"vars: {TWO}\n1 1 >= 0\n", 1, "expected header"),
            (load_system, "sys.txt", f"vars: 2\n1 {ONE} >= 0\n", 2, "non-integer entry in row"),
            (load_system, "sys.txt", f"vars: 2\n1 1 >= {ONE}\n", 2, "non-integer entry in row"),
        ],
    )
    def test_other_digits_are_parse_errors(self, tmp_path, load, name, text, line, message):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        with pytest.raises(ParseError) as info:
            load(p)
        assert str(info.value).startswith(f"{p}:{line}: {message}")

    def test_ascii_digits_with_underscores_still_parse(self, tmp_path):
        p = tmp_path / "sys.txt"
        p.write_text("vars: 2\n1_0 -1 >= +2\n")
        assert load_system(p) == ConstraintSystem(2, ((10, -1),), (2,))
