import argparse
import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import brodmann
import oracles
from brodmann.cli import (
    _BOUND_TSV,
    _COMMANDS,
    INDEX_NOTE,
    _parse,
    _read,
    build_parser,
    example_ideal,
    main,
)
from brodmann.errors import InconsistencyError
from brodmann.ioformats import ideal_to_text, parse_system_text, system_to_text
from brodmann.monomials import minimize
from brodmann.polyhedra import ConstraintSystem, staircase_system
from brodmann.printing import CUTOVER_BITS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def family_file(tmp_path):
    path = tmp_path / "family5.txt"
    path.write_text(ideal_to_text(example_ideal(5)))
    return str(path)


@pytest.fixture
def cube_file(tmp_path):
    path = tmp_path / "cubes.txt"
    path.write_text("vars: 4\nx1^3\nx2^3\nx3^3\nx4^3\nx1 x2 x3 x4\n")
    return str(path)


@pytest.fixture
def rr_file(tmp_path):
    I = minimize([(4, 0), (3, 1), (1, 3), (0, 4)], 2)
    path = tmp_path / "gap.txt"
    path.write_text(ideal_to_text(I))
    return str(path)


class TestAssProfile:
    def test_family_table(self, capsys, family_file):
        code, out, err = run(
            capsys, "ass-profile", "--ideal", family_file, "--n-max", "6"
        )
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == f"# {INDEX_NOTE}"
        assert lines[1] == "# n\tprimes"
        body = lines[2:9]
        assert body[0] == "0\t{x1,x2},{x1,x2,x3}"
        assert body[1] == "1\t{x1,x2},{x1,x2,x3}"
        for n in range(2, 7):
            assert body[n] == f"{n}\t{{x1,x2}}"
        assert "# observed_stable_at: 2 (shifted index 3)" in lines

    def test_json_payload(self, capsys, family_file):
        code, out, _ = run(
            capsys,
            "ass-profile",
            "--ideal",
            family_file,
            "--n-max",
            "3",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["index_note"] == INDEX_NOTE
        assert payload["entries"][0]["shifted_n"] == 1
        assert payload["entries"][2]["primes"] == [[1, 2]]
        assert payload["observed_stable_at"] == 2
        assert payload["observed_stable_at_shifted"] == 3

    def test_jobs_do_not_change_output(self, capsys, family_file):
        _, out1, _ = run(
            capsys, "ass-profile", "--ideal", family_file, "--n-max", "4",
            "--jobs", "1",
        )
        _, out2, _ = run(
            capsys, "ass-profile", "--ideal", family_file, "--n-max", "4",
            "--jobs", "2",
        )
        assert out1 == out2

    def test_method_flag(self, capsys, family_file):
        code, out, _ = run(
            capsys, "ass-profile", "--ideal", family_file, "--n-max", "2",
            "--method", "both",
        )
        assert code == 0 and "{x1,x2}" in out


class TestAssSingle:
    def test_single_power(self, capsys, family_file):
        code, out, _ = run(capsys, "ass", "--ideal", family_file, "--n", "2")
        assert code == 0
        assert out.splitlines()[1] == "2\t{x1,x2}"

    def test_json(self, capsys, family_file):
        code, out, _ = run(
            capsys, "ass", "--ideal", family_file, "--n", "0", "--format", "json"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["shifted_n"] == 1
        assert payload["primes"] == [[1, 2], [1, 2, 3]]

    @pytest.mark.parametrize("method", ["recursion", "both"])
    def test_late_n_takes_one_step_from_the_power(self, capsys, cube_file, monkeypatch, method):
        # the quotient route climbs to I^18 alone; the recursion route
        # settles the one localization, I itself, without a walk
        monkeypatch.delenv("BRODMANN_BUDGET", raising=False)
        argv = ["ass", "--ideal", cube_file, "--n", "17"]
        code, out, err = run(capsys, *argv, "--method", method)
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == "17\t{x1,x2,x3,x4}"
        assert out == run(capsys, *argv, "--method", "quotient")[1]

    @pytest.mark.parametrize(
        "argv, ns",
        [
            (["ass-profile", "--method", "recursion", "--n-max", "17"], range(18)),
            (["ass-profile", "--method", "both", "--n-max", "17"], range(18)),
            (["ass", "--n", "24", "--method", "recursion"], [24]),
        ],
    )
    def test_cube_fits_the_default_budget(self, capsys, cube_file, monkeypatch, argv, ns):
        # I is primary to the maximal ideal and every other support
        # localizes it to the unit ideal, so the recursion route charges no
        # box; a walk of I was refused here
        monkeypatch.delenv("BRODMANN_BUDGET", raising=False)
        code, out, err = run(capsys, *argv, "--ideal", cube_file)
        assert (code, err) == (0, "")
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert rows == [f"{n}\t{{x1,x2,x3,x4}}" for n in ns]


class TestRatliffRush:
    def test_json_keys_and_known_closure(self, capsys, rr_file):
        code, out, _ = run(capsys, "rr", "--ideal", rr_file, "--n", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["certified"] is True
        assert payload["stabilized_at_m"] == 1
        assert payload["chain_monotone"] is True
        assert [2, 2] in payload["closure_generators"]
        assert "x1^2 x2^2" in payload["closure_monomials"]

    def test_tsv(self, capsys, rr_file):
        code, out, _ = run(
            capsys, "rr", "--ideal", rr_file, "--n", "1", "--format", "tsv"
        )
        assert code == 0
        assert "# certified: True" in out
        assert "x1^2 x2^2" in out

    def test_huge_cap_answers_like_a_small_one(self, capsys, family_file):
        huge = "1" + "0" * 4000
        code, out, err = run(capsys, "rr", "--ideal", family_file, "--n", "3", "--m-cap", huge)
        assert (code, err) == (0, "")
        assert (code, out, err) == run(
            capsys, "rr", "--ideal", family_file, "--n", "3", "--m-cap", "6"
        )


class TestA0:
    def test_json_keys(self, capsys, rr_file):
        code, out, _ = run(capsys, "a0", "--ideal", rr_file, "--n-max", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["a0"] == 0
        assert payload["per_degree_flags"] == [True, False, False]
        assert payload["certified"] is True
        assert payload["warnings"] == []


class TestBound:
    def test_explicit_parameters(self, capsys):
        code, out, _ = run(capsys, "bound", "--r", "2", "--s", "2", "--d", "2")
        assert code == 0
        assert "b2\t16777216" in out
        assert "# B = max(B1, B2) = 16777216" in out

    def test_from_ideal(self, capsys, family_file):
        code, out, _ = run(
            capsys, "bound", "--ideal", family_file, "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["r"], payload["s"], payload["d"]) == (3, 5, 6)
        assert payload["b_ceil"] >= payload["b4"]

    def test_conflicting_sources(self, capsys, family_file):
        code, _, err = run(capsys, "bound", "--ideal", family_file, "--r", "2")
        assert code == 2
        assert "input error" in err

    def test_missing_parameters(self, capsys):
        code, _, err = run(capsys, "bound", "--r", "2", "--s", "2")
        assert code == 2
        assert "input error" in err

    def test_thresholds_past_the_int_str_limit_tsv(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "bound", "--r", "6", "--s", "35", "--d", "45")
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        rows = {line.split("\t")[0]: line.split("\t") for line in out.splitlines()}
        b1_ceil, b2, b_ceil = rows["b1"][2], rows["b2"][1], rows["b"][2]
        assert b1_ceil.startswith("ceil=") and b_ceil.startswith("ceil=")
        digits = (len(b1_ceil) - 5, len(b2), len(b_ceil) - 5)
        assert digits[1] > 4300
        assert out.splitlines()[-1] == "# digits: b1=%d b2=%d b=%d" % digits

    def test_thresholds_past_the_int_str_limit_json(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(
            capsys, "bound", "--r", "6", "--s", "35", "--d", "45", "--format", "json"
        )
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        payload = json.loads(out, parse_int=str)
        assert len(payload["b2"]) > 4300
        assert payload["digits"] == {
            "b1": str(len(payload["b1_ceil"])),
            "b2": str(len(payload["b2"])),
            "b": str(len(payload["b_ceil"])),
        }

    def test_past_the_decimal_cutover_prints_what_str_prints(self, capsys, monkeypatch):
        """B2 of `bound --r 1 --s 300 --d 2` has 81,029 digits and the b3
        coefficient about 40,500, past `printing.CUTOVER_BITS`; both formats
        print the bytes that str() and json.dumps print."""
        argv = ["bound", "--r", "1", "--s", "300", "--d", "2"]
        code, tsv, _ = run(capsys, *argv)
        assert code == 0
        code, js, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        args = _parse(argv)
        payload = args.func(args)
        assert payload["b3"].terms[1][1].numerator.bit_length() > CUTOVER_BITS
        monkeypatch.setattr(brodmann.radicals, "decimal_str", str)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert len(str(payload["b2"])) == 81029
            assert js == json.dumps(payload, indent=2, default=str) + "\n"
            assert tsv == _BOUND_TSV.format_map(payload) + "\n"
        finally:
            sys.set_int_max_str_digits(limit)


class TestCone:
    @pytest.fixture
    def staircase_file(self, tmp_path):
        path = tmp_path / "stair32.txt"
        path.write_text(system_to_text(staircase_system(3, 2)))
        return str(path)

    @pytest.fixture
    def halfplane_file(self, tmp_path):
        path = tmp_path / "half.txt"
        path.write_text(system_to_text(ConstraintSystem(2, ((2, -1),), (1,))))
        return str(path)

    def test_default_lists_rays(self, capsys, staircase_file):
        code, out, _ = run(capsys, "cone", "--system", staircase_file)
        assert code == 0
        assert "ray\t1 0 0" in out
        assert "ray\t1 2 4" in out

    def test_hilbert_needs_cap(self, capsys, staircase_file):
        code, _, err = run(capsys, "cone", "--system", staircase_file, "--hilbert")
        assert code == 2 and "cap" in err

    def test_hilbert_generators(self, capsys, staircase_file):
        code, out, _ = run(
            capsys, "cone", "--system", staircase_file, "--hilbert", "--cap", "4"
        )
        assert code == 0
        assert "hilbert\t1 2 4" in out

    def test_bounds_on_inhomogeneous_system(self, capsys, halfplane_file):
        code, out, _ = run(
            capsys, "cone", "--system", halfplane_file, "--bound", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert "bound_a1" in payload and "bound_a2" in payload
        assert payload["bound_a1_ceil"] >= 1

    def test_bound_with_large_right_hand_sides(self, capsys, tmp_path):
        # |b|^2 = 2 * 1000000007^2: its square factor is a 30-bit prime
        rows, rhs = ((1, 1, 0), (1, 0, 1), (1, 1, 1)), (1000000007, 1000000007, 0)
        path = tmp_path / "big.txt"
        path.write_text(system_to_text(ConstraintSystem(3, rows, rhs)))
        code, out, _ = run(capsys, "cone", "--system", str(path), "--bound")
        assert code == 0
        ceils = {
            line.split("\t")[0]: int(line.rsplit("ceil=", 1)[1])
            for line in out.splitlines()
            if line.startswith("bound_a")
        }
        assert ceils == oracles.cone_bound_ceils(rows, rhs)
        assert "bound_a2\t6*sqrt(3) + 2*sqrt(6000000084000000294)\tceil=4898979531" in out

    def test_module_generators(self, capsys, halfplane_file):
        code, out, _ = run(
            capsys, "cone", "--system", halfplane_file, "--module", "--cap", "4"
        )
        assert code == 0
        assert "module\t1 0" in out and "module\t1 1" in out

    @pytest.mark.parametrize("cap", ["-3", "0"])
    def test_module_cap_below_one_is_refused_on_a_homogeneous_system(
        self, capsys, staircase_file, cap
    ):
        code, out, err = run(capsys, "cone", "--system", staircase_file, "--module", "--cap", cap)
        assert (code, out) == (2, "")
        assert err == f"input error: cap must be >= 1, got {cap}\n"
        # without --cap the homogeneous system still gets the origin
        code, out, _ = run(capsys, "cone", "--system", staircase_file, "--module")
        assert (code, out) == (0, "# module generators\nmodule\t0 0 0\n")


class TestBuildSystem:
    @pytest.fixture
    def ideal_file(self, tmp_path):
        path = tmp_path / "gap.txt"
        I = minimize([(4, 0), (3, 1), (1, 3), (0, 4)], 2)
        path.write_text(ideal_to_text(I))
        return str(path)

    def test_text_output_reparses(self, capsys, ideal_file):
        code, out, _ = run(
            capsys, "build-system", "--ideal", ideal_file, "--mode", "ed1"
        )
        assert code == 0
        assert "# designated generator: x1^3 x2" in out
        system = parse_system_text(out)
        assert system.e == 2 * 4 + 4
        assert system.labels is not None and system.labels[0] == "z"

    def test_json_output(self, capsys, ideal_file):
        code, out, _ = run(
            capsys, "build-system", "--ideal", ideal_file, "--mode", "ED3",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "ED3"
        assert payload["designated_generator"] == [3, 1]
        assert payload["e"] == 4 * 3 + 2 + 2

    def test_out_file(self, capsys, tmp_path, ideal_file):
        target = tmp_path / "system.txt"
        code, out, _ = run(
            capsys, "build-system", "--ideal", ideal_file, "--mode", "ED2",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        reparsed = parse_system_text(target.read_text())
        assert reparsed.is_homogeneous()

    @pytest.mark.parametrize(
        "where, err_code",
        [(".", errno.EISDIR), ("missing/system.txt", errno.ENOENT), (None, errno.ENOENT)],
        ids=["directory", "missing-parent", "empty"],
    )
    def test_unwritable_out_is_input_error(self, capsys, tmp_path, ideal_file, where, err_code):
        """An empty path is a path too: it names no file, and is not a
        request to print to stdout."""
        target = "" if where is None else str(tmp_path / where)
        argv = ["build-system", "--ideal", ideal_file, "--mode", "ED2"]
        for out_args in (["--out", target], [f"--out={target}"]):
            code, out, err = run(capsys, *argv, *out_args)
            assert (code, out) == (2, "")
            assert err == f"input error: cannot write {target}: {os.strerror(err_code)}\n"


class TestFeasible:
    @pytest.fixture
    def membership_file(self, tmp_path):
        system = ConstraintSystem(
            2,
            ((1, 1), (-1, -1), (-2, -1), (0, -1)),
            (2, -2, -3, -1),
            ("a1", "a2"),
        )
        path = tmp_path / "member.txt"
        path.write_text(system_to_text(system))
        return str(path)

    def test_feasible_with_labels(self, capsys, membership_file):
        code, out, _ = run(
            capsys, "feasible", "--system", membership_file, "--box", "2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "feasible"
        assert "a1\t1" in lines

    def test_fix_forces_infeasible(self, capsys, membership_file):
        code, out, _ = run(
            capsys, "feasible", "--system", membership_file, "--box", "2",
            "--fix", "a1=0",
        )
        assert code == 0 and out.strip() == "infeasible"

    def test_json_witness(self, capsys, membership_file):
        code, out, _ = run(
            capsys, "feasible", "--system", membership_file, "--box", "2",
            "--format", "json",
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["feasible"] is True
        assert set(payload["witness"]) == {"a1", "a2"}

    def test_bad_fix_syntax(self, capsys, membership_file):
        code, _, err = run(
            capsys, "feasible", "--system", membership_file, "--box", "2",
            "--fix", "a1:1",
        )
        assert code == 2 and "input error" in err

    @pytest.mark.parametrize("fix", ["a1=" + "7" * 5000, "7" * 5000 + "=3"])
    def test_oversized_fix_is_one_line_parse_error(self, capsys, membership_file, fix):
        code, out, err = run(
            capsys, "feasible", "--system", membership_file, "--box", "2", "--fix", fix
        )
        assert (code, out) == (2, "")
        assert err == "parse error: --fix: integer of 5000 digits exceeds the 4300-digit limit\n"

    @pytest.mark.parametrize(
        "fix, message",
        [
            ("a1=" + "x" * 500, "--fix value must be an integer, got '" + "x" * 60 + "...'"),
            ("y" * 500, "--fix expects label=value, got '" + "y" * 60 + "...'"),
        ],
    )
    def test_long_fix_echo_is_cut(self, capsys, membership_file, fix, message):
        code, _, err = run(
            capsys, "feasible", "--system", membership_file, "--box", "2", "--fix", fix
        )
        assert (code, err) == (2, f"input error: {message}\n")

    @pytest.mark.parametrize(
        "fixes, what",
        [
            (["a1=1", "a1=2"], "label 'a1'"),
            (["0=1", "00=2"], "index 0"),
            (["a1=1", "0=2"], "index 0"),
        ],
    )
    def test_repeated_fix_with_another_value_is_refused(
        self, capsys, membership_file, fixes, what
    ):
        argv = ["feasible", "--system", membership_file, "--box", "2"]
        argv += [arg for fix in fixes for arg in ("--fix", fix)]
        message = f"input error: conflicting assignments for variable {what}\n"
        assert run(capsys, *argv) == (2, "", message)

    def test_repeated_fix_with_the_same_value_is_accepted(self, capsys, membership_file):
        argv = ["feasible", "--system", membership_file, "--box", "2", "--fix", "a1=1"]
        once = run(capsys, *argv)
        assert once[0] == 0 and once[1].splitlines()[0] == "feasible"
        assert run(capsys, *argv, "--fix", "a1=1") == once
        assert run(capsys, *argv, "--fix", "0=1", "--fix", "00=1") == once

    def test_superscript_digit_is_a_label(self, capsys, membership_file):
        # "²".isdigit() holds but int("²") raises; the label is looked up instead
        code, _, err = run(
            capsys, "feasible", "--system", membership_file, "--box", "2", "--fix", "²=1"
        )
        assert (code, err) == (2, "input error: unknown variable label '²'\n")

    def test_non_ascii_decimal_is_a_label_or_a_bad_value(self, capsys, membership_file):
        # "١" (Arabic-Indic one) is decimal and int() reads it, but the
        # input formats read ASCII digits only, and so does --fix
        argv = ["feasible", "--system", membership_file, "--box", "2", "--fix"]
        assert run(capsys, *argv, "١=1") == (2, "", "input error: unknown variable label '١'\n")
        message = "input error: --fix value must be an integer, got '١'\n"
        assert run(capsys, *argv, "a1=١") == (2, "", message)


class TestExitCodes:
    def test_missing_file_is_parse_error(self, capsys):
        code, _, err = run(capsys, "ass", "--ideal", "/nonexistent.txt", "--n", "1")
        assert code == 2
        assert "parse error" in err

    def test_corrupt_file_reports_location(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("vars: 2\nx3^2\n")
        code, _, err = run(capsys, "ass", "--ideal", str(path), "--n", "1")
        assert code == 2
        assert "bad.txt:2" in err

    @pytest.mark.parametrize(
        "name, text",
        [
            ("big.txt", "vars: 1\nx1^" + "7" * 5000 + "\n"),
            ("big.json", '{"r": 1,\n "generators": [[' + "7" * 5000 + "]]}"),
        ],
    )
    def test_oversized_exponent_is_one_line_parse_error(self, capsys, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, "ass", "--ideal", str(path), "--n", "0")
        assert (code, out) == (2, "")
        assert err == (
            f"parse error: {path}:2: integer of 5000 digits exceeds the 4300-digit limit\n"
        )

    @pytest.mark.parametrize(
        "argv, name, data",
        [
            (["ass", "--n", "0", "--ideal"], "ideal.txt", b"vars: 2\nx1 \xff\n"),
            (["cone", "--system"], "system.json", b'{"e": 1,\n"rows": [["\xe9"]]}'),
        ],
        ids=["load_ideal", "load_system"],
    )
    def test_non_utf8_file_is_located_parse_error(self, capsys, tmp_path, argv, name, data):
        path = tmp_path / name
        path.write_bytes(data)
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"parse error: {path}:2: not UTF-8: ")

    @pytest.mark.parametrize(
        "argv, name, head",
        [
            (["ass", "--n", "0", "--ideal"], "deep-ideal.json", '{"r": 1,\n"generators": '),
            (["cone", "--system"], "deep-system.json", '{"e": 1, "rhs": [0],\n"rows": '),
        ],
        ids=["load_ideal", "load_system"],
    )
    def test_deeply_nested_json_is_located_parse_error(self, capsys, tmp_path, argv, name, head):
        path = tmp_path / name
        path.write_text(head + "[" * 100000 + "]" * 100000 + "}")
        code, out, err = run(capsys, *argv, str(path))
        assert (code, out) == (2, "")
        assert err == (
            f"parse error: {path}:2: invalid JSON: arrays and objects nested 100001 deep"
            " exceed the recursion limit\n"
        )

    @pytest.mark.parametrize(
        "name, text",
        [
            ("dup.txt", "vars: 2\nlabels: a a\n1 0 >= 0\n"),
            ("dup.json", '{"e": 2, "rows": [[1, 0]], "rhs": [0], "labels": ["a", "a"]}'),
        ],
        ids=["text", "json"],
    )
    def test_duplicate_labels_are_a_parse_error_naming_the_file(
        self, capsys, tmp_path, name, text
    ):
        path = tmp_path / name
        path.write_text(text)
        message = f"parse error: {path}: variable labels must be distinct, got a a\n"
        assert run(capsys, "cone", "--system", str(path)) == (2, "", message)

    def test_budget_flag(self, capsys, family_file):
        code, _, err = run(
            capsys, "ass", "--ideal", family_file, "--n", "1", "--budget", "1"
        )
        assert code == 3
        assert "budget exceeded" in err

    def test_budget_env_var(self, capsys, family_file, monkeypatch):
        monkeypatch.setenv("BRODMANN_BUDGET", "1")
        code, _, err = run(capsys, "ass", "--ideal", family_file, "--n", "1")
        assert code == 3
        assert "budget exceeded" in err

    def test_budget_covers_the_whole_call(self, capsys, family_file):
        # 25 products and 432 lattice points on the quotient route, 35
        # masked generators for the 7 supports of 5 generators, and 726
        # points on the recursion route, though no table alone needs more
        # than 432
        argv = ["ass", "--ideal", family_file, "--n", "1", "--method", "both"]
        code, out, err = run(capsys, *argv, "--budget", "500")
        assert (code, out) == (3, "")
        assert err == (
            "budget exceeded: membership box needs 363 lattice points,"
            " budget is 500, 492 already charged\n"
        )
        assert run(capsys, *argv, "--budget", "1217")[0] == 3
        assert run(capsys, *argv, "--budget", "1218")[0] == 0
        assert run(capsys, *argv, "--budget", "1229") == run(capsys, *argv)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_one_meter_covers_a_profile_at_any_jobs(self, capsys, family_file, jobs):
        # the profile charges 16,030 units in all, every one of them in the
        # calling process, so --jobs moves no refusal
        argv = ["ass-profile", "--ideal", family_file, "--n-max", "4", "--method", "both"]
        argv += ["--jobs", jobs]
        assert run(capsys, *argv, "--budget", "16029")[0] == 3
        assert run(capsys, *argv, "--budget", "16030")[0] == 0

    def test_budget_does_not_carry_over_between_calls(self, capsys, family_file):
        # each call charges 1218 units, more than half the limit
        argv = ["ass", "--ideal", family_file, "--n", "1", "--method", "both", "--budget", "2000"]
        assert [run(capsys, *argv)[0] for _ in range(2)] == [0, 0]

    def test_malformed_env_var_is_read_only_by_a_charge(self, capsys, family_file, monkeypatch):
        monkeypatch.setenv("BRODMANN_BUDGET", "lots")
        code, _, err = run(capsys, "ass", "--ideal", family_file, "--n", "1")
        assert (code, err) == (2, "input error: BRODMANN_BUDGET must be an integer, got 'lots'\n")
        assert run(capsys, "bound", "--r", "2", "--s", "2", "--d", "2")[0] == 0

    def test_inconsistency_dumps_payload(self, capsys, family_file, monkeypatch):
        def broken(*args, **kwargs):
            raise InconsistencyError(
                "methods disagree",
                payload={"quotient": [[1]], "recursion": [[1], [2]]},
            )

        monkeypatch.setattr("brodmann.assprimes.ass_power", broken)
        code, _, err = run(capsys, "ass", "--ideal", family_file, "--n", "1")
        assert code == 4
        assert "internal inconsistency" in err
        assert '"quotient"' in err and '"recursion"' in err

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_stdout_exits_1_without_a_traceback(self, tmp_path, unbuffered):
        """A reader that closed stdout before any output: the CLI ends with
        an empty stderr and exit 1, for a command's output and for the help
        argparse prints before any command runs, whether the write or the
        flush at exit meets the closed pipe."""
        ideal = tmp_path / "f.txt"
        ideal.write_text(ideal_to_text(minimize([(2, 0), (1, 1), (0, 3)], 2)))
        env = dict(os.environ, PYTHONPATH=str(Path(brodmann.__file__).resolve().parents[1]))
        env["PYTHONUNBUFFERED"] = unbuffered
        for argv in (["rr", "--ideal", str(ideal), "--n", "40"], ["--help"], ["rr", "--help"]):
            read, write = os.pipe()
            os.close(read)
            try:
                done = subprocess.run(
                    [sys.executable, "-m", "brodmann", *argv],
                    stdout=write,
                    stderr=subprocess.PIPE,
                    env=env,
                )
            finally:
                os.close(write)
            assert (done.returncode, done.stderr) == (1, b""), argv

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["no-such-command"])
        assert info.value.code == 2

    def test_bad_flag_value_exits_2(self, capsys, family_file):
        with pytest.raises(SystemExit) as info:
            main(["ass", "--ideal", family_file, "--n", "two"])
        assert info.value.code == 2


class TestPaperExamples:
    def test_quick_run_passes(self, capsys):
        code, out, _ = run(capsys, "paper-examples", "--quick")
        assert code == 0
        lines = out.splitlines()
        assert any(line.startswith("PASS\tfamily_d5_profile") for line in lines)
        assert any(line.startswith("PASS\tbound_report_2_2_2") for line in lines)
        assert lines[-1] == "# 6 checks, 6 passed, 0 failed"
        assert not any(line.startswith("FAIL") for line in lines)


class TestParser:
    def test_only_a_refused_call_builds_the_parser(self, capsys, monkeypatch, rr_file):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        # a well-formed call is read off the option table
        assert run(capsys, "bound", "--r", "2", "--s", "2", "--d", "2")[0] == 0
        assert built == []
        # one the table refuses goes to the full parser, built once with
        # the parser of each subcommand
        full = ["brodmann", *(f"brodmann {name}" for name in _COMMANDS)]
        assert run(capsys, "a0", "--ideal", rr_file, "--n-m", "2")[0] == 0
        assert built == full
        for argv, code in ((["rr", "--ideal", rr_file, "--n", "two"], 2), (["rr", "--help"], 0)):
            built.clear()
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
            assert built == full

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_one_subcommand_parser_prints_as_the_full_one(self, capsys, monkeypatch, name):
        monkeypatch.setenv("COLUMNS", "80")

        def printed(parse, argv):
            with pytest.raises(SystemExit):
                parse(argv)
            return capsys.readouterr()

        # help and usage errors, both the subcommand's and the top level's
        for argv in ([name, "--help"], [name, "--no-such-flag"], [name, "--format", "x"]):
            assert printed(main, argv) == printed(build_parser().parse_args, argv)


def _good_value(spec):
    """A value the option takes."""
    if spec.get("type") is int:
        return st.integers(0, 40).map(str)
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    return st.sampled_from(["two.txt", "x1=3", "0=1", "a b", ""])


# values with a leading dash, and values only some types and choices take
EDGE_VALUES = ["-3", "-x", "--", "-h", "--help", "two", "3.5", " 7 ", "1_0", "ed1", "Ed2", "JSON"]


@st.composite
def _piece(draw, options):
    """Tokens for one option, written well or in one of the forms the table
    leaves to argparse."""
    flag, spec = draw(st.sampled_from(options))
    value = draw(st.one_of(_good_value(spec), st.sampled_from(EDGE_VALUES)))
    well = [flag] if spec.get("action") == "store_true" else [flag, value]
    short = [flag[: draw(st.integers(3, len(flag)))], *well[1:]]
    stray = draw(st.sampled_from(["--", "-h", "--help", "--no-such", "-5", "x"]))
    return draw(
        st.sampled_from([well, [flag, value], [f"{flag}={value}"], short, [flag], [value], [stray]])
    )


@st.composite
def _argvs(draw):
    if draw(st.integers(0, 19)) == 0:
        return draw(st.sampled_from([[], ["--help"], ["nope"], ["-h", "rr"], ["--", "rr"]]))
    name = draw(st.sampled_from(list(_COMMANDS)))
    options = _COMMANDS[name][1]
    pieces = [
        [flag, draw(_good_value(spec))]
        for flag, spec in options
        if spec.get("required") and draw(st.integers(0, 9))
    ]
    pieces += draw(st.lists(_piece(options), max_size=4))
    return [name, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


def _outcome(parse, argv):
    """vars() of what parse gives, or its exit code and printed text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


class TestTableReader:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_argvs())
    @example(["bound", "--ideal"])
    @example(["rr", "--n", "1", "--ideal", "-x"])
    @example(["cone", "--system", "--"])
    @example(["ass", "--ideal", "f", "--n", "-2"])
    def test_parses_as_argparse(self, argv):
        assert _outcome(_parse, argv) == _outcome(build_parser().parse_args, argv)

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_reads_every_option(self, name):
        """Each option given well-formed and in reverse order, --fix twice,
        is read off the table to argparse's values."""
        argv = [name]
        for flag, spec in reversed(_COMMANDS[name][1]):
            if spec.get("action") == "store_true":
                argv += [flag]
            else:
                argv += [flag, spec["choices"][-1] if "choices" in spec else "3"]
        argv += ["--fix", "x1=2"] if name == "feasible" else []
        args = _read(name, argv[1:])
        assert args is not None
        assert vars(args) == vars(build_parser().parse_args(argv))


def test_import_leaves_out_multiprocessing():
    code = "import sys, brodmann.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(Path(brodmann.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.strip() == "False"
