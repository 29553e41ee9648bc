"""Golden outputs of the command line.

Every recorded call keeps its stdout, stderr and exit code byte for byte:
each subcommand in both --format values, each --help text, and the error
paths (exit 2 and 3).  Input files live in a temporary directory whose path
is masked as <tmp>.  Regenerate the expected file only when an output change
is intended, from the root of a checkout:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from brodmann.cli import example_ideal, main
from brodmann.errors import BUDGET_ENV_VAR
from brodmann.ioformats import ideal_to_json, ideal_to_text

GOLDEN = Path(__file__).with_name("golden") / "cli.json"
MASK = "<tmp>"

INPUTS = {
    "family5.txt": ideal_to_text(example_ideal(5)),
    "family5.json": ideal_to_json(example_ideal(5)),
    "gap.txt": "vars: 2\nx1^4\nx1^3 x2\nx1 x2^3\nx2^4\n",
    "two.txt": "vars: 2\nx1^2 x2\nx1 x2^3\n",
    "unit.txt": "vars: 2\n1\n",
    "pure.txt": "vars: 2\nx1^3\nx2^2\n",
    "bad.txt": "vars: 2\nx3\n",
    "stair.txt": "vars: 3\n2 -1 0 >= 0\n0 2 -1 >= 0\n",
    "inhom.txt": "vars: 2\nlabels: a b\n1 1 >= 2\n1 -1 >= -1\n",
    "inhom.json": '{"e": 2, "rows": [[2, -1], [-1, 2]], "rhs": [1, 1]}',
    "badsys.txt": "vars: 2\n1 1 > 2\n",
}

FORMATTED = {"ass-profile", "ass", "rr", "a0", "bound", "cone", "build-system", "feasible"}
SUBCOMMANDS = sorted(FORMATTED | {"paper-examples"})

# (case id, argv); "{t}" stands for the input directory
BASE_CASES = [
    ("ass-profile", ["ass-profile", "--ideal", "{t}/family5.txt", "--n-max", "4"]),
    ("ass-profile-unstable", ["ass-profile", "--ideal", "{t}/family5.txt", "--n-max", "2"]),
    ("ass-profile-json-input", [
        "ass-profile", "--ideal", "{t}/family5.json", "--n-max", "3", "--method", "both"]),
    ("ass-profile-budget", ["ass-profile", "--ideal", "{t}/family5.txt", "--n-max", "2",
                            "--budget", "1"]),
    ("ass-profile-missing", ["ass-profile", "--ideal", "{t}/missing.txt", "--n-max", "2"]),
    ("ass-profile-unit", ["ass-profile", "--ideal", "{t}/unit.txt", "--n-max", "2"]),
    ("ass-profile-parse", ["ass-profile", "--ideal", "{t}/bad.txt", "--n-max", "2"]),
    ("ass-profile-n0", ["ass-profile", "--ideal", "{t}/family5.txt", "--n-max", "0"]),
    ("ass-profile-jobs0", ["ass-profile", "--ideal", "{t}/family5.txt", "--n-max", "2",
                           "--jobs", "0"]),
    ("ass-n0", ["ass", "--ideal", "{t}/family5.txt", "--n", "0"]),
    ("ass-n3-recursion", ["ass", "--ideal", "{t}/family5.txt", "--n", "3",
                          "--method", "recursion"]),
    ("ass-unit", ["ass", "--ideal", "{t}/unit.txt", "--n", "1"]),
    ("ass-budget", ["ass", "--ideal", "{t}/family5.txt", "--n", "1", "--budget", "1"]),
    ("rr-family", ["rr", "--ideal", "{t}/family5.txt", "--n", "1"]),
    ("rr-gap", ["rr", "--ideal", "{t}/gap.txt", "--n", "1"]),
    ("rr-gap-capped", ["rr", "--ideal", "{t}/gap.txt", "--n", "1", "--m-cap", "2"]),
    ("rr-cap1", ["rr", "--ideal", "{t}/gap.txt", "--n", "1", "--m-cap", "1"]),
    ("rr-unit", ["rr", "--ideal", "{t}/unit.txt", "--n", "1"]),
    ("a0-family", ["a0", "--ideal", "{t}/family5.txt", "--n-max", "3"]),
    ("a0-gap", ["a0", "--ideal", "{t}/gap.txt", "--n-max", "3"]),
    ("a0-gap-capped", ["a0", "--ideal", "{t}/gap.txt", "--n-max", "3", "--m-cap", "2"]),
    ("a0-n0", ["a0", "--ideal", "{t}/gap.txt", "--n-max", "0"]),
    ("bound-rsd", ["bound", "--r", "2", "--s", "2", "--d", "2"]),
    ("bound-mid", ["bound", "--r", "3", "--s", "5", "--d", "6"]),
    ("bound-ideal", ["bound", "--ideal", "{t}/family5.txt"]),
    ("bound-conflict", ["bound", "--ideal", "{t}/family5.txt", "--r", "2"]),
    ("bound-partial", ["bound", "--r", "2", "--s", "2"]),
    ("bound-zero", ["bound", "--r", "0", "--s", "1", "--d", "1"]),
    ("bound-unit", ["bound", "--ideal", "{t}/unit.txt"]),
    ("cone-rays", ["cone", "--system", "{t}/stair.txt"]),
    ("cone-bound", ["cone", "--system", "{t}/stair.txt", "--bound"]),
    ("cone-hilbert", ["cone", "--system", "{t}/stair.txt", "--hilbert", "--cap", "4"]),
    ("cone-module-homogeneous", ["cone", "--system", "{t}/stair.txt", "--module"]),
    ("cone-everything", ["cone", "--system", "{t}/stair.txt", "--rays", "--bound",
                         "--hilbert", "--module", "--cap", "4"]),
    ("cone-inhom-bound", ["cone", "--system", "{t}/inhom.txt", "--bound"]),
    ("cone-inhom-module", ["cone", "--system", "{t}/inhom.txt", "--module", "--cap", "3"]),
    ("cone-inhom-json", ["cone", "--system", "{t}/inhom.json", "--bound", "--module",
                         "--cap", "3"]),
    ("cone-inhom-module-nocap", ["cone", "--system", "{t}/inhom.txt", "--module"]),
    ("cone-inhom-rays", ["cone", "--system", "{t}/inhom.txt"]),
    ("cone-hilbert-nocap", ["cone", "--system", "{t}/stair.txt", "--hilbert"]),
    ("cone-budget", ["cone", "--system", "{t}/stair.txt", "--hilbert", "--cap", "4",
                     "--budget", "1"]),
    ("cone-parse", ["cone", "--system", "{t}/badsys.txt"]),
    ("cone-missing", ["cone", "--system", "{t}/missing.txt"]),
    ("build-ed1", ["build-system", "--ideal", "{t}/two.txt", "--mode", "ED1"]),
    ("build-ed2", ["build-system", "--ideal", "{t}/two.txt", "--mode", "ed2"]),
    ("build-ed3", ["build-system", "--ideal", "{t}/family5.txt", "--mode", "ED3"]),
    ("build-out", ["build-system", "--ideal", "{t}/two.txt", "--mode", "ED1",
                   "--out", "{t}/out.sys"]),
    ("build-pure", ["build-system", "--ideal", "{t}/pure.txt", "--mode", "ED1"]),
    ("feasible-label", ["feasible", "--system", "{t}/inhom.txt", "--fix", "a=1", "--box", "3"]),
    ("feasible-index", ["feasible", "--system", "{t}/inhom.txt", "--fix", "1=2", "--box", "3"]),
    ("feasible-unlabeled", ["feasible", "--system", "{t}/inhom.json", "--box", "2"]),
    ("feasible-none", ["feasible", "--system", "{t}/inhom.txt", "--box", "0"]),
    ("feasible-fix-no-eq", ["feasible", "--system", "{t}/inhom.txt", "--fix", "a", "--box", "3"]),
    ("feasible-fix-not-int", ["feasible", "--system", "{t}/inhom.txt", "--fix", "a=x",
                              "--box", "3"]),
    ("feasible-fix-unknown", ["feasible", "--system", "{t}/inhom.txt", "--fix", "q=1",
                              "--box", "3"]),
    ("feasible-budget", ["feasible", "--system", "{t}/inhom.txt", "--box", "3",
                         "--budget", "1"]),
]  # fmt: skip

# output written by argparse itself, whose wording varies across Python versions
ARGPARSE_CASES = [
    ("help", ["--help"]),
    ("no-command", []),
    ("missing-required", ["ass", "--n", "1"]),
    ("build-bad-mode", ["build-system", "--ideal", "{t}/two.txt", "--mode", "ED9"]),
    ("no-such-command", ["no-such-command"]),
    ("ass-unknown-flag", ["ass", "--ideal", "{t}/two.txt", "--n", "1", "--no-such-flag"]),
    # edges of choosing the parser by argv[0]: errors that print the top-level usage
    ("rr-no-args", ["rr"]),
    ("flag-before-command", ["--bogus", "rr", "--ideal", "{t}/gap.txt", "--n", "1"]),
    ("dashdash-before-command", ["--", "rr", "--ideal", "{t}/gap.txt", "--n", "1"]),
    ("rr-extra-positional", ["rr", "--ideal", "{t}/gap.txt", "--n", "1", "extra"]),
    ("rr-equals", ["rr", "--ideal={t}/gap.txt", "--n=1"]),
    ("rr-abbreviated-flag", ["rr", "--ide", "{t}/gap.txt", "--n", "1"]),
    ("rr-dashdash-in-command", ["rr", "--ideal", "{t}/gap.txt", "--", "--n", "1"]),
    ("rr-extra-positionals", ["rr", "--n", "1", "--ideal", "{t}/gap.txt", "extra", "more"]),
    ("rr-repeated-flag", ["rr", "--ideal", "{t}/gap.txt", "--n", "1", "--n", "2"]),
    ("ass-profile-short-flag", ["ass-profile", "--ideal", "{t}/family5.txt", "--n-max", "1",
                                "-x"]),
    *((f"help-{name}", [name, "--help"]) for name in SUBCOMMANDS),
]


def all_cases() -> list[tuple[str, list[str]]]:
    cases = []
    for case_id, argv in BASE_CASES:
        for fmt in ("tsv", "json"):
            cases.append((f"{case_id}.{fmt}", argv + ["--format", fmt]))
    cases.append(("paper-examples-quick", ["paper-examples", "--quick"]))
    cases.extend(ARGPARSE_CASES)
    return cases


def write_inputs(root: Path) -> None:
    for name, text in INPUTS.items():
        (root / name).write_text(text)


def run_case(root: Path, argv: list[str]) -> dict:
    """Run one CLI call in process; the returned record has <tmp> masked."""
    tmp = str(root)
    argv = [a.replace("{t}", tmp) for a in argv]
    out_file = next((a for a in argv if a.endswith("out.sys")), None)
    if out_file is not None and os.path.exists(out_file):
        os.remove(out_file)
    out, err = io.StringIO(), io.StringIO()
    saved = {k: os.environ.get(k) for k in ("COLUMNS", "LINES", BUDGET_ENV_VAR)}
    os.environ.update(COLUMNS="80", LINES="24")
    os.environ.pop(BUDGET_ENV_VAR, None)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    record = {
        "code": code,
        "stdout": out.getvalue().replace(tmp, MASK),
        "stderr": err.getvalue().replace(tmp, MASK),
    }
    if out_file is not None:
        record["out_file"] = Path(out_file).read_text().replace(tmp, MASK)
    return record


def record_all() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_inputs(root)
        return {
            "python": list(sys.version_info[:2]),
            "cases": {case_id: run_case(root, argv) for case_id, argv in all_cases()},
        }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("golden")
    write_inputs(root)
    return root


def test_golden_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(case_id for case_id, _ in all_cases())


@pytest.mark.parametrize("case_id,argv", all_cases(), ids=[c for c, _ in all_cases()])
def test_cli_output_is_unchanged(golden, inputs, case_id, argv):
    if case_id in dict(ARGPARSE_CASES) and list(sys.version_info[:2]) != golden["python"]:
        pytest.skip("argparse wording was recorded under another Python version")
    assert run_case(inputs, argv) == golden["cases"][case_id]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
