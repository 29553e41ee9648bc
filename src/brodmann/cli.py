"""Command-line surface for the toolkit.

Subcommands cover ideal profiles of associated primes, single-power runs,
Ratliff-Rush closures, the torsion-degree scan, stabilization thresholds,
cone generators, ED constraint-system construction, bounded feasibility
search, and a self-checking examples runner.

Exit codes: 0 success, 1 stdout closed early by its reader (no traceback),
2 malformed input or arguments, 3 enumeration budget exceeded, 4 internal
inconsistency (both conflicting answers are dumped).

Each command imports the library functions it calls when it runs, so that
building the parser loads no computing module and a call loads only what
its command needs.  The options of every subcommand are one table,
`_COMMANDS`, of add_argument keywords.  A well-formed call is read straight
off that table, building no parser and importing no argparse; any other
command line goes to the full argparse parser, built from the same table
(see `_parse`).
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .errors import (
    DEFAULT_M_CAP,
    ED_MODES,
    METHODS,
    BudgetError,
    InconsistencyError,
    InputError,
    ParseError,
    enumeration_budget,
    require_count,
)

if TYPE_CHECKING:
    import argparse

    from .monomials import MonomialIdeal

    Args = argparse.Namespace | SimpleNamespace

INDEX_NOTE = (
    "row n lists Ass(I^n/I^(n+1)); in the shifted numbering Ass(I^(m-1)/I^m) "
    "this is m = n+1"
)


def _primes_cell(primes: list[tuple[int, ...]]) -> str:
    from .ioformats import prime_str

    return ",".join(prime_str(p) for p in primes) or "-"


def _vector_cell(v: tuple[int, ...]) -> str:
    return " ".join(str(c) for c in v)


def _cmd_ass_profile(args: Args) -> dict:
    from .assprimes import ass_profile
    from .ioformats import load_ideal

    I = load_ideal(args.ideal)
    require_count(args.jobs, 1, "parallelism degree")
    profile = ass_profile(I, args.n_max, method=args.method)
    stable = profile.observed_stable_at
    return {
        "r": profile.ideal.r,
        "n_max": profile.n_max,
        "method": profile.method,
        "index_note": INDEX_NOTE,
        "entries": [
            {"n": n, "shifted_n": n + 1, "primes": sorted(e)}
            for n, e in enumerate(profile.entries)
        ],
        "observed_stable_at": stable,
        "observed_stable_at_shifted": None if stable is None else stable + 1,
        "non_monotone_at": list(profile.non_monotone_at),
    }


def _tsv_ass_profile(p: dict) -> str:
    lines = [f"# {p['index_note']}", "# n\tprimes"]
    lines += [f"{e['n']}\t{_primes_cell(e['primes'])}" for e in p["entries"]]
    stable = p["observed_stable_at"]
    if stable is None:
        lines.append(f"# observed_stable_at: none up to n_max={p['n_max']}")
    else:
        lines.append(f"# observed_stable_at: {stable} (shifted index {stable + 1})")
    if p["non_monotone_at"]:
        lines.append("# non_monotone_at: " + ",".join(map(str, p["non_monotone_at"])))
    return "\n".join(lines)


def _cmd_ass(args: Args) -> dict:
    from .assprimes import ass_power
    from .ioformats import load_ideal

    I = load_ideal(args.ideal)
    primes = ass_power(I, args.n, method=args.method)
    return {
        "n": args.n,
        "shifted_n": args.n + 1,
        "method": args.method,
        "index_note": INDEX_NOTE,
        "primes": sorted(primes),
    }


def _tsv_ass(p: dict) -> str:
    return f"# {p['index_note']}\n{p['n']}\t{_primes_cell(p['primes'])}"


def _cmd_rr(args: Args) -> dict:
    from .cohomology import ratliff_rush
    from .ioformats import load_ideal, monomial_str

    I = load_ideal(args.ideal)
    res = ratliff_rush(I, args.n, m_cap=args.m_cap)
    return {
        "n": res.n,
        "closure_generators": res.closure.generators,
        "closure_monomials": [monomial_str(g) for g in res.closure.generators],
        "stabilized_at_m": res.stabilized_at_m,
        "certified": res.certified,
        "chain_monotone": res.chain_monotone,
    }


def _tsv_rr(p: dict) -> str:
    head = (
        "# Ratliff-Rush closure of I^{n}\n"
        "# stabilized_at_m: {stabilized_at_m}\n"
        "# certified: {certified}".format_map(p)
    )
    return "\n".join([head, *p["closure_monomials"]])


def _cmd_a0(args: Args) -> dict:
    from .cohomology import a0_observed
    from .ioformats import load_ideal

    I = load_ideal(args.ideal)
    res = a0_observed(I, args.n_max, m_cap=args.m_cap)
    return {
        "a0": res.value,
        "per_degree_flags": res.flags,
        "certified": res.certified,
        "warnings": res.warnings,
        "note": "per_degree_flags[k] reports nonzero Rees-irrelevant torsion in degree k",
    }


def _tsv_a0(p: dict) -> str:
    lines = [f"# a0: {p['a0']}", f"# certified: {p['certified']}"]
    lines += [f"{k}\t{flag}" for k, flag in enumerate(p["per_degree_flags"])]
    lines += [f"# warning: {w}" for w in p["warnings"]]
    return "\n".join(lines)


def _cmd_bound(args: Args) -> dict:
    from .bounds import bound_report, ideal_parameters

    explicit = [v for v in (args.r, args.s, args.d) if v is not None]
    if args.ideal is not None:
        if explicit:
            raise InputError("--ideal conflicts with explicit --r/--s/--d")
        from .ioformats import load_ideal

        r, s, d = ideal_parameters(load_ideal(args.ideal))
    else:
        if len(explicit) != 3:
            raise InputError("provide either --ideal or all of --r, --s, --d")
        r, s, d = args.r, args.s, args.d
    # the report's fields in order, b_exact as b and the digit counts nested;
    # the radicals stay exact objects, which JSON renders with str()
    fields = vars(bound_report(r, s, d))
    payload = {k.removesuffix("_exact"): v for k, v in fields.items() if "digits" not in k}
    payload["digits"] = {k.removeprefix("digits_"): v for k, v in fields.items() if "digits" in k}
    return payload


_BOUND_TSV = (
    "# stabilization thresholds for r={r} s={s} d={d}\n"
    "b1\t{b1}\tceil={b1_ceil}\n"
    "b2\t{b2}\n"
    "b3\t{b3}\tceil={b3_ceil}\tfloor_reading={b3_floor_reading}\n"
    "b4\t{b4}\n"
    "b\t{b}\tceil={b_ceil}\n"
    "# B = max(B1, B2) = {b}\n"
    "# digits: b1={digits[b1]} b2={digits[b2]} b={digits[b]}"
)


def _tsv_bound(p: dict) -> str:
    from .printing import decimal_str, each_int_once

    with each_int_once():
        cells = {k: decimal_str(v) if type(v) is int else v for k, v in p.items()}
        return _BOUND_TSV.format_map(cells)


def _cmd_cone(args: Args) -> dict:
    from .ioformats import load_system
    from .polyhedra import (
        bound_a1,
        bound_a2,
        extreme_rays,
        hilbert_generators,
        module_generators,
    )

    system = load_system(args.system)
    homogeneous = system.is_homogeneous()
    payload: dict = {"e": system.e, "homogeneous": homogeneous}
    if args.rays or not (args.hilbert or args.module or args.bound):
        payload["rays"] = extreme_rays(system)
    if args.bound:
        a2 = None if homogeneous else bound_a2(system)
        a1 = bound_a1(system.homogenized())
        payload.update(bound_a1=a1, bound_a1_ceil=a1.ceil())
        if a2 is not None:
            payload.update(bound_a2=a2, bound_a2_ceil=a2.ceil())
    if args.hilbert:
        if args.cap is None:
            raise InputError("--hilbert requires --cap")
        payload["hilbert"] = hilbert_generators(system, args.cap)
    if args.module:
        if args.cap is not None:
            payload["module"] = module_generators(system, args.cap)
        elif homogeneous:
            payload["module"] = [(0,) * system.e]
        else:
            raise InputError("--module requires --cap")
    return payload


def _tsv_cone(p: dict) -> str:
    lines = []
    if "rays" in p:
        lines.append("# extreme rays")
        lines += [f"ray\t{_vector_cell(v)}" for v in p["rays"]]
    for key in ("bound_a1", "bound_a2"):
        if key in p:
            lines.append(f"{key}\t{p[key]}\tceil={p[key + '_ceil']}")
    for key, title in (("hilbert", "semigroup"), ("module", "module")):
        if key in p:
            lines.append(f"# {title} generators")
            lines += [f"{key}\t{_vector_cell(v)}" for v in p[key]]
    return "\n".join(lines)


def _cmd_build_system(args: Args) -> dict:
    from .ioformats import load_ideal, system_payload
    from .polyhedra import build_system, designated_generator

    I = load_ideal(args.ideal)
    system = build_system(I, args.mode)
    gen = I.generators[designated_generator(I)]
    return {**system_payload(system), "mode": args.mode, "designated_generator": gen}


def _tsv_build_system(p: dict) -> str:
    from .ioformats import monomial_str, system_to_text
    from .polyhedra import ConstraintSystem

    # the payload holds the system in its JSON form, extra keys aside
    rows, labels = tuple(map(tuple, p["rows"])), p.get("labels")
    system = ConstraintSystem(p["e"], rows, tuple(p["rhs"]), labels and tuple(labels))
    return (
        f"# mode: {p['mode']}\n"
        f"# designated generator: {monomial_str(p['designated_generator'])}\n"
        + system_to_text(system)
    )


def _parse_fix(pairs: list[str]) -> dict[str | int, int]:
    """label=value pairs; an all-digit label is a 0-based index.  Integers
    past the int-from-str limit are a ParseError naming --fix, and echoed
    input is cut to 60 characters."""
    from .ioformats import _excerpt, _parse_int

    fixed: dict[str | int, int] = {}
    for pair in pairs:
        if "=" not in pair:
            raise InputError(f"--fix expects label=value, got {_excerpt(pair)!r}")
        key, _, raw = pair.partition("=")
        key = key.strip()
        try:
            value = _parse_int(raw, "--fix", None)
        except ParseError:
            raise
        except ValueError:
            raise InputError(f"--fix value must be an integer, got {_excerpt(raw)!r}")
        # ASCII decimals only, as in the input files: anything else is a label
        key = _parse_int(key, "--fix", None) if key.isascii() and key.isdecimal() else key
        if fixed.setdefault(key, value) != value:
            what = f"index {key}" if isinstance(key, int) else f"label {key!r}"
            raise InputError(f"conflicting assignments for variable {_excerpt(what)}")
    return fixed


def _cmd_feasible(args: Args) -> dict:
    from .ioformats import load_system
    from .polyhedra import solve_feasible

    system = load_system(args.system)
    fixed = _parse_fix(args.fix or [])
    witness = solve_feasible(system, fixed, args.box)
    labels = system.labels or tuple(f"v{i}" for i in range(system.e))
    return {
        "feasible": witness is not None,
        "box": args.box,
        "witness": None if witness is None else dict(zip(labels, witness)),
    }


def _tsv_feasible(p: dict) -> str:
    if not p["feasible"]:
        return "infeasible"
    return "\n".join(["feasible", *(f"{k}\t{v}" for k, v in p["witness"].items())])


def example_ideal(d: int) -> MonomialIdeal:
    """The five-generator family in three variables used by the examples
    runner: x^d, x^(d-1)y, xy^(d-1), y^d, x^2 y^(d-2) z for d >= 4."""
    from .monomials import MonomialIdeal

    if d < 4:
        raise InputError(f"the example family needs d >= 4, got {d}")
    gens = [(d, 0, 0), (d - 1, 1, 0), (1, d - 1, 0), (0, d, 0), (2, d - 2, 1)]
    return MonomialIdeal(3, tuple(sorted(gens, reverse=True)))


def _check_example_family(d: int) -> tuple[bool, str]:
    from .assprimes import ass_profile

    I = example_ideal(d)
    profile = ass_profile(I, d, method="both")
    small = frozenset({(1, 2), (1, 2, 3)})
    large = frozenset({(1, 2)})
    ok = profile.observed_stable_at == d - 3 and all(
        entry == (small if n <= d - 4 else large) for n, entry in enumerate(profile.entries)
    )
    detail = (
        f"entries over n=0..{d}, both methods, stable_at="
        f"{profile.observed_stable_at} (want {d - 3})"
    )
    return ok, detail


def _check_staircase(e: int, d: int) -> tuple[bool, str]:
    from .polyhedra import extreme_rays, hilbert_generators, staircase_system

    system = staircase_system(e, d)
    ray = tuple(d**k for k in range(e))
    rays = extreme_rays(system)
    gens = hilbert_generators(system, cap=d ** (e - 1))
    ok = ray in rays and ray in gens
    return ok, f"ray {ray} among {len(rays)} rays and {len(gens)} generators"


def _check_bounds() -> tuple[bool, str]:
    from .bounds import bound_report

    rep = bound_report(2, 2, 2)
    ok = (rep.b1, rep.b2, rep.b_exact, rep.b4) == (1024, 16777216, 16777216, 5791)
    return ok, f"b1={rep.b1_ceil} b2={rep.b2} b4={rep.b4} b={rep.b_ceil}"


def _cmd_paper_examples(args: Args) -> dict:
    checks: list[tuple[str, bool, str]] = []
    for d in (5,) if args.quick else (5, 6, 7):
        ok, detail = _check_example_family(d)
        checks.append((f"family_d{d}_profile", ok, detail))
    for e in (2, 3):
        for d in (2, 3):
            ok, detail = _check_staircase(e, d)
            checks.append((f"staircase_e{e}_d{d}", ok, detail))
    ok, detail = _check_bounds()
    checks.append(("bound_report_2_2_2", ok, detail))
    return {"checks": checks, "failed": sum(not ok for _, ok, _ in checks)}


def _tsv_paper_examples(p: dict) -> str:
    lines = [f"{'PASS' if ok else 'FAIL'}\t{name}\t{detail}" for name, ok, detail in p["checks"]]
    n, failed = len(p["checks"]), p["failed"]
    lines.append(f"# {n} checks, {n - failed} passed, {failed} failed")
    return "\n".join(lines)


# The options each subcommand takes, in the order its help lists them: the
# flag and its add_argument keywords.  The dest is argparse's own (the flag
# without "--", dashes as underscores) unless a spec names it.
_FORMAT = ("--format", {"choices": ("tsv", "json"), "default": "tsv", "help": "output format"})
_FORMAT_JSON = ("--format", {**_FORMAT[1], "default": "json"})
_BUDGET_HELP = "lattice-point enumeration budget (default: BRODMANN_BUDGET or built-in)"
_BUDGET = ("--budget", {"type": int, "default": None, "help": _BUDGET_HELP})
_FIX_HELP = "fix a variable by label or 0-based index (repeatable)"
_FIX = ("--fix", {"action": "append", "default": [], "metavar": "VAR=VALUE", "help": _FIX_HELP})
_M_CAP = ("--m-cap", {"type": int, "default": DEFAULT_M_CAP, "dest": "m_cap"})
_JOBS_HELP = "ignored: one process computes every entry"

# subcommand -> (help line, its options, the defaults it sets: the payload
# builder, the TSV renderer and, where there is no --format, the format)
_COMMANDS = {
    "ass-profile": (
        "primes of I^n/I^(n+1) for n = 0..n_max",
        (
            ("--ideal", {"required": True, "help": "ideal file (text or .json)"}),
            ("--n-max", {"type": int, "required": True, "dest": "n_max"}),
            ("--method", {"choices": METHODS, "default": "quotient"}),
            ("--jobs", {"type": int, "default": 1, "help": _JOBS_HELP}),
            _BUDGET,
            _FORMAT,
        ),
        {"func": _cmd_ass_profile, "tsv": _tsv_ass_profile},
    ),
    "ass": (
        "primes of I^n/I^(n+1) for a single n",
        (
            ("--ideal", {"required": True}),
            ("--n", {"type": int, "required": True}),
            ("--method", {"choices": METHODS, "default": "quotient"}),
            _BUDGET,
            _FORMAT,
        ),
        {"func": _cmd_ass, "tsv": _tsv_ass},
    ),
    "rr": (
        "Ratliff-Rush closure of I^n",
        (
            ("--ideal", {"required": True}),
            ("--n", {"type": int, "required": True}),
            _M_CAP,
            _FORMAT_JSON,
        ),
        {"func": _cmd_rr, "tsv": _tsv_rr},
    ),
    "a0": (
        "top degree with nonzero Rees-irrelevant torsion",
        (
            ("--ideal", {"required": True}),
            ("--n-max", {"type": int, "required": True, "dest": "n_max"}),
            _M_CAP,
            _FORMAT_JSON,
        ),
        {"func": _cmd_a0, "tsv": _tsv_a0},
    ),
    "bound": (
        "stabilization thresholds from (r, s, d)",
        (
            ("--r", {"type": int, "default": None, "help": "number of variables"}),
            ("--s", {"type": int, "default": None, "help": "number of generators"}),
            ("--d", {"type": int, "default": None, "help": "largest generator degree"}),
            ("--ideal", {"default": None, "help": "derive (r, s, d) from this ideal"}),
            _FORMAT,
        ),
        {"func": _cmd_bound, "tsv": _tsv_bound},
    ),
    "cone": (
        "extreme rays and generator enumeration",
        (
            ("--system", {"required": True, "help": "constraint-system file"}),
            ("--rays", {"action": "store_true", "help": "list extreme rays (default)"}),
            ("--hilbert", {"action": "store_true", "help": "semigroup generators"}),
            ("--module", {"action": "store_true", "help": "module generators"}),
            ("--bound", {"action": "store_true", "help": "print norm bounds"}),
            ("--cap", {"type": int, "default": None, "help": "enumeration box cap"}),
            _BUDGET,
            _FORMAT,
        ),
        {"func": _cmd_cone, "tsv": _tsv_cone},
    ),
    "build-system": (
        "construct an ED constraint system",
        (
            ("--ideal", {"required": True}),
            ("--mode", {"type": str.upper, "choices": ED_MODES, "required": True}),
            ("--out", {"default": None, "help": "write to this file instead of stdout"}),
            _FORMAT,
        ),
        {"func": _cmd_build_system, "tsv": _tsv_build_system},
    ),
    "feasible": (
        "bounded search for an integer solution",
        (
            ("--system", {"required": True}),
            _FIX,
            ("--box", {"type": int, "required": True, "help": "range 0..box per free variable"}),
            _BUDGET,
            _FORMAT,
        ),
        {"func": _cmd_feasible, "tsv": _tsv_feasible},
    ),
    "paper-examples": (
        "run the built-in example expectations and print a pass/fail table",
        (("--quick", {"action": "store_true", "help": "smallest family member only"}),),
        {"func": _cmd_paper_examples, "tsv": _tsv_paper_examples, "format": "tsv"},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The argument parser with every subcommand."""
    import argparse

    class Parser(argparse.ArgumentParser):
        """argparse's parser, but a write to stdout is flushed and may raise:
        argparse drops an `OSError` there, and help into a closed pipe would exit 0."""

        def _print_message(self, message: str, file=None) -> None:
            if file is sys.stdout:
                file.write(message)
                file.flush()
            else:
                super()._print_message(message, file)

    parser = Parser(
        prog="brodmann",
        description="Associated primes of monomial ideal powers, Ratliff-Rush "
        "closures, polyhedral generator enumeration, and stabilization bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, options, defaults) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag, spec in options:
            command.add_argument(flag, **spec)
        command.set_defaults(**defaults)
    return parser


def _read(name: str, argv: list[str]) -> SimpleNamespace | None:
    """The arguments of subcommand name read off its options, or None
    unless argv has the one form argparse is sure to read the same way:
    exact flags; switches with no value; --fix as often as wanted; each
    other flag once, then one value not starting with "-", converted by
    its type and among its choices; every required option given.
    """
    _, options, defaults = _COMMANDS[name]
    specs = dict(options)
    dests = {flag: spec.get("dest", flag[2:].replace("-", "_")) for flag, spec in options}
    values: dict = {}
    tokens = iter(argv)
    for flag in tokens:
        spec = specs.get(flag)
        if spec is None:
            return None
        action = spec.get("action")
        if action == "store_true":
            value = True
        else:
            raw = next(tokens, "-")
            if raw.startswith("-"):
                return None
            try:
                value = spec.get("type", str)(raw)
            except (TypeError, ValueError):
                return None
            if value not in spec.get("choices", (value,)):
                return None
        if action == "append":
            values.setdefault(dests[flag], []).append(value)
        elif dests[flag] in values:
            return None
        else:
            values[dests[flag]] = value
    for flag, spec in options:
        if dests[flag] in values:
            continue
        if spec.get("required"):
            return None
        action = spec.get("action")
        default = spec.get("default", False if action == "store_true" else None)
        values[dests[flag]] = list(default) if action == "append" else default
    return SimpleNamespace(command=name, **values, **defaults)


def _parse(argv: list[str]) -> Args:
    """argv parsed as the full parser parses it.

    A call `_read` accepts builds no parser and loads no argparse.  Any
    other argv goes to the full parser unchanged, so help, errors and exit
    codes are its own.
    """
    if argv and argv[0] in _COMMANDS:
        args = _read(argv[0], argv[1:])
        if args is not None:
            return args
    return build_parser().parse_args(argv)


def _run(args: Args) -> int:
    """Build the subcommand's payload and print it as JSON or as its TSV.

    Every int that can be long prints through `printing.decimal_str`, which
    is subquadratic past its cutover, and at any length: here the int-to-str
    limit is lifted (B2 has 4321 digits for `bound --r 6 --s 35 --d 45`),
    while parsing input keeps it.  `printing.json_text` writes the bytes of
    `json.dumps(payload, indent=2, default=str)`.  A payload that counts
    failed checks exits 4.  The call's enumerations share one budget
    (`--budget`, where the subcommand has it).
    """
    from .printing import json_text

    with enumeration_budget(getattr(args, "budget", None)):
        payload = args.func(args)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        if args.format == "json":
            text = json_text(payload)
        else:
            text = args.tsv(payload)
    finally:
        sys.set_int_max_str_digits(limit)
    text = text if text.endswith("\n") else text + "\n"
    if getattr(args, "out", None) is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)
        sys.stdout.flush()
    return 4 if payload.get("failed") else 0


def main(argv: list[str] | None = None) -> int:
    """Run one command line; its exit code.  Every write to stdout, help
    included, is flushed where it is made, so that a closed stdout meets the
    one `BrokenPipeError` handler here, never the flush at exit."""
    if argv is None:
        argv = sys.argv[1:]
    try:
        return _run(_parse(argv))
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        if exc.payload:
            from .printing import json_text

            print(json_text(exc.payload), file=sys.stderr)
        return 4
    except BrokenPipeError:
        # point the closed stdout at devnull, so the flush at exit is silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
