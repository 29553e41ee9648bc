"""The public API: what `brodmann` exports, what it no longer has, and no
unused import from within the package."""

import ast
import importlib
import inspect
import pkgutil
from math import prod
from pathlib import Path

import brodmann
from brodmann import cli, errors, monomials, polyhedra
from brodmann.monomials import BoxTable, Packing
from brodmann.radicals import ExactRadical, RadicalSum

PUBLIC = [
    "A0Result",
    "AssProfile",
    "BUDGET_ENV_VAR",
    "BoundReport",
    "BudgetError",
    "ConstraintSystem",
    "DEFAULT_BUDGET",
    "ExactRadical",
    "H0Report",
    "InconsistencyError",
    "InputError",
    "Monomial",
    "MonomialIdeal",
    "ParseError",
    "RRResult",
    "RadicalSum",
    "__version__",
    "a0_observed",
    "add",
    "ass_of_quotient",
    "ass_power",
    "ass_profile",
    "bound_a1",
    "bound_a2",
    "bound_b1",
    "bound_b2",
    "bound_b3",
    "bound_b4",
    "bound_report",
    "build_system",
    "colon_ideal",
    "colon_monomial",
    "contains_ideal",
    "delete_variable",
    "designated_generator",
    "enumeration_budget",
    "extreme_rays",
    "h0_m_monomials",
    "hilbert_generators",
    "ideal_parameters",
    "ideal_to_json",
    "ideal_to_text",
    "intersect",
    "intersect_all",
    "load_ideal",
    "load_system",
    "max_ideal_in_ass",
    "minimize",
    "module_generators",
    "parse_ideal_json",
    "parse_ideal_text",
    "parse_system_json",
    "parse_system_text",
    "power",
    "product",
    "ratliff_rush",
    "saturate",
    "solve_feasible",
    "stabilization_bound",
    "staircase_system",
    "system_to_json",
    "system_to_text",
    "unit_ideal",
    "zero_ideal",
]

# Removed from the library: nothing in the CLI, the benchmark or README used
# them.  The test-only helpers among them live on in tests/oracles.py.
REMOVED = [
    "ComparisonReport",
    "compare_with_observed",
    "contains",
    "decompose_module",
    "divides",
    "greedy_decompose",
    "iter_box",
    "star_norm",
    "validate_minimal",
]


def test_all_is_the_pinned_list():
    assert len(set(brodmann.__all__)) == len(brodmann.__all__)
    assert sorted(brodmann.__all__) == PUBLIC


def test_every_exported_name_resolves():
    assert [name for name in PUBLIC if not hasattr(brodmann, name)] == []


def test_removed_names_are_gone():
    # every module but __main__, which runs the CLI on import
    names = [m.name for m in pkgutil.iter_modules(brodmann.__path__)]
    modules = ["brodmann"] + [f"brodmann.{n}" for n in names if n != "__main__"]
    assert len(modules) == 10
    left = [
        (module, name)
        for module in modules
        for name in REMOVED
        if hasattr(importlib.import_module(module), name)
    ]
    assert left == []


def test_removed_members_are_gone():
    assert "bounds" not in BoxTable.__slots__
    assert not hasattr(ExactRadical, "_cmp")
    assert not hasattr(Packing, "colon")
    assert "__getitem__" not in vars(BoxTable)


def test_no_unused_relative_imports():
    """Every name a module imports is used there, whether from within the
    package or not (`__init__` imports only to re-export)."""
    unused = []
    for path in sorted(Path(brodmann.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            (path.name, (alias.asname or alias.name).partition(".")[0])
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (alias.asname or alias.name).partition(".")[0] not in used
        ]
    assert unused == []


def _mentions(node):
    """Every name that node uses: variables, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_private_helper_is_used():
    """Every module-level private function or class of the package is used
    somewhere in the package outside its own definition."""
    statements = [
        node
        for path in sorted(Path(brodmann.__file__).parent.glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    private = [
        node
        for node in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    assert len(private) > 10
    unused = [
        node.name
        for node in private
        if not any(other is not node and node.name in _mentions(other) for other in statements)
    ]
    assert unused == []


CACHES = {"lru_cache", "cache"}


def _cache_name(node):
    """The name a decorator or called expression gives, if it is a cache."""
    node = node.func if isinstance(node, ast.Call) else node
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    return name if name in CACHES else None


def test_only_the_cleared_caches_exist():
    """Only `power` and `delete_variable` are cached, the two caches the
    benchmark clears between ops.  Any other process-wide cache would carry
    answers from one request to the next: a speedup no CLI call sees."""
    decorated, mentions = [], 0
    for path in sorted(Path(brodmann.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                decorated += [(path.stem, node.name) for d in node.decorator_list if _cache_name(d)]
            elif isinstance(node, (ast.Name, ast.Attribute)) and _cache_name(node):
                mentions += 1
    assert sorted(decorated) == [("monomials", "delete_variable"), ("monomials", "power")]
    # no cache applied other than as a decorator, as in lru_cache()(f)
    assert mentions == len(decorated)


def test_no_function_takes_a_budget():
    """The enumeration budget is one meter per request, opened with
    `enumeration_budget`; no function or method takes a budget argument."""
    taking = [
        (path.name, node.name)
        for path in sorted(Path(brodmann.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and "budget"
        in [a.arg for a in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)]
    ]
    assert taking == []


# What the benchmark's tracer (bench/spans.py) and runner (bench/run.py) read
# from the library.  These pins change together with the benchmark, in the
# change that refreshes it (ROADMAP item 1); until then a library change that
# breaks `bench/run.py --trace 1` fails here.


def _calls(name):
    """Every call of `name` in the package sources."""
    return [
        node
        for path in sorted(Path(brodmann.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
    ]


def test_bench_clears_and_reads_the_lru_caches():
    for fn in (monomials.power, monomials.delete_variable):
        assert callable(fn.cache_clear) and callable(fn.cache_info)


def test_bench_counts_box_cells_from_the_byte_table():
    table = BoxTable(((2, 0, 1), (0, 3, 0)), (3, 4, 2))
    assert len(table.table) == prod(table.dims) == 4 * 5 * 3


def test_bench_wraps_the_radical_rounding_of_each_class():
    # the tracer patches these through each class's own __dict__
    for cls in (ExactRadical, RadicalSum):
        assert {"floor", "ceil"} <= vars(cls).keys()
    assert "bounds" in vars(RadicalSum)


def test_bench_parser_takes_ass_profile_jobs():
    args = cli.build_parser().parse_args(
        ["ass-profile", "--ideal", "f", "--n-max", "2", "--jobs", "2"]
    )
    assert (args.ideal, args.n_max, args.jobs) == ("f", 2, 2)


def test_bench_reads_the_points_of_charge_budget_positionally():
    first = next(iter(inspect.signature(errors.charge_budget).parameters.values()))
    assert first.name == "points" and first.kind is first.POSITIONAL_OR_KEYWORD
    calls = _calls("charge_budget")
    assert calls and all(call.args for call in calls)


def test_bench_reads_solve_feasible_arguments_positionally():
    params = list(inspect.signature(polyhedra.solve_feasible).parameters.values())
    assert [(p.name, p.kind) for p in params] == [
        (name, inspect.Parameter.POSITIONAL_OR_KEYWORD) for name in ("sys", "fixed", "box")
    ]
    calls = _calls("solve_feasible")
    assert calls and all(len(call.args) == 3 and not call.keywords for call in calls)
