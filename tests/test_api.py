"""The public API: what `brodmann` exports, what it no longer has, the
sizes and indices it refuses, and no unused import from within the
package."""

import ast
import importlib
import inspect
import pkgutil
from math import prod
from pathlib import Path

import pytest

import brodmann
from brodmann import cli, errors, monomials, polyhedra
from brodmann.monomials import BoxTable, MonomialIdeal, Packing
from brodmann.radicals import ExactRadical, RadicalSum, split_square

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
    "ass_of_quotient",
    "ass_power",
    "ass_profile",
    "bound_a1",
    "bound_a2",
    "bound_report",
    "build_system",
    "colon_ideal",
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
    "ratliff_rush",
    "solve_feasible",
    "staircase_system",
    "system_to_json",
    "system_to_text",
    "unit_ideal",
    "zero_ideal",
]

# Removed from the library: nothing in the CLI, the benchmark or README used
# them.  The test-only helpers among them live on in tests/oracles.py, and the
# threshold functions are fields of `bound_report`.
REMOVED = [
    "ComparisonReport",
    "_add_options",
    "_ass_by_localization",
    "add",
    "bound_b1",
    "bound_b2",
    "bound_b3",
    "bound_b3_floor_reading",
    "bound_b4",
    "colon_monomial",
    "compare_with_observed",
    "contains",
    "contains_ideal",
    "decompose_module",
    "divides",
    "greedy_decompose",
    "intersect_all",
    "iter_box",
    "product",
    "saturate",
    "stabilization_bound",
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
    assert len(modules) == 11
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


def _reads(node):
    """What a statement reads: the variables it loads, the attributes it
    loads, and the (module, name) pairs its `from .module import`s bring
    in.  Docstrings name nothing."""
    names, attrs, imports = set(), set(), set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            attrs.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom) and sub.level == 1:
            imports.update((sub.module, alias.name) for alias in sub.names)
    return names, attrs, imports


def _private_names(node):
    """The private names that a module-level statement defines: a function,
    a class, or the targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_helper_is_used():
    """Every module-level private function, class or constant of the
    package is read somewhere in the package outside its own definition:
    by name in its own module, as an attribute, or by a `from .module
    import` of its module.  So a helper that moved to another module and
    left a copy behind fails here, even when the copy's name is read."""
    statements = [
        (path.stem, node, _reads(node))
        for path in sorted(Path(brodmann.__file__).parent.glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    private = [(home, name, node) for home, node, _ in statements for name in _private_names(node)]
    assert len(private) > 10
    assert any(isinstance(node, ast.Assign) for _, _, node in private)

    def read(home, name, module, names, attrs, imports):
        return (module == home and name in names) or name in attrs or (home, name) in imports

    unused = [
        f"{home}.{name}"
        for home, name, node in private
        if not any(
            other is not node and read(home, name, module, *reads)
            for module, other, reads in statements
        )
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


I2 = MonomialIdeal(2, ((2, 0), (1, 1), (0, 2)))
STAIRCASE = polyhedra.staircase_system(2, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda: MonomialIdeal(True, ((1,),)),
        lambda: monomials.power(I2, 2.5),
        lambda: monomials.delete_variable(I2, 1.5),
        lambda: brodmann.ass_power(I2, 1.5),
        lambda: brodmann.ass_power(I2, True),
        lambda: brodmann.max_ideal_in_ass(I2, 1.5),
        lambda: brodmann.ass_profile(I2, 2.5),
        lambda: brodmann.h0_m_monomials(I2, 1.5),
        lambda: brodmann.ratliff_rush(I2, 1.5),
        lambda: brodmann.ratliff_rush(I2, 1, m_cap=2.5),
        lambda: brodmann.a0_observed(I2, 2.5),
        lambda: split_square(2.5),
        lambda: ExactRadical.sqrt_of(2) ** 2.5,
        lambda: polyhedra.ConstraintSystem(1.5, (), ()),
        lambda: brodmann.hilbert_generators(STAIRCASE, 2.5),
        lambda: brodmann.module_generators(STAIRCASE, 2.5),
        lambda: brodmann.solve_feasible(STAIRCASE, {}, 2.5),
        lambda: brodmann.bound_report(2, 2, True),
        lambda: brodmann.bound_report(True, 2, 2),
        lambda: polyhedra.staircase_system(2, 1.5),
        lambda: polyhedra.staircase_system(2.0, 2),
    ],
    ids=[
        "ideal_r", "power", "delete_variable", "ass_power", "ass_power_bool",
        "max_ideal_in_ass", "ass_profile", "h0_m_monomials", "ratliff_rush",
        "ratliff_rush_m_cap", "a0_observed", "split_square", "radical_pow", "system_e",
        "hilbert_generators", "module_generators", "solve_feasible", "bound_report_d_bool",
        "bound_report_r_bool", "staircase_d", "staircase_e",
    ],
)
def test_non_integer_sizes_and_indices_are_refused(call):
    """A float or bool size or index is an input error, not a silent
    answer for a nearby integer or a TypeError from deep inside."""
    with pytest.raises(errors.InputError):
        call()


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


def test_bench_wraps_intersect_and_colon_ideal():
    # the tracer patches these two by getattr on the module; they leave the
    # library together with the tracer's spans for them (ROADMAP item 1 step 2)
    for name in ("intersect", "colon_ideal"):
        assert callable(getattr(monomials, name))


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


def test_bench_reads_power_through_assprimes():
    # the tracer's restore check reads this binding
    assert brodmann.assprimes.power is monomials.power


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
