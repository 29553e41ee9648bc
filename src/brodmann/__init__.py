"""Exact computations around powers of monomial ideals.

The package computes associated primes of the graded pieces I^n/I^(n+1) by
two independent routes, Ratliff-Rush closures with stabilization
certificates, torsion-degree scans on the associated graded ring, extreme
rays and generator enumeration for rational polyhedral cones, and the
explicit stabilization threshold B = max(B1, B2), all in exact arithmetic.

Names load on first use: `import brodmann` imports no submodule, and
`brodmann.power` (or `from brodmann import power`) imports
`brodmann.monomials` when it is first read.  A command-line call thus loads
only the modules its command runs.
"""

import importlib

__version__ = "0.1.0"

# each exported name, listed under the submodule that defines it
_EXPORTS = {
    "errors": (
        "BUDGET_ENV_VAR",
        "DEFAULT_BUDGET",
        "BudgetError",
        "InconsistencyError",
        "InputError",
        "ParseError",
        "enumeration_budget",
    ),
    "monomials": (
        "Monomial",
        "MonomialIdeal",
        "colon_ideal",
        "delete_variable",
        "intersect",
        "minimize",
        "power",
        "unit_ideal",
        "zero_ideal",
    ),
    "radicals": ("ExactRadical", "RadicalSum"),
    "ioformats": (
        "ideal_to_json",
        "ideal_to_text",
        "load_ideal",
        "load_system",
        "parse_ideal_json",
        "parse_ideal_text",
        "parse_system_json",
        "parse_system_text",
        "system_to_json",
        "system_to_text",
    ),
    "assprimes": (
        "AssProfile",
        "ass_of_quotient",
        "ass_power",
        "ass_profile",
        "max_ideal_in_ass",
    ),
    "cohomology": (
        "A0Result",
        "H0Report",
        "RRResult",
        "a0_observed",
        "h0_m_monomials",
        "ratliff_rush",
    ),
    "polyhedra": (
        "ConstraintSystem",
        "bound_a1",
        "bound_a2",
        "build_system",
        "designated_generator",
        "extreme_rays",
        "hilbert_generators",
        "module_generators",
        "solve_feasible",
        "staircase_system",
    ),
    "bounds": (
        "BoundReport",
        "bound_report",
        "ideal_parameters",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
