"""Shared exceptions, the enumeration budget and the choices and defaults the
command line offers, kept here so that its parser loads no computing module."""

from __future__ import annotations

import os

DEFAULT_BUDGET = 50_000_000
BUDGET_ENV_VAR = "BRODMANN_BUDGET"

METHODS = ("quotient", "recursion", "both")
ED_MODES = ("ED1", "ED2", "ED3")
DEFAULT_M_CAP = 6


class InputError(ValueError):
    """Malformed or out-of-contract input."""


class ParseError(InputError):
    """Input file rejected; carries the offending location."""

    def __init__(self, message: str, source: str = "<input>", line: int | None = None):
        self.source = source
        self.line = line
        where = source if line is None else f"{source}:{line}"
        super().__init__(f"{where}: {message}")


class BudgetError(RuntimeError):
    """An enumeration would exceed the enumeration budget; no partial result."""


class InconsistencyError(RuntimeError):
    """Two routes that must agree disagreed; carries both answers."""

    def __init__(self, message: str, payload: dict | None = None):
        self.payload = payload or {}
        super().__init__(message)


def enumeration_budget(override: int | None = None) -> int:
    """Lattice points allowed per enumeration: explicit override, else env, else default."""
    if override is not None:
        value = override
    else:
        raw = os.environ.get(BUDGET_ENV_VAR)
        if raw is None:
            return DEFAULT_BUDGET
        try:
            value = int(raw)
        except ValueError as exc:
            raise InputError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise InputError(f"enumeration budget must be positive, got {value}")
    return value


def charge_budget(
    points: int,
    budget: int | None = None,
    what: str = "enumeration",
    unit: str = "lattice points",
) -> None:
    """Refuse with a BudgetError when an enumeration of `points` units
    would pass the budget; `unit` names what is counted in the message."""
    limit = enumeration_budget(budget)
    if points > limit:
        raise BudgetError(f"{what} needs {points} {unit}, budget is {limit}")
