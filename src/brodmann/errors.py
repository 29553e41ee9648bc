"""Shared exceptions, the enumeration budget and the choices and defaults the
command line offers, kept here so that its parser loads no computing module."""

from __future__ import annotations

import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from functools import wraps

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


def is_int(x) -> bool:
    """x is an int and not a bool, which is a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def require_count(value, low: int, what: str) -> None:
    """An InputError naming `what` unless value is an int (`is_int`) of
    at least low."""
    if not is_int(value):
        raise InputError(f"{what} must be an integer, got {value!r}")
    if value < low:
        raise InputError(f"{what} must be >= {low}, got {value}")


class BudgetMeter:
    """One request's budget: the limit asked for (None: the environment
    variable, else the default) and the units charged so far."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None = None):
        self.limit, self.used = limit, 0


_METER: ContextVar[BudgetMeter | None] = ContextVar("enumeration_budget", default=None)


@contextmanager
def enumeration_budget(limit: int | None = None) -> Iterator[BudgetMeter]:
    """Meter every charge made inside the block against one budget.

    Lattice points and ray subsystems add into one total.  The limit is
    read at the first charge, so a block that charges nothing accepts any.
    Outside every block, a call of a public entry point is one request all
    the same: `metered` opens a block for it.
    """
    meter = BudgetMeter(limit)
    token = _METER.set(meter)
    try:
        yield meter
    finally:
        _METER.reset(token)


def metered(fn: Callable) -> Callable:
    """fn as one request: its charges go to the open meter, or, when no
    `enumeration_budget` block is open, to one of its own, whose limit is
    read as any block's is.  Put on every public entry point that reaches a
    charge."""

    @wraps(fn)
    def call(*args, **kwargs):
        if _METER.get() is not None:
            return fn(*args, **kwargs)
        with enumeration_budget():
            return fn(*args, **kwargs)

    return call


def charge_budget(points: int, what: str = "enumeration", unit: str = "lattice points") -> None:
    """Charge `points` units to the open meter; a BudgetError when the
    request's total would pass its limit, with `unit` named in it."""
    meter = _METER.get() or BudgetMeter()
    limit = meter.limit
    if limit is None:
        raw = os.environ.get(BUDGET_ENV_VAR, DEFAULT_BUDGET)
        try:
            limit = int(raw)
        except ValueError as exc:
            raise InputError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc
    if limit < 1:
        raise InputError(f"enumeration budget must be positive, got {limit}")
    meter.limit = limit
    if meter.used + points > limit:
        spent = f", {meter.used} already charged" if meter.used else ""
        raise BudgetError(f"{what} needs {points} {unit}, budget is {limit}{spent}")
    meter.used += points
