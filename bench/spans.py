"""Spans and counters recorded from outside the library.

The tracer replaces public functions in every ``brodmann`` module namespace
that binds them (``brodmann.assprimes.BoxTable``, ``brodmann.cohomology.power``
and so on) with wrappers that record a span per call: name, start, end,
parent span and op id, kept in memory.  Counts that the library does not
expose are computed from call arguments and results, or read from public
attributes such as ``power.cache_info()``.  Nothing inside the library
changes; ``uninstall`` puts every original back.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from math import comb, prod
from time import perf_counter


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    spans are (name, start, end, parent, op) with parent an index or -1.
    Children may overlap each other or run past their parent; only the
    union of their intervals inside the parent is subtracted.
    """
    children = defaultdict(list)
    for i, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = -1
        self.count: Counter = Counter()
        self.peak: dict[str, int] = {}
        self.deferred: list = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers --

    def timed(self, name, fn, before=None, after=None):
        """fn wrapped in a span; before may rewrite the arguments outside
        the span, after(args, kwargs, result) records counts."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent, index = stack[-1] if stack else -1, len(spans)
            stack.append(index)
            spans.append(None)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                # a tuple of atoms, which the garbage collector stops tracking
                spans[index] = (name, start, perf_counter(), parent, self.op)
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def counted(self, fn, after):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result

        return wrapper

    # -- patching --

    def patch(self, original, replacement) -> None:
        """Rebind every brodmann module attribute that is `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "brodmann" and not mod_name.startswith("brodmann."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def patch_method(self, cls, attr: str, replacement) -> None:
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def mark(self):
        return len(self.spans), Counter(self.count), dict(self.peak), len(self.deferred)

    def rewind(self, mark) -> None:
        """Forget everything recorded since mark()."""
        n_spans, count, peak, n_deferred = mark
        del self.spans[n_spans:]
        self.count.clear()
        self.count.update(count)
        self.peak = peak
        del self.deferred[n_deferred:]

    def bump_peak(self, key: str, value: int) -> None:
        if value > self.peak.get(key, 0):
            self.peak[key] = value

    # -- the layers --

    def install(self, b) -> None:
        """Wrap the public functions of the brodmann package `b`."""
        mono, assp, coho = b.monomials, b.assprimes, b.cohomology
        poly, rad, bnd, io, errs = b.polyhedra, b.radicals, b.bounds, b.ioformats, b.errors
        c = self.count

        def boxtable(args, kwargs, result):
            c["monomials.BoxTable.tables"] += 1
            c["monomials.BoxTable.cells"] += len(result.table)

        self.patch(mono.BoxTable, self.timed("monomials.BoxTable", mono.BoxTable, after=boxtable))

        for name, original in (("power", mono.power), ("delete_variable", mono.delete_variable)):
            self.patch(original, self._cached(name, original, timed=name == "power"))

        def minimize_args(args, kwargs):
            return (list(args[0]),) + args[1:], kwargs

        def minimize_after(args, kwargs, result):
            c["monomials.minimize.calls"] += 1
            c["monomials.minimize.gens_in"] += len(args[0])
            c["monomials.minimize.gens_out"] += len(result.generators)

        self.patch(
            mono.minimize,
            self.timed("monomials.minimize", mono.minimize, minimize_args, minimize_after),
        )
        for name in ("colon_ideal", "intersect"):
            fn = getattr(mono, name)
            self.patch(fn, self.timed(f"monomials.{name}", fn))

        def witnesses(args, kwargs, result):
            gens = args[0].generators
            c["assprimes.ass_witnesses.box_points"] += prod(
                max(g[i] for g in gens) + 1 for i in range(args[0].r)
            )

        self.patch(assp.ass_witnesses, self.counted(assp.ass_witnesses, witnesses))

        def quotient(args, kwargs, result):
            c["assprimes.ass_of_quotient.calls"] += 1

        self.patch(
            assp.ass_of_quotient,
            self.timed("assprimes.ass_of_quotient", assp.ass_of_quotient, after=quotient),
        )

        def max_ideal(args, kwargs, result):
            c["assprimes.max_ideal_in_ass.calls"] += 1
            c["assprimes.max_ideal_in_ass.true"] += bool(result)

        self.patch(
            assp.max_ideal_in_ass,
            self.timed("assprimes.max_ideal_in_ass", assp.max_ideal_in_ass, after=max_ideal),
        )
        self.patch(assp.ass_power, self.timed("assprimes.ass_power", assp.ass_power))

        def rr(args, kwargs, result):
            c["cohomology.ratliff_rush.calls"] += 1
            c["cohomology.ratliff_rush.certified"] += result.certified
            # certified: colons for m = 0..stabilized_at_m + 2; else 0..m_cap
            c["cohomology.ratliff_rush.chain_steps"] += result.stabilized_at_m + (
                3 if result.certified else 1
            )

        self.patch(
            coho.ratliff_rush, self.timed("cohomology.ratliff_rush", coho.ratliff_rush, after=rr)
        )
        self.patch(coho.a0_observed, self.timed("cohomology.a0_observed", coho.a0_observed))

        def rays(args, kwargs, result):
            sys_ = args[0]
            c["polyhedra.extreme_rays.rays"] += len(result)
            if sys_.e > 1:
                c["polyhedra.extreme_rays.subsystems"] += comb(len(sys_.rows) + sys_.e, sys_.e - 1)

        self.patch(
            poly.extreme_rays, self.timed("polyhedra.extreme_rays", poly.extreme_rays, after=rays)
        )

        def hilbert(args, kwargs, result):
            # the box needs bound_a1, computed after the pass, untraced
            sys_, cap = args[0], kwargs.get("cap", args[1] if len(args) > 1 else None)
            self.deferred.append(("polyhedra.hilbert_generators.box_points", sys_, cap))

        self.patch(
            poly.hilbert_generators,
            self.timed("polyhedra.hilbert_generators", poly.hilbert_generators, after=hilbert),
        )

        def feasible(args, kwargs, result):
            sys_, fixed, box = args[0], args[1], args[2]
            c["polyhedra.solve_feasible.box_points"] += (box + 1) ** (sys_.e - len(fixed))

        self.patch(
            poly.solve_feasible,
            self.timed("polyhedra.solve_feasible", poly.solve_feasible, after=feasible),
        )
        for name in ("build_system", "bound_a1", "bound_a2"):
            fn = getattr(poly, name)
            self.patch(fn, self.timed(f"polyhedra.{name}", fn))

        def split(args, kwargs, result):
            c["radicals.split_square.calls"] += 1
            self.bump_peak("radicals.split_square.max_radicand_bits", args[0].bit_length())

        self.patch(
            rad.split_square, self.timed("radicals.split_square", rad.split_square, after=split)
        )

        def refine(args, kwargs, result):
            c["radicals.enclosure_refinements"] += 1

        self.patch_method(rad.RadicalSum, "bounds", self.counted(rad.RadicalSum.bounds, refine))
        for cls in (rad.ExactRadical, rad.RadicalSum):
            for attr in ("floor", "ceil"):
                fn = cls.__dict__[attr]
                self.patch_method(cls, attr, self.timed("radicals.floor_ceil", fn))

        def report(args, kwargs, result):
            c["bounds.bound_report.calls"] += 1

        self.patch(
            bnd.bound_report, self.timed("bounds.bound_report", bnd.bound_report, after=report)
        )
        for fn in (io.load_ideal, io.load_system):
            self.patch(fn, self.timed("ioformats.load", fn))

        charge = errs.charge_budget

        def budget(*args, **kwargs):
            c["errors.budget_points"] += args[0]
            try:
                return charge(*args, **kwargs)
            except errs.BudgetError:
                c["errors.budget_refusals"] += 1
                raise

        self.patch(charge, budget)
        self.patch(b.cli.main, self.timed("cli", b.cli.main))

    def _cached(self, name: str, fn, timed: bool):
        """Wrap an lru_cache function; hits are read from its cache_info()."""
        c = self.count
        key = f"monomials.{name}"

        def after(args, kwargs, result, before):
            info = fn.cache_info()
            c[key + ".calls"] += 1
            c[key + ".hits"] += info.hits - before.hits
            I, n = args[0], args[1]
            if name == "power" and info.misses > before.misses and n >= 2 and I.is_proper_nonzero():
                c[key + ".products"] += comb(len(I.generators) + n - 1, n)

        inner = self.timed(key, fn) if timed else fn

        def wrapper(*args, **kwargs):
            before = fn.cache_info()
            result = inner(*args, **kwargs)
            after(args, kwargs, result, before)
            return result

        wrapper.cache_info, wrapper.cache_clear = fn.cache_info, fn.cache_clear
        return wrapper

    def finish(self, b) -> None:
        """Evaluate the deferred counts with the library untraced."""
        for key, sys_, cap in self.deferred:
            box = min(cap, b.polyhedra.bound_a1(sys_).ceil())
            self.count[key] += (box + 1) ** sys_.e
        self.deferred.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per pass: name -> (value, unit)."""
    self_s: Counter = Counter()
    for span, t in zip(tracer.spans, self_times(tracer.spans)):
        self_s[span[0]] += t
    c, per = tracer.count, lambda v: v / passes
    out: dict[str, tuple[float, str]] = {}
    for layer in (
        "monomials.BoxTable", "monomials.power", "monomials.minimize", "monomials.colon_ideal",
        "monomials.intersect", "assprimes.ass_of_quotient", "assprimes.max_ideal_in_ass",
        "assprimes.ass_power", "cohomology.ratliff_rush", "cohomology.a0_observed",
        "polyhedra.extreme_rays", "polyhedra.hilbert_generators", "polyhedra.solve_feasible",
        "polyhedra.build_system", "polyhedra.bound_a1", "polyhedra.bound_a2",
        "radicals.split_square", "radicals.floor_ceil", "bounds.bound_report",
        "ioformats.load", "cli",
    ):  # fmt: skip
        out[f"{layer}.self_s"] = (per(self_s[layer]), "s")
    for key in (
        "monomials.BoxTable.tables", "monomials.BoxTable.cells", "monomials.power.calls",
        "monomials.power.products", "monomials.minimize.calls", "assprimes.ass_of_quotient.calls",
        "assprimes.ass_witnesses.box_points", "assprimes.max_ideal_in_ass.calls",
        "cohomology.ratliff_rush.calls", "cohomology.ratliff_rush.chain_steps",
        "polyhedra.extreme_rays.subsystems", "polyhedra.hilbert_generators.box_points",
        "polyhedra.solve_feasible.box_points", "radicals.split_square.calls",
        "radicals.enclosure_refinements", "bounds.bound_report.calls",
        "errors.budget_points", "errors.budget_refusals",
    ):  # fmt: skip
        out[key] = (per(c[key]), "count")
    ratios = {
        "monomials.power.cache_hit_ratio": ("monomials.power.hits", "monomials.power.calls"),
        "monomials.delete_variable.cache_hit_ratio": (
            "monomials.delete_variable.hits", "monomials.delete_variable.calls"),
        "monomials.minimize.kept_ratio": (
            "monomials.minimize.gens_out", "monomials.minimize.gens_in"),
        "assprimes.max_ideal_in_ass.true_ratio": (
            "assprimes.max_ideal_in_ass.true", "assprimes.max_ideal_in_ass.calls"),
        "cohomology.ratliff_rush.certified_ratio": (
            "cohomology.ratliff_rush.certified", "cohomology.ratliff_rush.calls"),
        "polyhedra.extreme_rays.rays_per_subsystem": (
            "polyhedra.extreme_rays.rays", "polyhedra.extreme_rays.subsystems"),
    }  # fmt: skip
    for key, (num, den) in ratios.items():
        out[key] = (_ratio(c[num], c[den]), "ratio")
    key = "radicals.split_square.max_radicand_bits"
    out[key] = (float(tracer.peak.get(key, 0)), "bits")
    return out
