"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles as ref  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, self_times  # noqa: E402

import brodmann  # noqa: E402
import brodmann.cli  # noqa: E402
from brodmann.assprimes import ass_of_quotient, ass_profile  # noqa: E402
from brodmann.bounds import bound_report  # noqa: E402
from brodmann.cohomology import a0_observed, ratliff_rush  # noqa: E402
from brodmann.monomials import minimize  # noqa: E402
from brodmann.polyhedra import (  # noqa: E402
    ConstraintSystem,
    bound_a1,
    bound_a2,
    build_system,
    extreme_rays,
)


def _tree(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_writes_identical_inputs(name, tmp_path):
    trees = []
    for sub, seed in (("a", 7), ("b", 7), ("c", 8)):
        (tmp_path / sub).mkdir()
        wl = workloads.WORKLOADS[name](seed, tmp_path / sub)
        paths = [a for op in wl.ops for a in op.argv if a.startswith(str(tmp_path))]
        assert len(set(paths)) == len(paths) == len(_tree(tmp_path / sub))  # one per op
        trees.append(_tree(tmp_path / sub))
    assert trees[0] == trees[1]
    assert trees[0] != trees[2]
    suffixes = {Path(n).suffix for n in trees[0]}
    assert suffixes == {".txt", ".json"}


def test_self_time_on_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["b", 3.0, 6.0, 0, 0],  # overlaps a: only the union is subtracted
        ["a.child", 2.0, 3.0, 1, 0],
        ["late", 9.0, 12.0, 0, 0],  # runs past its parent: clipped
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_tracer_restores_every_binding():
    before = {
        (m, k): v
        for m, mod in sys.modules.items()
        if m.startswith("brodmann")
        for k, v in vars(mod).items()
    }
    tracer = Tracer()
    tracer.install(brodmann)
    try:
        assert brodmann.assprimes.power is not before[("brodmann.monomials", "power")]
        rc = brodmann.cli.main(["bound", "--r", "2", "--s", "2", "--d", "2"])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert tracer.count["bounds.bound_report.calls"] == 1
    assert {s[0] for s in tracer.spans} >= {"cli", "bounds.bound_report", "radicals.split_square"}
    after = {
        (m, k): v
        for m, mod in sys.modules.items()
        if m.startswith("brodmann")
        for k, v in vars(mod).items()
    }
    assert all(after[key] is value for key, value in before.items())


def _random_ideals(seed: int, count: int, r: int, cap: int, s: int):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        gens = ref.minimal(tuple(rng.randint(0, cap) for _ in range(r)) for _ in range(s))
        if any(any(g) for g in gens) and not (len(gens) == 1 and not any(gens[0])):
            out.append(gens)
    return out


def test_minimal_box_matches_minimal():
    rng = random.Random(3)
    for _ in range(100):
        r = rng.randint(1, 4)
        pts = [tuple(rng.randint(0, 5) for _ in range(r)) for _ in range(rng.randint(1, 20))]
        assert ref.minimal_box(pts) == ref.minimal(pts)


def test_ass_oracle_agrees_with_library():
    for r in (2, 3):
        for gens in _random_ideals(11 + r, 8, r, 4, 4):
            for n in (1, 2):
                J = ref.powers(gens, n)[n]
                assert ref.ass_by_colon(J) == ass_of_quotient(minimize(J, r))


def test_family_closed_form_matches_library():
    gens, expected = workloads._family(5, (2, 0, 1))
    entries, stable, _ = expected()
    profile = ass_profile(minimize(gens, 3), 5)
    assert list(profile.entries) == entries
    assert profile.observed_stable_at == stable


def test_closure_oracle_agrees_with_library():
    known = ((4, 0), (3, 1), (1, 3), (0, 4))
    ideals = [known] + _random_ideals(5, 4, 2, 5, 4) + _random_ideals(6, 3, 3, 3, 4)
    for gens in ideals:
        I = minimize(gens, len(gens[0]))
        oracle = ref.ClosureOracle(gens, 3, 3)
        for n in (1, 2):
            assert oracle.same_ideal(n, ratliff_rush(I, n).closure.generators)
        assert oracle.a0_flags(3) == list(a0_observed(I, 3).flags)
    # the known closure adds x^2 y^2, which I itself lacks
    assert not ref.ClosureOracle(known, 1, 3).same_ideal(1, known)


def test_ed_system_matches_library():
    for gens in ([(4, 1), (1, 3)], [(2, 2), (5, 0)], [(3, 1, 1), (0, 2, 0), (1, 0, 4)]):
        I = minimize(gens, len(gens[0]))
        for mode in ("ED1", "ED2"):
            sys_ = build_system(I, mode)
            assert ref.ed_system(I.generators, mode) == (sys_.labels, sys_.rows, sys_.rhs)


def test_ray_and_bound_oracles_agree_with_library():
    labels, rows, rhs = ref.ed_system(((4, 1), (1, 3)), "ED1")
    cone = ConstraintSystem(len(labels), rows, (0,) * len(rows), labels)
    rays = extreme_rays(cone)
    assert rays and all(ref.is_extreme_ray(rows, v) for v in rays)
    summed = tuple(a + b for a, b in zip(rays[0], rays[-1]))
    assert not ref.is_extreme_ray(rows, summed)
    for rows_, rhs_ in ((rows, rhs), (((1, 2), (3, 1), (1, 1)), (1000003, 1000003, 1))):
        sys_ = ConstraintSystem(len(rows_[0]), rows_, rhs_)
        want = ref.cone_bound_ceils(rows_, rhs_)
        assert want["bound_a1"] == bound_a1(sys_.homogenized()).ceil()
        assert want["bound_a2"] == bound_a2(sys_).ceil()


@pytest.mark.parametrize("rsd", [(1, 1, 1), (2, 2, 2), (3, 5, 6), (2, 3, 4), (6, 20, 30)])
def test_threshold_oracle_agrees_with_library(rsd):
    rep = bound_report(*rsd)
    want = ref.threshold_values(*rsd)
    got = {k: getattr(rep, k) for k in want}
    assert got == want


def test_checks_reject_wrong_outputs():
    gens = ((4, 0), (3, 1), (1, 3), (0, 4))
    check = workloads._check_rr(("t", 0), gens, 1)
    good = {"n": 1, "closure_generators": [[4, 0], [3, 1], [2, 2], [1, 3], [0, 4]]}
    bad = {"n": 1, "closure_generators": [list(g) for g in gens]}
    cache: dict = {}
    assert check(json.dumps(good), cache) is None
    assert check(json.dumps(bad), cache) is not None
    bound = workloads._check_bound(2, 2, 2)
    out = json.loads(_cli(["bound", "--r", "2", "--s", "2", "--d", "2", "--format", "json"]))
    assert bound(json.dumps(out), {}) is None
    out["b4"] += 1
    assert bound(json.dumps(out), {}) is not None


def _cli(argv) -> str:
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert brodmann.cli.main(argv) == 0
    return buf.getvalue()


def test_primality_and_hard_primes():
    small = [n for n in range(200) if ref.is_prime(n)]
    assert small == [n for n in range(2, 200) if all(n % d for d in range(2, n))]
    p = workloads._prime_with_hard_square(random.Random(1), 10**6, 2 * 10**6)
    assert ref.is_prime(p) and ref.is_prime((2 * p * p + 1) // 3)


def test_bound_stream_keeps_the_4300_digit_failures(tmp_path):
    wl = workloads.cone_bounds(3, tmp_path)
    bounds = [op for op in wl.ops if op.kind == "bound"]
    failing = [op for op in bounds if op.expect_failure]
    assert len(failing) * 4 == len(bounds)
    for op in bounds:
        r, s, d = (int(op.argv[op.argv.index(f"--{k}") + 1]) for k in "rsd")
        assert (ref.b2(r, s, d) >= workloads.DIGIT_LIMIT) == op.expect_failure


def test_design_record_matches_the_code(tmp_path):
    design = json.loads((HERE / "design.json").read_text())["workloads"]
    assert sorted(design) == sorted(workloads.WORKLOADS)
    for name, make in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        wl = make(1, tmp_path / name)
        assert design[name]["tail_percentile"] == wl.tail_q
        assert design[name]["min_samples"] == wl.min_ops
        assert design[name]["pool_ops"] == len(wl.ops)
