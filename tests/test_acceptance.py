"""End-to-end acceptance gate.

One test per advertised guarantee.  Each test prints a single PASS line with
the measured detail; a failed assertion marks the criterion red.  Everything
here recomputes its checks from primitives rather than trusting the module
internals under test.
"""

import random
import time
from fractions import Fraction

import pytest

from brodmann.assprimes import ass_power, ass_profile, max_ideal_in_ass
from brodmann.bounds import bound_report, ideal_parameters
from brodmann.cli import example_ideal
from brodmann.cohomology import (
    a0_observed,
    h0_m_monomials,
    ratliff_rush,
)
from brodmann.errors import InputError
from brodmann.monomials import (
    MonomialIdeal,
    colon_ideal,
    delete_variable,
    minimize,
    power,
)
from brodmann.polyhedra import (
    ConstraintSystem,
    _det,
    bound_a1,
    build_system,
    designated_generator,
    extreme_rays,
    hilbert_generators,
    norm_sq,
    staircase_system,
)
from brodmann.radicals import RadicalSum

from oracles import generator_power_ref, star_norm


def full_prime(I: MonomialIdeal):
    return tuple(range(1, I.r + 1))


@pytest.fixture(scope="module")
def profiles4(corpus):
    """Quotient-method profiles over n = 0..4, shared by criteria 2, 4, 5, 8."""
    return [ass_profile(I, 4, method="quotient") for I in corpus]


def test_criterion_1_example_family_profiles():
    small = frozenset({(1, 2), (1, 2, 3)})
    large = frozenset({(1, 2)})
    timings = []
    for d in (5, 6, 7):
        start = time.monotonic()
        profile = ass_profile(example_ideal(d), d, method="both")
        elapsed = time.monotonic() - start
        for n, entry in enumerate(profile.entries):
            expected = small if n <= d - 4 else large
            assert entry == expected, (d, n, sorted(entry))
        assert profile.observed_stable_at == d - 3
        assert elapsed < 120.0, (d, elapsed)
        timings.append(f"d={d}: {elapsed:.2f}s")
    print("PASS criterion 1: family profiles exact over n=0..d, " + ", ".join(timings))


def test_criterion_2_method_agreement_and_localization_identity(corpus, profiles4):
    instances = 0
    for I, profile in zip(corpus, profiles4):
        top = full_prime(I)
        for n in range(4):
            quotient = profile.entries[n]
            recursion = ass_power(I, n, method="recursion")
            assert quotient == recursion, (I, n)
            union = set()
            for j in range(1, I.r + 1):
                local = delete_variable(I, j)
                if local.is_unit():
                    continue
                union |= ass_power(local, n, method="quotient")
            assert set(quotient) - {top} == union, (I, n)
            instances += 1
    assert len(corpus) >= 100
    print(
        f"PASS criterion 2: quotient == recursion and the localization-union "
        f"identity held on {instances} (ideal, n) instances over {len(corpus)} ideals"
    )


def test_criterion_3_ratliff_rush_unions_and_known_closure(corpus):
    n = 1
    for I in corpus:
        by_powers = [*power(I, n).generators]
        by_generator_powers = [*power(I, n).generators]
        for m in range(5):
            by_powers += colon_ideal(power(I, n + m), power(I, m)).generators
            by_generator_powers += colon_ideal(
                power(I, n + m), MonomialIdeal(I.r, generator_power_ref(I.generators, m))
            ).generators
        assert minimize(by_powers, I.r) == minimize(by_generator_powers, I.r), I
    I = minimize([(4, 0), (3, 1), (1, 3), (0, 4)], 2)
    res = ratliff_rush(I, 1)
    assert res.closure == minimize([*I.generators, (2, 2)], 2)
    assert res.certified
    print(
        f"PASS criterion 3: colon-union forms agree (m <= 4) on {len(corpus)} "
        f"ideals; the quartic gap ideal closes to itself plus x1^2 x2^2, certified"
    )


def test_criterion_4_torsion_three_way_consistency(corpus, profiles4):
    for I, profile in zip(corpus, profiles4):
        top = full_prime(I)
        for n in range(3):
            report = h0_m_monomials(I, n)
            in_ass = top in profile.entries[n]
            assert report.nonzero == max_ideal_in_ass(I, n) == in_ass, (I, n)
    witnesses = set(h0_m_monomials(example_ideal(5), 0).witnesses)
    assert witnesses == {(2, 3, 0), (3, 3, 0)}
    print(
        f"PASS criterion 4: torsion report, membership test, and full-prime "
        f"presence agreed for n <= 2 on {len(corpus)} ideals; d=5 family "
        f"witnesses are x1^2 x2^3 and x1^3 x2^3"
    )


def test_criterion_5_mcadam_eakin_inclusions(corpus, profiles4):
    n_max = 4
    eligible = 0
    for I, profile in zip(corpus, profiles4):
        scan = a0_observed(I, n_max)
        observed = -1 if scan.value is None else scan.value
        if not (scan.certified and observed < n_max - 2):
            continue
        eligible += 1
        for n in range(observed + 1, n_max):
            assert profile.entries[n] <= profile.entries[n + 1], (I, n, observed)
    assert eligible > 0
    print(
        f"PASS criterion 5: ascending-chain inclusions held above a0 on all "
        f"{eligible} certified corpus ideals (n_max={n_max}), zero violations"
    )


def _laplace_det(rows):
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    first = rows[0]
    rest = rows[1:]
    for j, coeff in enumerate(first):
        if coeff == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in rest]
        total += (-1) ** j * coeff * _laplace_det(minor)
    return total


def test_criterion_6_staircase_rays_hadamard_and_norm_bound():
    for e in (2, 3):
        for d in (2, 3):
            system = staircase_system(e, d)
            ray = tuple(d**k for k in range(e))
            assert ray in extreme_rays(system), (e, d)
            assert ray in hilbert_generators(system, cap=d ** (e - 1)), (e, d)

    rng = random.Random(412877)
    for trial in range(200):
        q = rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(q)] for _ in range(q)]
        det = _det(tuple(tuple(row) for row in rows))
        assert det == _laplace_det(rows), rows
        bound = 1
        for row in rows:
            bound *= norm_sq(tuple(row))
        assert det * det <= bound, rows

    checked = 0
    systems = [staircase_system(e, d) for e in (2, 3) for d in (2, 3)]
    for _ in range(10):
        e = rng.randint(2, 3)
        k = rng.randint(1, 2)
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(e)) for _ in range(k))
        systems.append(ConstraintSystem(e, rows, (0,) * k))
    for system in systems:
        a1 = bound_a1(system)
        for v in hilbert_generators(system, cap=6):
            assert a1 >= star_norm(v), (system.rows, v)
            checked += 1
    print(
        f"PASS criterion 6: staircase rays present, Hadamard exact on 200 "
        f"matrices, star-norm bound held for {checked} semigroup generators"
    )


def _check_ed1_norms(system, r, d):
    for j, label in enumerate(system.labels):
        squared = norm_sq(system.column(j))
        if label == "z":
            assert squared < r * d * d, label
        elif label.startswith("y"):
            assert squared == r, label
        else:
            assert squared < 2 * d * d, label
    assert norm_sq(system.rhs) < d * d


def _check_ed3_norms(system, r, s, d):
    for j, label in enumerate(system.labels):
        squared = norm_sq(system.column(j))
        if label == "z":
            assert squared < s * d * d, label
        elif label == "x":
            assert squared < 2 * s * d * d, label
        elif label.startswith("y"):
            assert squared == s, label
        else:
            assert squared < 2 * d * d, label


def test_criterion_7_ed_system_bookkeeping(corpus):
    built = 0
    for I in corpus:
        try:
            designated_generator(I)
        except InputError:
            continue
        r, s, d = ideal_parameters(I)
        ed1 = build_system(I, "ED1")
        ed3 = build_system(I, "ED3")
        assert ed1.e == r * s + s, I
        assert ed3.e == s * (s - 1) + r + 2, I
        _check_ed1_norms(ed1, r, d)
        _check_ed3_norms(ed3, r, s, d)
        built += 1
    assert built > 0
    print(
        f"PASS criterion 7: variable counts and column-norm limits held on "
        f"{built} corpus ideals with a designated generator, zero violations"
    )


def test_criterion_8_stabilization_bounds(corpus, profiles4):
    rep = bound_report(2, 2, 2)
    assert rep.b1 == 1024
    assert rep.b2 == 16777216
    assert rep.b_exact == 16777216 and rep.b_ceil == 16777216

    for r in range(1, 7):
        for s in range(1, 7):
            for d in range(1, 11):
                grid = bound_report(r, s, d)
                bracket = grid.b3 + RadicalSum.of(1)
                # B4 >= 1, so B4 (B3 + 1) < B2 reads B3 + 1 < B2 / B4
                assert bracket.compare(Fraction(grid.b2, grid.b4)) < 0, (r, s, d)

    stabilized = 0
    for I, profile in zip(corpus, profiles4):
        if profile.observed_stable_at is None:
            continue
        ceiling = bound_report(*ideal_parameters(I)).b_ceil
        assert profile.observed_stable_at <= ceiling, I
        stabilized += 1
    assert stabilized > 0
    print(
        f"PASS criterion 8: report oracle exact, B4(B3+1) < B2 over the full "
        f"(r, s, d) grid, and {stabilized} observed stabilization indices sit "
        f"below their certified ceilings"
    )
