"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import json
import random
from fractions import Fraction

from nilorb import checks, cli, pipeline
from nilorb.exactnum import PolyQ
from nilorb.fforacle import (
    FieldSpec,
    burnside_orbit_count,
    indecomposability_counts,
    nilpotent_commutant_count,
    nilpotent_matrices,
    orbits,
)
from nilorb.partitions import (
    Partition,
    divisors,
    inner_product,
    partition_count,
    partitions_of,
    weight_denominator,
)
from nilorb.series import exp_coefficients, log_coefficients
from rf_arithmetic import RF, value_at

RF_ZERO = RF(PolyQ())
QM1 = PolyQ([-1, 1])

GOLDEN = {
    1: "1",
    2: "2q",
    3: "q^4 + 3q^2 + 2q",
    4: "q^9 + q^7 + q^6 + 4q^5 + 2q^4 + 7q^3 + 4q^2 + 2q",
    5: "q^16 + q^14 + q^13 + 2q^12 + 2q^11 + 4q^10 + 4q^9 + 7q^8 + 8q^7 "
       "+ 13q^6 + 13q^5 + 16q^4 + 14q^3 + 7q^2 + 2q",
    6: "q^25 + q^23 + q^22 + 2q^21 + 2q^20 + 4q^19 + 3q^18 + 7q^17 + 7q^16 "
       "+ 10q^15 + 11q^14 + 19q^13 + 17q^12 + 28q^11 + 29q^10 + 39q^9 "
       "+ 40q^8 + 53q^7 + 48q^6 + 52q^5 + 40q^4 + 25q^3 + 8q^2 + 2q",
}


def _report(k, name, ok):
    print(f"ACCEPTANCE {k} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {k} ({name}) failed"


def test_criterion_1_golden_reproduction(capsys):
    ok = True
    for n, expected in GOLDEN.items():
        code = cli.main(["compute", "--kind", "A", "--g", "2", "--n", str(n),
                         "--format", "pretty", "--no-cache"])
        out = capsys.readouterr().out.strip()
        ok = ok and code == 0 and out == expected
    with capsys.disabled():
        _report(1, "golden reproduction", ok)


def test_criterion_2_single_matrix_degeneration(capsys):
    ok = all(
        pipeline.absolutely_indecomposable_count(1, n).value == PolyQ([1])
        for n in range(1, 11)
    )
    ok = ok and all(
        cp.value == PolyQ([partition_count(cp.n)])
        for cp in pipeline.orbit_count_series(1, 8)
    )
    with capsys.disabled():
        _report(2, "single-matrix degeneration", ok)


def test_criterion_3_identity_verification(capsys):
    ok = True
    for g in (1, 2, 3):
        ok = ok and cli.main(["verify", "thm5-routes", "--g", str(g), "--N", "6"]) == 0
    ok = ok and cli.main(["verify", "kwi", "--g", "2", "--N", "4", "--Q", "12"]) == 0
    ok = ok and cli.main(["verify", "g1-product", "--N", "6", "--Q", "10"]) == 0
    capsys.readouterr()
    code = cli.main(["verify", "kwi", "--g", "2", "--N", "3", "--Q", "12",
                     "--perturb", "2,1,1", "--format", "json"])
    out = capsys.readouterr().out
    mismatch = json.loads(out)["outputs"]["report"]["mismatch"]
    ok = ok and code == 1 and mismatch is not None
    ok = ok and mismatch["x_degree"] == 2 and mismatch["q_degree"] is not None
    with capsys.disabled():
        _report(3, "identity verification", ok)


def test_criterion_4_structural_assertions(capsys):
    ok = True
    for g in (1, 2, 3):
        for n in range(1, 7):
            cp = pipeline.absolutely_indecomposable_count(g, n)
            ok = ok and cp.denominator == 1
            ok = ok and cp.value.degree() <= (g - 1) * n * n
    with capsys.disabled():
        _report(4, "structural assertions", ok)


def test_criterion_5_oracle_orbit_counts(capsys):
    ok = True
    cases = [
        (2, 2, 2, 5),
        (2, 2, 3, 7),
        (2, 3, 2, 37),
        (3, 2, 2, None),  # compared against the engine value, not a frozen one
    ]
    for g, n, q, frozen in cases:
        field = FieldSpec.of(q)
        engine = value_at(pipeline.orbit_count(g, n), q)
        by_average = burnside_orbit_count(field, n, g)
        by_listing = len(orbits(field, n, g))
        ok = ok and engine == by_average == by_listing
        if frozen is not None:
            ok = ok and engine == frozen
    f2 = FieldSpec.of(2)
    ok = ok and indecomposability_counts(f2, 2, 2) == (4, 4)
    ok = ok and indecomposability_counts(f2, 3, 2) == (32, 32)
    ok = ok and value_at(pipeline.absolutely_indecomposable_count(2, 2), 2) == 4
    ok = ok and value_at(pipeline.absolutely_indecomposable_count(2, 3), 2) == 32
    with capsys.disabled():
        _report(5, "oracle equivalence, orbit counts", ok)


def test_criterion_6_oracle_commutant_counts(capsys):
    ok = True
    for q in (2, 3):
        field = FieldSpec.of(q)
        for n in (1, 2, 3):
            ok = ok and len(nilpotent_matrices(field, n)) == q ** (n * n - n)
    shapes = ((1,), (2,), (1, 1), (2, 1), (3,))
    for q in (2, 3):
        field = FieldSpec.of(q)
        for parts in shapes:
            lam = Partition(parts)
            expected = q ** (inner_product(lam, lam) - lam.length)
            ok = ok and nilpotent_commutant_count(field, (0, 1), lam) == expected
    f2 = FieldSpec.of(2)
    for parts in ((1,), (2,)):
        lam = Partition(parts)
        expected = 2 ** (2 * (inner_product(lam, lam) - lam.length))
        ok = ok and nilpotent_commutant_count(f2, (1, 1, 1), lam) == expected
    with capsys.disabled():
        _report(6, "oracle equivalence, commutant counts", ok)


def test_criterion_7_conjecture_scan(capsys):
    report6 = checks.scan_nonnegativity(2, 6)
    ok = report6.all_nonnegative
    report8 = checks.scan_nonnegativity(2, 8)
    ok = ok and len(report8.polynomials) == 8  # completes and emits a report
    with capsys.disabled():
        if not report8.all_nonnegative:
            print(f"  scan finding (not asserted): {report8.negative_terms}")
        _report(7, "nonnegativity scan", ok)


def test_criterion_8_property_suites(capsys):
    ok = True

    # exp/log round trips on randomized admissible series: n times the X**n
    # coefficient of the log is a numerator over q**n - 1, with a factor 5!
    # that clears the 1/m! of the exp, so that of the series is one over
    # weight_denominator(n)
    rng = random.Random(2718)
    for _ in range(4):
        logs = [PolyQ()] + [PolyQ([rng.randint(-2, 2) * 120 for _ in range(3)])
                            for _ in range(5)]
        j = [RF_ZERO] + [RF(c, PolyQ.q_power(n) - 1) for n, c in enumerate(logs) if n]
        series = exp_coefficients(j)
        numerators = [(c * weight_denominator(n)).as_poly() for n, c in enumerate(series)]
        ok = ok and log_coefficients(numerators) == tuple(logs)

    # Adams composition and morphism laws
    f = RF(PolyQ([1, 3]), PolyQ([-1, 0, 1]))
    g_ = RF(PolyQ([0, 1]), PolyQ([2, 1]))
    ok = ok and f.adams(2).adams(3) == f.adams(6)
    ok = ok and (f * g_).adams(2) == f.adams(2) * g_.adams(2)
    s = tuple(RF(p, weight_denominator(n))
              for n, p in enumerate(pipeline.weight_series(2, 4)))

    def adams(series, d):  # (X, q) -> (X**d, q**d) on a coefficient tuple
        return tuple(series[k // d].adams(d) if k % d == 0 else RF_ZERO
                     for k in range(len(series)))

    ok = ok and adams(adams(s, 2), 2) == adams(s, 4)

    # dual-route inner product agreement, exhaustively to weight 8
    parts = [p for w in range(9) for p in partitions_of(w)]
    for lam in parts:
        for mu in parts:
            lc, mc = lam.conjugate().parts, mu.conjugate().parts
            via_conj = sum(a * b for a, b in zip(lc, mc))
            em, en = lam.exponential_form(), mu.exponential_form()
            via_mult = sum(min(i, j) * a * b
                           for i, a in em.items() for j, b in en.items())
            ok = ok and via_conj == via_mult == inner_product(lam, mu)

    # Moebius round trip: counts back to log coefficients
    for g in (1, 2, 3):
        for n in range(1, 7):
            total = RF_ZERO
            for d in divisors(n):
                a = pipeline.absolutely_indecomposable_count(g, n // d).value
                total = total + RF(a, QM1).adams(d) * Fraction(1, d)
            ok = ok and total == pipeline.log_weight_coefficient(g, n)

    with capsys.disabled():
        _report(8, "property suites", ok)
