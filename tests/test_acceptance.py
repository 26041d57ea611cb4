"""Acceptance suite: one test per release criterion, with a printed verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Every tolerance is pinned here; nothing is deferred.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction
from pathlib import Path

from routhkit import (EPSILON, EpsRat, Lcg64, Policy, Polynomial, Verdict,
                      classify, find_roots, half_plane_counts, hurwitz_stable,
                      run_corpus, run_sweep)
from routhkit.cli import main
from routhkit.hurwitz import ExactMatrix, hurwitz_matrix, leading_minors
from routhkit.corpus import random_polynomial
from conftest import random_eps_rat
from test_hurwitz import minors_by_cofactor

GOLDEN = Path(__file__).parent / "golden" / "analyze_quartic_eps_row.json"
QUARTIC = Polynomial([1, 0, 0, 0, 1])


def _passed(number: int, detail: str) -> None:
    print(f"\nACCEPTANCE CRITERION {number}: PASS  ({detail})")


def test_criterion_1_quartic_under_epsilon_row_policy(capsys):
    code = main(["analyze", "--coeffs", "1,0,0,0,1", "--policy", "eps-row",
                 "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["signs"] == ["+", "+", "-", "+", "+"]
    assert doc["sign_changes"] == 2
    assert doc["rhp_count"] == 2
    assert doc["verdict"] == "Unstable"
    assert [(e["kind"], e["row_power"]) for e in doc["events"]] == \
        [("ZeroRow", 3)]
    # first column exactly (1, e, -1, 2e, 1): positive, eps-positive, -1, ...
    report = classify(QUARTIC, Policy.EPSILON_ROW)
    column = report.array.first_column
    assert column == (EpsRat.from_rational(1), EPSILON,
                      EpsRat.from_rational(-1), 2 * EPSILON,
                      EpsRat.from_rational(1))

    elapsed = min(_timed_classify(Policy.EPSILON_ROW) for _ in range(3))
    assert elapsed < 0.010, f"analysis took {elapsed * 1e3:.2f} ms"
    with capsys.disabled():
        _passed(1, f"signs ++-++, 2 changes, ZeroRow@s^3, "
                   f"{elapsed * 1e6:.0f} us")


def test_criterion_2_quartic_under_classical_policy(capsys):
    report = classify(QUARTIC, Policy.DERIVATIVE_ROW)
    assert report.sign_changes == 2
    assert report.rhp_count == 2
    assert report.verdict is Verdict.UNSTABLE
    signs = report.first_column_signs
    assert signs == (1, 1, 1, -1, 1)
    with capsys.disabled():
        _passed(2, "derivative policy also counts 2 sign changes")


def test_criterion_3_quartic_roots_and_half_planes(capsys):
    root_set = find_roots(QUARTIC)
    assert root_set.converged
    h = math.sqrt(2) / 2
    expected = sorted((complex(-h, -h), complex(-h, h),
                       complex(h, -h), complex(h, h)),
                      key=lambda z: (z.real, z.imag))
    for got, want in zip(root_set.roots, expected):
        assert abs(got - want) < 1e-9
        # the printed reference value, accurate to nine decimals
        assert abs(abs(got.real) - 0.707106781) < 1e-9
        assert abs(abs(got.imag) - 0.707106781) < 1e-9
    counts = half_plane_counts(root_set)
    assert (counts.lhp, counts.rhp, counts.axis) == (2, 2, 0)
    with capsys.disabled():
        _passed(3, "four roots at +-sqrt(2)/2 +- i*sqrt(2)/2, counts (2,2,0)")


def test_criterion_4_differential_corpus_1000(capsys):
    start = time.perf_counter()
    summary = run_corpus(count=1000, max_degree=8, seed=42)
    elapsed = time.perf_counter() - start
    detail = "\n".join(str(d) for d in summary.disagreements)
    assert summary.agreements == 1000, f"counterexamples:\n{detail}"
    assert elapsed < 30, f"corpus took {elapsed:.1f} s"
    with capsys.disabled():
        _passed(4, f"1000/1000 oracle agreement in {elapsed:.2f} s")


def test_criterion_5_stable_corpus_500(capsys):
    summary = run_corpus(count=500, max_degree=8, seed=7, lhp_only=True)
    assert summary.agreements == 500
    assert summary.polynomials_with_events == 0
    assert summary.nonpositive_first_columns == 0
    assert summary.verdict_counts == {"Stable": 500}
    with capsys.disabled():
        _passed(5, "500/500 LHP-root polynomials: no events, all Stable")


def test_criterion_6_routh_hurwitz_equivalence(capsys):
    # event-free subset of the criterion-4 corpus
    rng = Lcg64(42)
    event_free = agreements = 0
    for _ in range(1000):
        poly, _ = random_polynomial(rng, 8)
        report = classify(poly)
        if report.events:
            continue
        event_free += 1
        decision = hurwitz_stable(poly)
        # the minors come from the Routh pivots; Bareiss shares no code there
        assert decision.minors == leading_minors(hurwitz_matrix(poly))
        if decision.stable == (report.sign_changes == 0):
            agreements += 1
    assert event_free > 0
    assert agreements == event_free

    # Bareiss minors against the naive cofactor oracle, exact equality
    mrng = Lcg64(99)
    for _ in range(200):
        n = mrng.randint(1, 5)
        entries = tuple(tuple(Fraction(mrng.randint(-9, 9)) for _ in range(n))
                        for _ in range(n))
        matrix = ExactMatrix(n, entries)
        assert leading_minors(matrix) == minors_by_cofactor(matrix)
    with capsys.disabled():
        _passed(6, f"{agreements}/{event_free} event-free agreement; "
                   f"200 matrices match cofactor determinants")


def test_criterion_7_eps_field_property_suite(capsys):
    rng = Lcg64(2024)
    one = EpsRat.from_rational(1)
    zero = EpsRat.from_rational(0)
    for _ in range(10_000):
        a, b, c = (random_eps_rat(rng), random_eps_rat(rng),
                   random_eps_rat(rng))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == zero
        if not a.is_zero:
            assert a * (one / a) == one

    for _ in range(10_000):
        a, b = random_eps_rat(rng), random_eps_rat(rng)
        assert (a * b).sign() == a.sign() * b.sign()

    point = Fraction(1, 10 ** 9)
    for _ in range(10_000):
        a = random_eps_rat(rng)
        value = a.evaluate(point)
        assert a.sign() == (1 if value > 0 else (-1 if value < 0 else 0))
    with capsys.disabled():
        _passed(7, "10^4 field-axiom triples, sign pairs, and exact "
                   "evaluations at e=1e-9, all exact")


def test_criterion_8_gain_sweep(capsys):
    result = run_sweep("1,3,3,K", Fraction(0), Fraction(12), 1200)
    assert len(result.intervals) == 1
    lo, hi = result.intervals[0]
    step = Fraction(12, 1199)
    assert abs(lo - 0) <= step
    assert abs(hi - 9) <= step
    with capsys.disabled():
        _passed(8, f"single stable interval [{float(lo):.4f}, {float(hi):.4f}]"
                   f" within one step of (0, 9)")


def test_criterion_9_golden_analysis_document(capsys):
    golden = GOLDEN.read_text()
    outputs = []
    for _ in range(2):
        code = main(["analyze", "--coeffs", "1,0,0,0,1", "--policy",
                     "eps-row", "--json"])
        assert code == 1
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == golden
    assert outputs[1] == golden
    with capsys.disabled():
        _passed(9, f"{len(golden)}-byte document reproduced twice")


def _timed_classify(policy: Policy) -> float:
    start = time.perf_counter()
    classify(QUARTIC, policy)
    return time.perf_counter() - start
