"""Routh array construction, policies, sign counting, and verdicts."""

from __future__ import annotations

from fractions import Fraction

import pytest

from routhkit import (EPSILON, DegreeTooSmall, EpsContaminatedRow, EpsRat,
                      EventKind, OriginRoot, Policy, PolicyUnsupported,
                      Polynomial, Verdict, auxiliary_polynomial, build_array,
                      classify, count_sign_changes)
from routhkit.corpus import random_polynomial, random_roots

QUARTIC = Polynomial([1, 0, 0, 0, 1])          # s^4 + 1
CUBIC = Polynomial([-6, -7, 0, 1])             # s^3 - 7*s - 6, roots -1 -2 3
CRITICAL = Polynomial([1, 2, 1])               # (s + 1)^2


def rat(x) -> EpsRat:
    return EpsRat.from_rational(x)


class TestBuildArray:
    def test_quartic_epsilon_row(self):
        array = build_array(QUARTIC, Policy.EPSILON_ROW)
        assert array.rows == (
            (rat(1), rat(0), rat(1)),
            (EPSILON, EPSILON),
            (rat(-1), rat(1)),
            (2 * EPSILON,),
            (rat(1),),
        )
        assert [(e.kind, e.row_power) for e in array.events] == \
            [(EventKind.ZERO_ROW, 3)]

    def test_quartic_derivative_row(self):
        array = build_array(QUARTIC, Policy.DERIVATIVE_ROW)
        assert array.rows == (
            (rat(1), rat(0), rat(1)),
            (rat(4), rat(0)),
            (EPSILON, rat(1)),
            (rat(-4) / EPSILON,),
            (rat(1),),
        )
        assert [(e.kind, e.row_power) for e in array.events] == \
            [(EventKind.ZERO_ROW, 3), (EventKind.ZERO_FIRST_ELEMENT, 2)]

    @pytest.mark.parametrize("policy", list(Policy))
    def test_cubic_zero_first_element(self, policy):
        array = build_array(CUBIC, policy)
        assert array.rows == (
            (rat(1), rat(-7)),
            (EPSILON, rat(-6)),
            ((rat(6) - 7 * EPSILON) / EPSILON,),
            (rat(-6),),
        )
        assert [(e.kind, e.row_power) for e in array.events] == \
            [(EventKind.ZERO_FIRST_ELEMENT, 2)]

    def test_single_epsilon_refuses_zero_row(self):
        with pytest.raises(PolicyUnsupported):
            build_array(QUARTIC, Policy.SINGLE_EPSILON)

    def test_preconditions(self):
        with pytest.raises(DegreeTooSmall):
            build_array(Polynomial([5]))
        with pytest.raises(OriginRoot):
            build_array(Polynomial([0, 1, 1]))
        with pytest.raises(ValueError):
            build_array(Polynomial([-1, -1]))

    def test_shape_for_degrees_1_to_12(self, rng):
        for degree in range(1, 13):
            poly = Polynomial.from_roots(random_roots(rng, degree))
            array = build_array(poly)
            assert len(array.rows) == degree + 1
            for i, row in enumerate(array.rows):
                power = degree - i
                assert len(row) == power // 2 + 1

    def test_regular_case_eps_free_and_last_entry_sign(self, rng):
        seen = 0
        while seen < 60:
            poly, _ = random_polynomial(rng, 8)
            array = build_array(poly)
            if array.events:
                continue
            seen += 1
            assert all(e.is_eps_free for row in array.rows for e in row)
            last = array.rows[-1][0]
            assert last.sign() == (1 if poly.constant_term > 0 else -1)

    def test_positive_scaling_invariance(self, rng):
        for _ in range(40):
            poly, _ = random_polynomial(rng, 7)
            c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            base = build_array(poly)
            scaled = build_array(poly.scale(c))
            assert count_sign_changes(base)[0] == count_sign_changes(scaled)[0]
            if not base.events:
                for row_a, row_b in zip(base.rows, scaled.rows):
                    assert tuple(c * e for e in row_a) == row_b

    def test_double_zero_row_classical_remedy(self):
        # (s^2 + 1)^2 (s + 1): zero rows at s^3 and s^1
        poly = Polynomial.parse("s^5 + s^4 + 2*s^3 + 2*s^2 + s + 1")
        array = build_array(poly, Policy.AUTO)
        assert [(e.kind, e.row_power) for e in array.events] == \
            [(EventKind.ZERO_ROW, 3), (EventKind.ZERO_ROW, 1)]
        assert count_sign_changes(array)[1] == 0


class TestCountSignChanges:
    def test_quartic_epsilon_row(self):
        array = build_array(QUARTIC, Policy.EPSILON_ROW)
        signs, changes = count_sign_changes(array)
        assert signs == (1, 1, -1, 1, 1)
        assert changes == 2

    def test_quartic_derivative_row(self):
        array = build_array(QUARTIC, Policy.DERIVATIVE_ROW)
        signs, changes = count_sign_changes(array)
        assert signs == (1, 1, 1, -1, 1)
        assert changes == 2

    def test_stable_double_root(self):
        signs, changes = count_sign_changes(build_array(CRITICAL))
        assert signs == (1, 1, 1)
        assert changes == 0


class TestAuxiliaryPolynomial:
    def test_quartic_top_row(self):
        row = (rat(1), rat(0), rat(1))
        assert auxiliary_polynomial(row, 4) == QUARTIC

    def test_quadratic(self):
        assert auxiliary_polynomial((rat(1), rat(-1)), 2) == Polynomial([-1, 0, 1])

    def test_constant(self):
        assert auxiliary_polynomial((rat(2),), 0) == Polynomial([2])

    def test_eps_contaminated_row_rejected(self):
        with pytest.raises(EpsContaminatedRow):
            auxiliary_polynomial((EPSILON, rat(1)), 2)

    def test_row_too_long_for_its_power(self):
        with pytest.raises(ValueError, match="^row of 3 entries is too long for power 2$"):
            auxiliary_polynomial((rat(1), rat(0), rat(1)), 2)


class TestClassify:
    def test_quartic_epsilon_row(self):
        report = classify(QUARTIC, Policy.EPSILON_ROW)
        assert report.rhp_count == 2
        assert report.verdict is Verdict.UNSTABLE
        assert [(e.kind, e.row_power) for e in report.events] == \
            [(EventKind.ZERO_ROW, 3)]

    def test_stable_double_root(self):
        report = classify(CRITICAL)
        assert report.verdict is Verdict.STABLE
        assert report.rhp_count == 0
        assert report.events == ()

    def test_cubic_one_rhp_root(self):
        report = classify(CUBIC, with_oracle=True)
        assert report.rhp_count == 1
        assert report.verdict is Verdict.UNSTABLE
        assert [(e.kind, e.row_power) for e in report.events] == \
            [(EventKind.ZERO_FIRST_ELEMENT, 2)]
        assert report.oracle_check.agreement
        assert report.oracle_check.counts.rhp == 1

    def test_axis_pair_is_marginal(self):
        report = classify(Polynomial([1, 0, 1]))  # s^2 + 1
        assert report.verdict is Verdict.MARGINAL_OR_SYMMETRIC
        assert report.sign_changes == 0

    def test_origin_roots_are_marginal(self):
        report = classify(Polynomial([0, 1, 1]))  # s(s + 1)
        assert report.verdict is Verdict.MARGINAL_OR_SYMMETRIC
        kinds = [e.kind for e in report.events]
        assert kinds == [EventKind.ORIGIN_ROOTS_STRIPPED]

    def test_negative_leading_coefficient_flips(self):
        report = classify(Polynomial([-1, -2, -1]))  # -(s + 1)^2
        assert report.verdict is Verdict.STABLE
        assert [e.kind for e in report.events] == [EventKind.LEADING_SIGN_FLIP]

    def test_rhp_count_equals_sign_changes(self, rng):
        for _ in range(50):
            poly, _ = random_polynomial(rng, 8)
            report = classify(poly)
            assert report.rhp_count == report.sign_changes

    def test_root_count_against_construction(self, rng):
        for _ in range(100):
            poly, roots = random_polynomial(rng, 8)
            report = classify(poly)
            assert report.rhp_count == sum(1 for r in roots if r.real > 0)

    def test_stable_characterization(self, rng):
        for _ in range(60):
            poly, _ = random_polynomial(rng, 8, lhp_only=True)
            report = classify(poly)
            assert report.events == ()
            assert all(s == 1 for s in report.first_column_signs)
            assert report.verdict is Verdict.STABLE

    def test_lhp_extension_preserves_stability(self, rng):
        for _ in range(40):
            poly, _ = random_polynomial(rng, 6, lhp_only=True)
            a = Fraction(rng.randint(1, 12), rng.randint(1, 4))
            extended = poly * Polynomial([a, 1])
            assert classify(extended).verdict is Verdict.STABLE

    def test_policies_agree_on_quartic(self):
        eps_row = classify(QUARTIC, Policy.EPSILON_ROW)
        derivative = classify(QUARTIC, Policy.DERIVATIVE_ROW)
        assert eps_row.sign_changes == derivative.sign_changes == 2

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            classify(Polynomial())

    def test_constant_is_vacuously_stable(self):
        report = classify(Polynomial([5]))
        assert report.verdict is Verdict.STABLE
        assert report.sign_changes == 0

    def test_pure_monomial_is_marginal(self):
        report = classify(Polynomial([0, 1]))  # s
        assert report.verdict is Verdict.MARGINAL_OR_SYMMETRIC
