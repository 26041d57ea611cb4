"""Exact rational and eps-field arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routhkit import (EPSILON, POLE_AT_ZERO, EpsPoly, EpsRat, Policy,
                      PolicyUnsupported, Rational, build_array)
from routhkit import exact_arith
from routhkit.exact_arith import (_int_eval_homogeneous, _int_gcd, _primitive,
                                  _prs_gcd)
from conftest import ladder_families, random_eps_rat

ONE = EpsRat.from_rational(1)
ZERO = EpsRat.from_rational(0)

eps_polys = st.lists(st.integers(-9, 9), min_size=0, max_size=4).map(EpsPoly)
nonzero_polys = eps_polys.filter(lambda p: not p.is_zero)
eps_rats = st.builds(EpsRat, eps_polys, nonzero_polys)


class TestRational:
    def test_addition(self):
        assert Rational(1, 2) + Rational(1, 3) == Rational(5, 6)

    def test_comparison_with_zero(self):
        assert Rational(-6, 1) < 0

    def test_gcd_normalization(self):
        x = Rational(2, 4)
        assert (x.numerator, x.denominator) == (1, 2)

    def test_negative_denominator_normalizes(self):
        x = Rational(3, -6)
        assert (x.numerator, x.denominator) == (-1, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Rational(1) / Rational(0)

    def test_field_ops_exact(self):
        a, b = Rational(22, 7), Rational(-3, 11)
        assert a * b / b == a
        assert (a - b) + b == a


class TestEpsArithmetic:
    def test_additive_inverse(self):
        assert EPSILON + (-EPSILON) == ZERO

    def test_multiplicative_inverse(self):
        assert EPSILON * (ONE / EPSILON) == ONE

    def test_cross_multiplication_entry(self):
        # the (b0*a1 - a0*b1)/b0 step that yields the -1 array entry
        assert (EPSILON * 0 - 1 * EPSILON) / EPSILON == EpsRat.from_rational(-1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE / ZERO
        with pytest.raises(ZeroDivisionError):
            EpsRat(EpsPoly([1]), EpsPoly())

    def test_mixed_operands(self):
        assert 2 * EPSILON == EPSILON + EPSILON
        assert EPSILON - Fraction(1, 2) == EpsRat(EpsPoly([Fraction(-1, 2), 1]))

    def test_ordering_in_the_limit(self):
        assert ZERO < EPSILON < Fraction(1, 10 ** 12)
        assert -EPSILON < ZERO
        assert ONE / EPSILON > 10 ** 12


class TestEpsSign:
    def test_pole_with_positive_limit(self):
        x = (EpsRat.from_rational(6) - 7 * EPSILON) / EPSILON
        # independent oracle: exact substitution of a small rational value
        value = x.evaluate(Fraction(1, 10 ** 6))
        assert value == Fraction(5999993)
        assert x.sign() == 1

    def test_negative_constant(self):
        assert EpsRat.from_rational(-1).sign() == -1

    def test_positive_infinitesimal(self):
        x = 2 * EPSILON
        assert x.evaluate(Fraction(1, 10 ** 6)) == Fraction(2, 10 ** 6)
        assert x.sign() == 1

    def test_zero(self):
        assert ZERO.sign() == 0


class TestEpsLimit:
    def test_finite_value(self):
        x = (EPSILON + 3) / (1 + EPSILON)
        assert x.limit() == Fraction(3)

    def test_infinitesimal(self):
        assert (2 * EPSILON).limit() == Fraction(0)

    def test_pole(self):
        x = (EpsRat.from_rational(6) - 7 * EPSILON) / EPSILON
        assert x.limit() is POLE_AT_ZERO


class TestCanonicalForm:
    def test_common_factor_removed(self):
        # (2e + 2e^2) / (4e^2 + 4e^3) == 1/(2e)
        x = EpsRat(EpsPoly([0, 2, 2]), EpsPoly([0, 0, 4, 4]))
        assert x == ONE / (2 * EPSILON)
        assert str(x) == "(1/2)/(e)"

    def test_denominator_lowest_coefficient_is_one(self, rng):
        for _ in range(300):
            x = random_eps_rat(rng)
            assert x.den.lowest_coeff() == 1

    def test_idempotent(self, rng):
        for _ in range(300):
            x = random_eps_rat(rng)
            again = EpsRat(x.num, x.den)
            assert again.num == x.num and again.den == x.den

    def test_rendering(self):
        x = (EpsRat.from_rational(6) - 7 * EPSILON) / EPSILON
        assert str(x) == "(6 - 7*e)/(e)"
        assert str(EpsRat.from_rational(Fraction(5, 6))) == "5/6"
        assert str(EpsRat.from_rational(-1)) == "-1"
        assert str(2 * EPSILON) == "(2*e)/(1)"
        assert str(ZERO) == "0"


class TestEpsFreeValues:
    """An e-free EpsRat behaves as the Fraction it equals: same ==, hash
    and rendering, however it was produced."""

    @pytest.mark.parametrize("q", [0, 1, -3, Fraction(22, 7), Fraction(-1, 3), 10 ** 30])
    def test_from_rational_agrees_with_fraction(self, q):
        x = EpsRat.from_rational(q)
        assert x == Fraction(q) and hash(x) == hash(Fraction(q))
        assert x.is_eps_free and x.as_fraction() == Fraction(q)
        assert str(x) == str(Fraction(q))

    def test_eps_free_result_of_eps_arithmetic(self):
        x = (3 * EPSILON + 6) / EPSILON - 6 / EPSILON
        assert x == 3 and hash(x) == hash(Fraction(3))
        assert str(x) == "3"
        assert x.is_eps_free
        assert x.as_fraction() == Fraction(3) and type(x.as_fraction()) is Fraction
        assert EPSILON - EPSILON == ZERO and hash(EPSILON - EPSILON) == hash(0)
        assert -(EPSILON / (2 * EPSILON)) == Fraction(-1, 2)

    def test_dict_lookup_across_forms(self):
        x = (3 * EPSILON + 6) / EPSILON - 6 / EPSILON
        assert {Fraction(3): "q"}[x] == "q"
        assert {x: "x"}[Fraction(3)] == "x"
        assert {EpsRat.from_rational(Fraction(1, 2)): "h"}[Fraction(1, 2)] == "h"

    def test_eps_term_has_no_fraction(self):
        assert not EPSILON.is_eps_free
        with pytest.raises(ValueError):
            EPSILON.as_fraction()
        with pytest.raises(ValueError):
            (1 / EPSILON).as_fraction()

    @given(eps_rats.filter(bool),
           st.fractions(max_denominator=50).filter(lambda q: abs(q) < 10 ** 6))
    def test_cancelled_eps_matches_fraction(self, a, q):
        x = (a * q) / a
        assert x.is_eps_free and x == q and hash(x) == hash(q)
        assert str(x) == str(q) and x.as_fraction() == q


class TestFieldProperties:
    @given(eps_rats, eps_rats, eps_rats)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(eps_rats)
    def test_inverses(self, a):
        assert a + (-a) == ZERO
        if not a.is_zero:
            assert a * (ONE / a) == ONE

    @given(eps_rats, eps_rats)
    def test_sign_multiplicative(self, a, b):
        assert (a * b).sign() == a.sign() * b.sign()

    def test_sign_limit_consistency(self, rng):
        checked = 0
        for _ in range(500):
            x = random_eps_rat(rng)
            v = x.limit()
            if v is POLE_AT_ZERO or v == 0:
                continue
            checked += 1
            assert x.sign() == (1 if v > 0 else -1)
        assert checked > 100

    def test_sign_matches_exact_evaluation(self, rng):
        point = Fraction(1, 10 ** 9)
        for _ in range(500):
            x = random_eps_rat(rng)
            v = x.evaluate(point)
            assert x.sign() == (1 if v > 0 else (-1 if v < 0 else 0))


class TestEpsPoly:
    def test_degree_and_valuation(self):
        p = EpsPoly([0, 0, 5])
        assert p.degree == 2 and p.valuation == 2
        assert EpsPoly().is_zero and EpsPoly().degree == -1

    def test_trailing_zeros_stripped(self):
        assert EpsPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))

    def test_inexact_integer_division_raises(self):
        from routhkit.exact_arith import _int_div_exact
        assert _int_div_exact([1, 2, 1], [1, 1]) == [1, 1]
        with pytest.raises(ArithmeticError):
            _int_div_exact([1, 3], [1, 2])         # 3 is not a multiple of 2
        with pytest.raises(ArithmeticError):
            _int_div_exact([1, 0, 1], [1, 1])      # remainder 2

    def test_divmod_reconstructs(self, rng):
        from conftest import random_eps_poly
        for _ in range(200):
            a = random_eps_poly(rng, max_degree=4)
            b = random_eps_poly(rng, max_degree=3, nonzero=True)
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero or r.degree < b.degree


def int_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# integer polynomials of degree <= 6, coefficients up to 2^64 in size
int_polys = (st.lists(st.integers(-2 ** 64, 2 ** 64), min_size=1, max_size=7)
             .filter(lambda cs: cs[-1] != 0))


class TestIntGcd:
    """`_int_gcd` (GCDHEU with the PRS as fallback) on primitive integer
    polynomials with a drawn common factor."""

    @settings(max_examples=300, deadline=None)
    @given(int_polys, int_polys, int_polys)
    def test_gcd_and_cofactors(self, f, g, c):
        a, b = _primitive(int_mul(f, c)), _primitive(int_mul(g, c))
        d, qa, qb = _int_gcd(a, b)
        assert int_mul(d, qa) == a
        assert int_mul(d, qb) == b
        prs = _prs_gcd(a, b)
        assert d in (prs, [-x for x in prs])

    def test_known_gcd(self):
        a = [-2, -1, 1]                          # (x + 1)(x - 2)
        b = [3, 4, 1]                            # (x + 1)(x + 3)
        assert _int_gcd(a, b) == ([1, 1], [-2, 1], [3, 1])
        assert _int_gcd([1, 1], [1, 0, 1]) == ([1], [1, 1], [1, 0, 1])

    def test_candidate_dividing_one_input_is_retried(self, monkeypatch):
        # x - 31 vanishes at the first point xi = 31, so the candidate read
        # from h = 32 is x + 1, which divides x + 1 only; xi = 84 gives 1
        assert _int_gcd([1, 1], [-31, 1]) == ([1], [1, 1], [-31, 1])
        assert _int_gcd([-31, 1], [1, 1]) == ([1], [-31, 1], [1, 1])
        monkeypatch.setattr(exact_arith, "_HEU_TRIES", 1)
        assert exact_arith._heu_gcd([1, 1], [-31, 1]) is None
        assert _int_gcd([1, 1], [-31, 1]) == ([1], [1, 1], [-31, 1])

    def test_prs_fallback_gives_same_canonical_forms(self, monkeypatch):
        def rows(p, policy):
            try:
                array = build_array(p, policy)
            except PolicyUnsupported:
                return None
            return [[(e.num, e.den) for e in row] for row in array.rows]

        cases = [(p, policy) for p in ladder_families()
                 for policy in (Policy.EPSILON_ROW, Policy.DERIVATIVE_ROW,
                                Policy.SINGLE_EPSILON)]
        heuristic = [rows(p, policy) for p, policy in cases]
        monkeypatch.setattr(exact_arith, "_heu_gcd", lambda a, b: None)
        assert [rows(p, policy) for p, policy in cases] == heuristic


class TestIntEvalHomogeneous:
    @given(int_polys, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
    def test_is_scaled_value_at_fraction(self, coeffs, n, d):
        value = sum(Fraction(c) * Fraction(n, d) ** j for j, c in enumerate(coeffs))
        got = _int_eval_homogeneous(coeffs, n, d)
        assert got == value * d ** (len(coeffs) - 1)
