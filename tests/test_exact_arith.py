"""Exact rational and eps-field arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from routhkit import EPSILON, POLE_AT_ZERO, EpsPoly, EpsRat, Rational, exact_arith
from conftest import random_eps_rat, random_fraction

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


class TestOperandContract:
    """An int or Fraction operand acts as its EpsRat lift, on either side;
    any other operand is refused."""

    X = (2 * EPSILON - 5) / (EPSILON * EPSILON + 3)
    OPS = [lambda a, b: a + b, lambda a, b: a - b,
           lambda a, b: a * b, lambda a, b: a / b]

    @pytest.mark.parametrize("other", ["1", 1.5, 1j, None])
    def test_foreign_operand_is_refused(self, other):
        for op in self.OPS:
            with pytest.raises(TypeError):
                op(self.X, other)
            with pytest.raises(TypeError):
                op(other, self.X)
        assert not (self.X == other) and not (other == self.X)
        assert self.X != other
        with pytest.raises(TypeError):
            self.X < other
        with pytest.raises(TypeError):
            other < self.X

    @pytest.mark.parametrize("q", [0, 1, -4, Fraction(1, 3), Fraction(-7, 2)])
    def test_rational_operand_acts_as_its_lift(self, q):
        x, lifted = self.X, EpsRat.from_rational(q)
        for op in self.OPS:
            for a, b, la, lb in ((x, q, x, lifted), (q, x, lifted, x)):
                try:
                    expected = op(la, lb)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        op(a, b)
                    continue
                assert op(a, b) == expected
        assert (x == q) is (x == lifted) is False
        assert (x < q) is (x < lifted) and (q < x) is (lifted < x)
        assert (lifted == q) and (q == lifted) and not (lifted < q)

    def test_reflected_forms(self):
        x = self.X
        one, two, three = (EpsRat.from_rational(v) for v in (1, 2, 3))
        assert 1 - x == one - x == -(x - 1)
        assert 2 / x == two / x == 1 / (x / 2)
        assert 3 * x == three * x == x * 3


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

    @given(eps_rats, eps_rats.filter(bool))
    def test_equal_values_hash_alike(self, a, c):
        # equal values reach one canonical form, e-carrying ones included
        b = a * c / c
        assert b == a and hash(b) == hash(a) and {a: "a"}[b] == "a"

    def test_epsilon_through_a_product_finds_itself(self):
        x = EPSILON * 3 / 3
        assert hash(x) == hash(EPSILON) and {EPSILON: "e"}[x] == "e"

    def test_refusals(self):
        with pytest.raises(ValueError, match="^zero polynomial has no valuation$"):
            EpsPoly().valuation
        with pytest.raises(ZeroDivisionError, match="^denominator vanishes at e=0$"):
            (1 / EPSILON).evaluate(0)
        with pytest.raises(TypeError, match="^cannot build EpsPoly from str$"):
            EpsRat("x")

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


class TestOneReduction:
    """Each result of + - * / is reduced to canonical form exactly once;
    negation and from_rational start from canonical pairs and never are."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        canonicalize = exact_arith._canonicalize

        def counting(num, den):
            count[0] += 1
            return canonicalize(num, den)

        monkeypatch.setattr(exact_arith, "_canonicalize", counting)
        return count

    def test_once_per_nonzero_result(self, rng, calls):
        ops = [
            lambda a, b, q: a + b, lambda a, b, q: a - b,
            lambda a, b, q: a * b, lambda a, b, q: a / b,
            lambda a, b, q: a + q, lambda a, b, q: a - q,
            lambda a, b, q: a * q, lambda a, b, q: a / q,
            lambda a, b, q: q + a, lambda a, b, q: q - a,
            lambda a, b, q: q * a, lambda a, b, q: q / a,
        ]
        checked = 0
        for _ in range(300):
            a, b = random_eps_rat(rng), random_eps_rat(rng)
            q = random_fraction(rng)
            for op in ops:
                before = calls[0]
                try:
                    result = op(a, b, q)
                except ZeroDivisionError:
                    continue
                assert calls[0] - before == (1 if result else 0)
                checked += 1
        assert checked > 3000

    def test_negation_and_from_rational_never_reduce(self, rng, calls):
        for _ in range(300):
            a, q = random_eps_rat(rng), random_fraction(rng)
            before = calls[0]
            neg, lifted = -a, EpsRat.from_rational(q)
            assert calls[0] == before
            assert (neg.num, neg.den) == (-a.num, a.den)
            assert (lifted.num.coeffs, lifted.den.coeffs) == (
                ((q,) if q else ()), (1,))
        before = calls[0]
        assert (-EPSILON).sign() == -1 and calls[0] == before


class TestEpsPoly:
    def test_degree_and_valuation(self):
        p = EpsPoly([0, 0, 5])
        assert p.degree == 2 and p.valuation == 2
        assert EpsPoly().is_zero and EpsPoly().degree == -1

    def test_trailing_zeros_stripped(self):
        assert EpsPoly([1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))

    def test_coeff_outside_the_stored_range_is_zero(self):
        p = EpsPoly._raw([2, 4], 4)
        assert [p.coeff(k) for k in (-1, 0, 1, 2)] == [0, Fraction(1, 2), 1, 0]
        assert p.lowest_coeff() == p.constant() == Fraction(1, 2)
        assert EpsPoly().constant() == 0

    @given(st.lists(st.integers(-9, 9), max_size=5), st.integers(1, 12),
           st.one_of(st.fractions(), st.integers(-50, 50)))
    def test_evaluate_matches_fraction_horner(self, ints, denom, value):
        while ints and not ints[-1]:
            ints.pop()
        p = EpsPoly._raw(ints, denom)   # unreduced forms included
        acc = Fraction(0)
        for c in reversed(p.coeffs):
            acc = acc * value + c
        assert p.evaluate(value) == acc
        assert type(p.evaluate(value)) is Fraction
