"""Polynomial parsing, rendering, calculus, and root-based construction."""

from __future__ import annotations

import cmath
import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from routhkit import (EmptyPolynomial, EpsPoly, ParseError, Polynomial,
                      UnpairedComplexRoot, polynomial)
from routhkit.polynomial import MAX_DEGREE
from conftest import random_fraction

QUARTIC = Polynomial([1, 0, 0, 0, 1])


class TestParse:
    def test_descending_list(self):
        assert Polynomial.parse("1,0,0,0,1") == QUARTIC

    def test_term_form(self):
        assert Polynomial.parse("s^4 + 1") == QUARTIC

    def test_leading_zero_stripped(self):
        assert Polynomial.parse("0,1,1") == Polynomial([1, 1])

    def test_space_separated(self):
        assert Polynomial.parse("1 0 0 0 1") == QUARTIC

    def test_fraction_and_decimal_coefficients(self):
        assert Polynomial.parse("3/2, 1") == Polynomial([1, Fraction(3, 2)])
        assert Polynomial.parse("1.5, 1") == Polynomial([1, Fraction(3, 2)])

    def test_term_form_variants(self):
        assert Polynomial.parse("2*s^3 - s + 5") == Polynomial([5, -1, 0, 2])
        assert Polynomial.parse("-s^2 + 1") == Polynomial([1, 0, -1])
        assert Polynomial.parse("1/2*s") == Polynomial([0, Fraction(1, 2)])

    def test_malformed(self):
        for bad in ("abc", "1,x,2", "s^-1", "s^", "1 + + 2", "s 1", ""):
            with pytest.raises(ParseError):
                Polynomial.parse(bad)

    def test_separators_only(self):
        with pytest.raises(ParseError, match="^no coefficients in ','$"):
            Polynomial.parse(",")

    def test_all_zero(self):
        for bad in ("0", "0,0,0", "0*s"):
            with pytest.raises(EmptyPolynomial):
                Polynomial.parse(bad)

    def test_degree_limit(self):
        limit = MAX_DEGREE
        assert Polynomial.parse(f"s^{limit} + 1").degree == limit
        assert Polynomial.parse(",".join(["1"] * (limit + 1))).degree == limit
        # a zero term above the limit does not raise the degree
        assert Polynomial.parse(f"0*s^{limit + 1} + s + 1").degree == 1
        for text in (f"s^{limit + 1} + 1", ",".join(["1"] * (limit + 2)),
                     "s^1000000000000 + 1"):
            with pytest.raises(ParseError, match=f"exceeds the limit of {limit}$"):
                Polynomial.parse(text)

    @given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12),
                    min_size=1, max_size=8).filter(lambda cs: any(cs)))
    def test_render_round_trip(self, coeffs):
        p = Polynomial(coeffs)
        assert Polynomial.parse(str(p)) == p


class TestRender:
    def test_sparse_form(self):
        assert str(QUARTIC) == "s^4 + 1"
        assert str(Polynomial([-6, -7, 0, 1])) == "s^3 - 7*s - 6"
        assert str(Polynomial([Fraction(1, 2), 2])) == "2*s + 1/2"
        assert str(Polynomial()) == "0"


class TestDenseCore:
    def test_one_renderer_both_orders(self):
        coeffs = [Fraction(-1, 2), 0, 3, -1]
        assert str(Polynomial(coeffs)) == "-s^3 + 3*s^2 - 1/2"
        assert str(EpsPoly(coeffs)) == "-1/2 + 3*e^2 - e^3"

    def test_types_do_not_mix(self):
        p, e = Polynomial([1, 1]), EpsPoly([1, 1])
        assert p != e
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(TypeError):
                op(p, e)
            with pytest.raises(TypeError):
                op(e, p)

    def test_arithmetic_and_scale(self):
        p, q = Polynomial([1, Fraction(1, 2)]), Polynomial([Fraction(-1, 3), 0, 2])
        assert p + q == Polynomial([Fraction(2, 3), Fraction(1, 2), 2])
        assert p - p == Polynomial() and (p - p).is_zero
        assert p * q == Polynomial([Fraction(-1, 3), Fraction(-1, 6), 2, 1])
        assert p.scale(Fraction(-2, 3)) == Polynomial([Fraction(-2, 3), Fraction(-1, 3)])
        assert p.scale(0).is_zero
        assert hash(p * q) == hash(Polynomial([Fraction(-1, 3), Fraction(-1, 6), 2, 1]))


class TestDerivative:
    def test_quartic(self):
        assert QUARTIC.derivative() == Polynomial([0, 0, 0, 4])

    def test_linear(self):
        assert Polynomial([1, 1]).derivative() == Polynomial([1])

    def test_constant(self):
        assert Polynomial([5]).derivative().is_zero

    def test_degree_drop(self, rng):
        for _ in range(100):
            coeffs = [random_fraction(rng) for _ in range(rng.randint(2, 9))]
            coeffs.append(Fraction(rng.randint(1, 9)))
            p = Polynomial(coeffs)
            assert p.derivative().degree == p.degree - 1


class TestFromRoots:
    def test_three_real_roots(self):
        assert Polynomial.from_roots([-1, -2, 3]) == Polynomial([-6, -7, 0, 1])

    def test_double_root(self):
        assert Polynomial.from_roots([-1, -1]) == Polynomial([1, 2, 1])

    def test_conjugate_pair(self):
        assert Polynomial.from_roots([1j, -1j]) == Polynomial([1, 0, 1])

    def test_unpaired_root_rejected(self):
        with pytest.raises(UnpairedComplexRoot):
            Polynomial.from_roots([1j])
        with pytest.raises(UnpairedComplexRoot):
            Polynomial.from_roots([1 + 2j, 1 - 2.5j])

    @pytest.mark.parametrize("roots", [
        [complex(1, math.inf), complex(1, -math.inf)],
        [math.inf],
        [math.nan],
    ], ids=["infinite-pair", "inf", "nan"])
    def test_non_finite_root_refused(self, roots):
        # an infinite imaginary part would pass the real-root test, and a
        # float that is not finite has no integer ratio
        with pytest.raises(ValueError, match=r"^root .* is not finite$"):
            Polynomial.from_roots([-1, *roots])

    @pytest.mark.parametrize("n", [34, 40, 64, 96])
    def test_exact_conjugates_on_the_unit_circle(self, n):
        # the roots of s^n + 1, each pair exactly conjugate: the product is
        # exact, so no rounding residue can refuse them
        roots = []
        for k in range(n // 2):
            z = cmath.exp(1j * math.pi * (2 * k + 1) / n)
            roots += [z, z.conjugate()]
        assert Polynomial.from_roots(roots) == Polynomial([1] + [0] * (n - 1) + [1])

    def test_imaginary_residue_refused(self, monkeypatch):
        # a pair that passes a loose pairing tolerance leaves an imaginary
        # part of 1e-7 in the product, above its bound of 1e-9
        monkeypatch.setattr(polynomial, "_PAIR_TOL", 1e-6)
        with pytest.raises(UnpairedComplexRoot, match=r"^imaginary residue 1\.000e-07 "
                           "exceeds tolerance after pairing$"):
            Polynomial.from_roots([1 + 2j, complex(1, -(2 + 1e-7))])

    def test_residual_at_supplied_roots(self, rng):
        from routhkit.corpus import random_roots
        for _ in range(60):
            roots = random_roots(rng, rng.randint(2, 8))
            p = Polynomial.from_roots(roots)
            bound = 1e-6 * (1 + max(abs(float(c)) for c in p.coeffs))
            for r in roots:
                assert abs(p.evaluate(r)) < bound

    def test_monic(self, rng):
        from routhkit.corpus import random_roots
        for _ in range(20):
            p = Polynomial.from_roots(random_roots(rng, 5))
            assert p.leading_coefficient == 1


class TestEvaluate:
    def test_at_zero(self):
        assert QUARTIC.evaluate(0) == 1

    def test_near_eighth_root_of_unity(self):
        z = complex(0.70710678, 0.70710678)
        assert abs(QUARTIC.evaluate(z)) < 1e-7

    def test_exact_root(self):
        assert Polynomial([1, 2, 1]).evaluate(-1) == 0

    @given(st.lists(st.fractions(max_denominator=10 ** 30), min_size=1, max_size=12),
           st.complex_numbers(max_magnitude=1e30, allow_nan=False,
                              allow_infinity=False))
    def test_same_as_the_fraction_route(self, coeffs, z):
        # c / d from the stored integers rounds as float(Fraction) does
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * z + float(c)
        assert repr(Polynomial(coeffs).evaluate(z)) == repr(acc)


class TestZeroPolynomial:
    """The zero polynomial has no degree, leading coefficient or root
    structure, and says so."""

    def test_refusals(self):
        zero = Polynomial()
        with pytest.raises(ValueError, match="^zero polynomial has no degree$"):
            zero.degree
        with pytest.raises(ValueError, match="no leading coefficient$"):
            zero.leading_coefficient
        with pytest.raises(ValueError, match="no root structure$"):
            zero.strip_origin_roots()


class TestStripOriginRoots:
    def test_two_origin_roots(self):
        k, q = Polynomial([0, 0, 1, 1]).strip_origin_roots()
        assert k == 2 and q == Polynomial([1, 1])

    def test_nonzero_constant(self):
        k, q = QUARTIC.strip_origin_roots()
        assert k == 0 and q == QUARTIC

    def test_bare_monomial(self):
        k, q = Polynomial([0, 1]).strip_origin_roots()
        assert k == 1 and q == Polynomial([1])

    def test_reconstruction(self, rng):
        for _ in range(100):
            shift = rng.randint(0, 3)
            body = [random_fraction(rng) for _ in range(rng.randint(1, 6))]
            body[0] = Fraction(rng.randint(1, 9))
            body.append(Fraction(1))
            p = Polynomial([Fraction(0)] * shift + body)
            k, q = p.strip_origin_roots()
            assert k == shift
            assert q.constant_term != 0
            assert Polynomial([Fraction(0)] * k + list(q.coeffs)) == p
