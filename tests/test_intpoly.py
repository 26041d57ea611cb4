"""Integer polynomials in the ascending `_ints` form: gcd with cofactors,
exact and pseudo division, and homogeneous evaluation."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from routhkit import (EpsPoly, Policy, PolicyUnsupported, Polynomial,
                      build_array, intpoly)
from routhkit.intpoly import (_int_div, _int_div_exact, _primitive, _prs_gcd,
                              _pseudo_rem, eval_homogeneous, gcd_cofactors)
from conftest import ladder_families


def int_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def int_sub(a: list[int], b: list[int]) -> list[int]:
    out = [x - y for x, y in zip(a, b)] + a[len(b):] + [-y for y in b[len(a):]]
    while out and not out[-1]:
        out.pop()
    return out


# integer polynomials of degree <= 6, coefficients up to 2^64 in size
int_polys = (st.lists(st.integers(-2 ** 64, 2 ** 64), min_size=1, max_size=7)
             .filter(lambda cs: cs[-1] != 0))


class TestIntGcd:
    """`gcd_cofactors` (GCDHEU with the PRS as fallback) on primitive integer
    polynomials with a drawn common factor."""

    @settings(max_examples=300, deadline=None)
    @given(int_polys, int_polys, int_polys)
    def test_gcd_and_cofactors(self, f, g, c):
        a, b = _primitive(int_mul(f, c)), _primitive(int_mul(g, c))
        d, qa, qb = gcd_cofactors(a, b)
        assert int_mul(d, qa) == a
        assert int_mul(d, qb) == b
        prs = _prs_gcd(a, b)
        assert d in (prs, [-x for x in prs])

    def test_known_gcd(self):
        a = [-2, -1, 1]                          # (x + 1)(x - 2)
        b = [3, 4, 1]                            # (x + 1)(x + 3)
        assert gcd_cofactors(a, b) == ([1, 1], [-2, 1], [3, 1])
        assert gcd_cofactors([1, 1], [1, 0, 1]) == ([1], [1, 1], [1, 0, 1])

    def test_candidate_dividing_one_input_is_retried(self, monkeypatch):
        # x - 31 vanishes at the first point xi = 31, so the candidate read
        # from h = 32 is x + 1, which divides x + 1 only; xi = 84 gives 1
        assert gcd_cofactors([1, 1], [-31, 1]) == ([1], [1, 1], [-31, 1])
        assert gcd_cofactors([-31, 1], [1, 1]) == ([1], [-31, 1], [1, 1])
        monkeypatch.setattr(intpoly, "_HEU_TRIES", 1)
        assert intpoly._heu_gcd([1, 1], [-31, 1]) is None
        assert gcd_cofactors([1, 1], [-31, 1]) == ([1], [1, 1], [-31, 1])

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
        monkeypatch.setattr(intpoly, "_heu_gcd", lambda a, b: None)
        assert [rows(p, policy) for p, policy in cases] == heuristic


class TestIntDiv:
    def test_inexact_integer_division_raises(self):
        assert _int_div_exact([1, 2, 1], [1, 1]) == [1, 1]
        with pytest.raises(ArithmeticError):
            _int_div_exact([1, 3], [1, 2])         # 3 is not a multiple of 2
        with pytest.raises(ArithmeticError):
            _int_div_exact([1, 0, 1], [1, 1])      # remainder 2

    @given(int_polys, int_polys)
    def test_exact_division_gives_back_the_factor(self, a, b):
        assert _int_div(int_mul(a, b), b) == a
        assert _int_div_exact(int_mul(a, b), b) == a

    @given(int_polys, int_polys, int_polys)
    def test_division_with_remainder_is_none(self, a, b, r):
        r = r[:len(b) - 1]
        while r and not r[-1]:
            r.pop()
        assume(r)
        assert _int_div(int_sub(int_mul(a, b), r), b) is None

    @given(int_polys, int_polys)
    def test_pseudo_remainder(self, a, b):
        # r = lc(b)^m * a mod b for some m <= deg a - deg b + 1: the loop
        # multiplies by lc(b) once per step, and a step that drops the
        # degree by more than one saves the steps it skips
        assume(len(a) >= len(b))
        r = _pseudo_rem(a, b)
        assert len(r) < len(b)
        lead = b[-1]
        assert any(_int_div(int_sub([lead ** m * c for c in a], r), b)
                   is not None for m in range(len(a) - len(b) + 2))

    def test_pseudo_remainder_skips_a_step(self):
        # 2x^2 + x + 3 by 2x + 1: one step leaves 6, so lc^1 * a - r is a
        # multiple of b and lc^2 * a - r (= 8x^2 + 4x + 6) is not
        a, b = [3, 1, 2], [1, 2]
        assert _pseudo_rem(a, b) == [6]
        assert _int_div(int_sub([2 * c for c in a], [6]), b) == [0, 2]
        assert _int_div(int_sub([4 * c for c in a], [6]), b) is None


class TestIntEvalHomogeneous:
    @given(int_polys, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 6))
    def test_is_scaled_value_at_fraction(self, coeffs, n, d):
        value = sum(Fraction(c) * Fraction(n, d) ** j for j, c in enumerate(coeffs))
        got = eval_homogeneous(coeffs, n, d)
        assert got == value * d ** (len(coeffs) - 1)


@st.composite
def raw_pairs(draw):
    """Two `_raw` forms over small denominators; half the time the second
    is the first scaled by a common factor, so the two are equal."""
    ints = draw(st.lists(st.integers(-6, 6), max_size=4))
    while ints and not ints[-1]:
        ints.pop()
    denom = draw(st.integers(1, 6))
    if draw(st.booleans()):
        k = draw(st.integers(1, 6))
        other, other_denom = [c * k for c in ints], denom * k
    else:
        other = draw(st.lists(st.integers(-6, 6), max_size=4))
        while other and not other[-1]:
            other.pop()
        other_denom = draw(st.integers(1, 6))
    cls = draw(st.sampled_from((Polynomial, EpsPoly)))
    return cls._raw(ints, denom), cls._raw(other, other_denom)


class TestDensePolyEquality:
    def test_unreduced_form_equals_reduced(self):
        assert Polynomial._raw([2, 4], 2) == Polynomial([1, 2])
        assert hash(Polynomial._raw([2, 4], 2)) == hash(Polynomial([1, 2]))
        assert Polynomial._raw([2, 4], 2) != Polynomial([1, 2, 1])
        assert Polynomial([1, 2]) != EpsPoly([1, 2])

    @settings(max_examples=300)
    @given(raw_pairs())
    def test_agrees_with_fraction_coefficients(self, pair):
        a, b = pair
        assert (a == b) == (a.coeffs == b.coeffs)
        if a == b:
            assert hash(a) == hash(b)
