"""Hurwitz matrix, exact leading minors, and the determinant criterion."""

from __future__ import annotations

from fractions import Fraction

import pytest

from routhkit import (DegreeTooSmall, ExactMatrix, Lcg64, OriginRoot, Policy,
                      PolicyUnsupported, Polynomial, Verdict, build_array,
                      classify, count_sign_changes, hurwitz_matrix,
                      hurwitz_stable, leading_minors)
from routhkit import hurwitz
from routhkit.corpus import random_polynomial
from conftest import ladder_families


def F(x):
    return Fraction(x)


def cofactor_det(m: list[list[Fraction]]) -> Fraction:
    """Naive cofactor expansion: the independent oracle for minors."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        if not m[0][j]:
            continue
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += (-1) ** j * m[0][j] * cofactor_det(minor)
    return total


def minors_by_cofactor(matrix: ExactMatrix) -> tuple[Fraction, ...]:
    return tuple(
        cofactor_det([list(row[: k + 1]) for row in matrix.entries[: k + 1]])
        for k in range(matrix.n))


class TestHurwitzMatrix:
    def test_cubic(self):
        m = hurwitz_matrix(Polynomial([4, 3, 2, 1]))
        assert m.entries == ((F(2), F(4), F(0)),
                             (F(1), F(3), F(0)),
                             (F(0), F(2), F(4)))

    def test_quadratic(self):
        m = hurwitz_matrix(Polynomial([1, 2, 1]))
        assert m.entries == ((F(2), F(0)), (F(1), F(1)))

    def test_linear(self):
        assert hurwitz_matrix(Polynomial([5, 1])).entries == ((F(5),),)

    def test_degree_too_small(self):
        with pytest.raises(DegreeTooSmall):
            hurwitz_matrix(Polynomial([3]))

    def test_negative_leading_coefficient(self):
        with pytest.raises(ValueError, match="^leading coefficient must be positive"):
            hurwitz_matrix(Polynomial([1, -1]))


class TestLeadingMinors:
    def test_cubic_example(self):
        m = hurwitz_matrix(Polynomial([4, 3, 2, 1]))
        assert leading_minors(m) == (F(2), F(2), F(8))

    def test_identity(self):
        eye = ExactMatrix(3, tuple(tuple(F(int(i == j)) for j in range(3))
                                   for i in range(3)))
        assert leading_minors(eye) == (F(1), F(1), F(1))

    def test_two_by_two(self):
        m = ExactMatrix(2, ((F(2), F(4)), (F(1), F(3))))
        assert leading_minors(m) == (F(2), F(2))

    def test_zero_pivot_fallback(self):
        m = ExactMatrix(2, ((F(0), F(1)), (F(1), F(0))))
        assert leading_minors(m) == (F(0), F(-1))

    def test_matches_cofactor_oracle(self, rng):
        for _ in range(120):
            n = rng.randint(1, 5)
            entries = tuple(tuple(F(rng.randint(-9, 9)) for _ in range(n))
                            for _ in range(n))
            m = ExactMatrix(n, entries)
            assert leading_minors(m) == minors_by_cofactor(m)

    def test_matches_cofactor_oracle_on_corpus(self, rng):
        polys = [random_polynomial(rng, 8)[0] for _ in range(200)]
        # zero pivots mid-matrix: s^n + 1, all-ones, (s^2 + 1)^2, the
        # quintic s^5 + 2s^4 + 3s^3 + 6s^2 + 10s + 5 and
        # (s^2 + 1)(s^3 + s - 1)
        polys += [Polynomial([1] + [0] * (n - 1) + [1]) for n in range(4, 8)]
        polys += [Polynomial([1] * (n + 1)) for n in range(4, 8)]
        polys += [Polynomial([1, 0, 2, 0, 1]), Polynomial([5, 10, 6, 3, 2, 1]),
                  Polynomial([-1, 1, -1, 2, 0, 1])]
        for poly in polys:
            m = hurwitz_matrix(poly)
            assert leading_minors(m) == minors_by_cofactor(m), poly

    def test_rational_entries(self, rng):
        for _ in range(40):
            n = rng.randint(1, 4)
            entries = tuple(
                tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                      for _ in range(n))
                for _ in range(n))
            m = ExactMatrix(n, entries)
            assert leading_minors(m) == minors_by_cofactor(m)


class TestHurwitzStable:
    def test_preconditions(self):
        with pytest.raises(DegreeTooSmall):
            hurwitz_stable(Polynomial([3]))
        with pytest.raises(OriginRoot):
            hurwitz_stable(Polynomial([0, 1, 1]))
        with pytest.raises(ValueError, match="^leading coefficient must be positive"):
            hurwitz_stable(Polynomial([1, 1, -1]))

    def test_stable_cubic(self):
        decision = hurwitz_stable(Polynomial([4, 3, 2, 1]))
        assert decision.stable
        assert decision.minors == (F(2), F(2), F(8))

    def test_unstable_quartic(self):
        decision = hurwitz_stable(Polynomial([1, 0, 0, 0, 1]))
        assert not decision.stable
        assert any(v <= 0 for v in decision.minors)

    def test_stable_double_root(self):
        assert hurwitz_stable(Polynomial([1, 2, 1])).stable

    def test_integer_route_matches_fraction_matrix(self):
        # hurwitz_stable reads the integer form; the public route scales
        # the Fraction matrix back to integers
        rng = Lcg64(7)
        polys = [random_polynomial(rng, 12)[0] for _ in range(500)]
        polys += ladder_families()
        polys += [Polynomial([Fraction(1, 3), Fraction(-5, 7), Fraction(2, 9), 1]),
                  Polynomial([Fraction(1, 10 ** 30), 2, Fraction(3, 4)])]
        for poly in polys:
            assert hurwitz_stable(poly).minors == leading_minors(hurwitz_matrix(poly))

    def test_equivalence_with_routh(self, rng):
        checked = 0
        while checked < 80:
            poly, _ = random_polynomial(rng, 8)
            array = build_array(poly)
            if array.events:
                continue
            checked += 1
            routh_stable = count_sign_changes(array)[1] == 0
            assert hurwitz_stable(poly).stable == routh_stable


def verdict_inputs() -> list[Polynomial]:
    """All-ones and s^n +- 1, axis factors (s^2 + w^2)^k t, the zero first
    entry beside an axis pair, stable factors times s^k, and corpus draws."""
    polys = []
    for n in range(2, 25):
        polys += [Polynomial([1] * (n + 1)), Polynomial([1] + [0] * (n - 1) + [1]),
                  Polynomial([-1] + [0] * (n - 1) + [1])]
    for w2 in (Fraction(1, 4), 1, 4, 9):
        for t in ([1], [1, 1], [-1, 1], [5, 2, 1]):
            p = Polynomial(t)
            for _ in range(3):
                p = p * Polynomial([w2, 0, 1])
                polys.append(p)
    polys.append(Polynomial([-1, 1, -1, 2, 0, 1]))   # (s^2 + 1)(s^3 + s - 1)
    polys += [Polynomial([0, 1, 1]), Polynomial([0, 0, 5, 2, 1])]   # origin roots
    rng = Lcg64(3)
    polys += [random_polynomial(rng, 12)[0] for _ in range(1000)]
    return polys


class TestStableVerdict:
    def test_stable_means_positive_minors(self):
        # under every policy: a Stable verdict has no origin roots and every
        # Hurwitz minor of the normalized input positive; with no event in
        # the array, the two criteria agree both ways
        for p in verdict_inputs():
            k, q = p.strip_origin_roots()
            q = -q if q.leading_coefficient < 0 else q
            hurwitz_ok = hurwitz_stable(q).stable
            for policy in Policy:
                try:
                    report = classify(p, policy)
                except PolicyUnsupported:
                    continue
                stable = report.verdict is Verdict.STABLE
                if stable:
                    assert k == 0 and hurwitz_ok, (p, policy)
                if not k and not report.array.events:
                    assert stable == hurwitz_ok, (p, policy)


# descending coefficients of inputs whose chain meets zero first entries:
# g = 1, 2, 3 leading zeros at row 1 and mid-chain, a gap followed by a
# zero row, and two gaps in one chain
GAPS = [
    [1, 0, 1, 1],                           # g = 1 at row 1
    [1, 0, 2, 0, -1, -1, 0, 2, 1, 1],       # g = 2 at row 1
    [1, 0, 3, 0, 0, 0, 3, 3, 0, 1],         # g = 3 at row 1
    [1, 3, 0, 0, 3, 1, 1],                  # g = 1 at row 2
    [1, 3, 0, 3, -1, 0, 0, 0, 0, 1],        # g = 2 at row 3
    [1, 2, 0, 0, 0, 0, 0, 0, 3, 3, 1],      # g = 3 at row 2
    [1, 0, 1, 1, 0, 1],                     # g = 1 at row 1, zero row 4
    [1, 1, -1, 0, 0, 0, 2, 2, 0, 1],        # g = 2 at row 3, zero row 8
    [1, 2, 1, 0, 1, 2, 0, 0, 1, 2, 1],      # g = 1 at row 3, g = 2 at row 6
]


def no_determinant_inputs() -> list[Polynomial]:
    polys = [Polynomial([1] + [0] * (n - 1) + [1]) for n in range(4, 49)]
    for w2 in (1, 4, 9):
        for t in ([1, 1], [1, 1, 1], [1, 3, 2, 1]):
            p = Polynomial(t)
            for _ in range(4):
                p = p * Polynomial([w2, 0, 1])   # (s^2 + w^2)^k t
                polys.append(p)
    polys += [Polynomial([1] * (n + 1)) for n in range(1, 65)]
    rng = Lcg64(7)
    draws = [random_polynomial(rng, 12)[0] for _ in range(4000)]
    polys += [p for p in draws if not p.coeff(p.degree - 1)]
    polys += [Polynomial(top[::-1]) for top in GAPS]
    return polys


class TestNoDeterminant:
    """hurwitz_stable reads every minor from the fraction-free pass, also
    after a zero pivot: it never takes a determinant."""

    def test_minors_without_determinants(self, monkeypatch):
        polys = no_determinant_inputs()
        expected = [leading_minors(hurwitz_matrix(p)) for p in polys]

        def refuse(a):
            raise AssertionError("hurwitz_stable took a determinant")
        monkeypatch.setattr(hurwitz, "_det_int", refuse)
        for p, minors in zip(polys, expected):
            assert hurwitz_stable(p).minors == minors, p

    def test_long_gap_and_zero_row(self):
        # all-ones of degree 96: F_2 = (0, ..., 0, 1), a gap of 47 entries;
        # s^96 + 1: F_1 is a zero row
        ones = hurwitz_stable(Polynomial([1] * 97)).minors
        assert [k for k, m in enumerate(ones, 1) if m] == [1, 95, 96]
        assert not any(hurwitz_stable(Polynomial([1] + [0] * 95 + [1])).minors)
