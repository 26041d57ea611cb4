"""Simultaneous-iteration root solver and half-plane classification."""

from __future__ import annotations

import math

import pytest

from fractions import Fraction

from routhkit import (DegreeTooSmall, Lcg64, OracleUnavailable, Policy,
                      Polynomial, RootSet, classify, find_roots,
                      half_plane_counts)
from routhkit.corpus import random_polynomial, random_roots
from routhkit.root_oracle import _monic_floats


@pytest.fixture(scope="module")
def seed7_draws():
    """(polynomial, constructed roots, oracle roots) for the first 1,000
    corpus draws of seed 7: some cluster their roots tightly enough that no
    step can fall below _TOL in double precision."""
    rng = Lcg64(7)
    draws = [random_polynomial(rng, 12) for _ in range(1000)]
    return [(poly, roots, find_roots(poly)) for poly, roots in draws]


class TestFindRoots:
    def test_real_pair(self):
        rs = find_roots(Polynomial([-1, 0, 1]))
        assert rs.converged
        assert max(abs(r - e) for r, e in zip(rs.roots, (-1, 1))) < 1e-12

    def test_imaginary_pair(self):
        rs = find_roots(Polynomial([1, 0, 1]))
        assert max(abs(r - e) for r, e in zip(rs.roots, (-1j, 1j))) < 1e-12

    def test_eighth_roots_of_unity_quartet(self):
        rs = find_roots(Polynomial([1, 0, 0, 0, 1]))
        h = math.sqrt(2) / 2
        expected = sorted((complex(-h, -h), complex(-h, h),
                           complex(h, -h), complex(h, h)),
                          key=lambda z: (z.real, z.imag))
        assert rs.converged
        assert max(abs(r - e) for r, e in zip(rs.roots, expected)) < 1e-9

    def test_sorted_by_re_then_im(self, rng):
        for _ in range(20):
            rs = find_roots(Polynomial.from_roots(random_roots(rng, 6)))
            keys = [(r.real, r.imag) for r in rs.roots]
            assert keys == sorted(keys)

    def test_nonconvergence_reports_flag(self):
        rs = find_roots(Polynomial([1, 2, 1]), max_iter=2)
        assert not rs.converged
        assert len(rs.roots) == 2

    def test_degree_zero_rejected(self):
        with pytest.raises(DegreeTooSmall):
            find_roots(Polynomial([3]))

    @pytest.mark.parametrize("coeffs", [
        "1,1e400,1",    # a coefficient has no float
        "1e-400,1,1",   # the leading coefficient underflows to 0.0
        "1e-310,1,1",   # a subnormal leading coefficient: 1/lead is inf
        "1,1e-400,1",   # a middle coefficient underflows: s^2 + 1 is not p
        "1,1,1e-400",   # the constant underflows: a root at 0 is not p's
    ])
    def test_out_of_float_range_is_unavailable(self, coeffs):
        poly = Polynomial.parse(coeffs)
        with pytest.raises(OracleUnavailable):
            find_roots(poly)
        report = classify(poly, Policy.AUTO, with_oracle=True)
        assert report.verdict.value == "Stable"
        oracle = report.oracle_check
        assert oracle.unavailable == "the monic coefficients leave the float range"
        assert oracle.root_set is oracle.counts is oracle.agreement is None

    def test_residual_bound_on_corpus(self, rng):
        for _ in range(50):
            poly = Polynomial.from_roots(random_roots(rng, rng.randint(2, 8)))
            assert find_roots(poly).max_residual < 1e-6

    def test_vieta_sum_and_product(self, rng):
        for _ in range(50):
            degree = rng.randint(2, 8)
            poly = Polynomial.from_roots(random_roots(rng, degree))
            rs = find_roots(poly)
            assert rs.converged
            total = sum(rs.roots)
            prod = 1 + 0j
            for r in rs.roots:
                prod *= r
            a = poly.coeffs
            want_sum = -complex(float(a[-2]) / float(a[-1]))
            want_prod = complex((-1) ** degree * float(a[0]) / float(a[-1]))
            scale = 1 + max(abs(want_sum), abs(want_prod))
            assert abs(total - want_sum) < 1e-6 * scale
            assert abs(prod - want_prod) < 1e-6 * scale

    def test_conjugate_symmetry(self, rng):
        for _ in range(30):
            poly = Polynomial.from_roots(random_roots(rng, rng.randint(2, 8)))
            roots = list(find_roots(poly).roots)
            for r in roots:
                assert min(abs(r.conjugate() - other) for other in roots) < 1e-8

    def test_round_trip_recovers_roots(self, rng):
        for _ in range(30):
            roots = random_roots(rng, rng.randint(2, 8))
            rs = find_roots(Polynomial.from_roots(roots))
            # multiset recovery: each input root has a solver root nearby
            pool = list(rs.roots)
            for want in roots:
                best = min(range(len(pool)), key=lambda i: abs(pool[i] - want))
                assert abs(pool.pop(best) - want) < 1e-6


class TestRoundingFloor:
    """An estimate whose residual is rounding noise has converged."""

    def test_corpus_draws_converge(self, seed7_draws):
        stuck = [str(poly) for poly, _, rs in seed7_draws if not rs.converged]
        assert stuck == []

    def test_corpus_draws_recover_roots_and_counts(self, seed7_draws):
        for _, roots, rs in seed7_draws:
            pool = list(rs.roots)
            for want in roots:
                best = min(range(len(pool)), key=lambda i: abs(pool[i] - want))
                assert abs(pool.pop(best) - want) < 1e-9 * (1 + abs(want))
            rhp = sum(1 for r in roots if r.real > 0)
            assert half_plane_counts(rs).rhp == rhp

    @pytest.mark.parametrize("k", range(3, 13))
    def test_repeated_real_root_converges(self, k):
        rs = find_roots(Polynomial.from_roots([-1] * k))
        assert rs.converged
        assert all(r.real < 0 and abs(r + 1) < 0.25 for r in rs.roots)
        assert half_plane_counts(rs).lhp == k

    def test_one_sweep_is_not_converged(self, seed7_draws):
        # the floor rule must not pass estimates that are still far off
        for poly, _, _ in seed7_draws:
            if poly.degree >= 4:
                assert not find_roots(poly, max_iter=1).converged


class TestMonicFloats:
    """The solver's doubles come from the integer form; they must be the
    doubles that float(Fraction) gives."""

    @staticmethod
    def fraction_route(p: Polynomial) -> list[float]:
        lead = float(p.leading_coefficient)
        return [float(c) / lead for c in p.coeffs]

    def test_corpus_draws(self, seed7_draws):
        for poly, _, _ in seed7_draws:
            assert _monic_floats(poly) == self.fraction_route(poly)

    def test_wide_rationals(self, rng):
        for _ in range(2000):
            n = rng.randint(1, 8)
            coeffs = [Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 9))
                      * Fraction(10) ** rng.randint(-250, 250) for _ in range(n + 1)]
            poly = Polynomial(coeffs)
            if poly.is_zero or poly.degree < 1:
                continue
            try:
                expected = self.fraction_route(poly)
            except (OverflowError, ZeroDivisionError):
                continue
            if all(map(math.isfinite, expected)) and all(
                    f or not c for f, c in zip(expected, poly.coeffs)):
                assert _monic_floats(poly) == expected


class TestHalfPlaneCounts:
    def test_quartic_split(self):
        counts = half_plane_counts(find_roots(Polynomial([1, 0, 0, 0, 1])))
        assert (counts.lhp, counts.rhp, counts.axis) == (2, 2, 0)

    def test_known_real_roots(self):
        counts = half_plane_counts(find_roots(Polynomial([-6, -7, 0, 1])))
        assert (counts.lhp, counts.rhp, counts.axis) == (2, 1, 0)

    def test_imaginary_pair_on_axis(self):
        counts = half_plane_counts(find_roots(Polynomial([1, 0, 1])))
        assert (counts.lhp, counts.rhp, counts.axis) == (0, 0, 2)

    def test_relative_delta_for_large_roots(self):
        rs = RootSet(roots=(complex(1e-4, 1e6),), max_residual=0.0, converged=True)
        assert half_plane_counts(rs, delta=1e-8).axis == 1
        assert half_plane_counts(rs, delta=1e-12).rhp == 1

    def test_counts_sum_to_degree(self, rng):
        for _ in range(30):
            degree = rng.randint(2, 8)
            poly = Polynomial.from_roots(random_roots(rng, degree))
            counts = half_plane_counts(find_roots(poly))
            assert counts.lhp + counts.rhp + counts.axis == degree
