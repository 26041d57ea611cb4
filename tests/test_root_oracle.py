"""Simultaneous-iteration root solver and half-plane classification."""

from __future__ import annotations

import math

import pytest

from fractions import Fraction

from routhkit import (DegreeTooSmall, Lcg64, OracleUnavailable, Policy,
                      Polynomial, RootSet, classify, find_roots,
                      half_plane_counts)
from routhkit import root_oracle
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

    def test_nonconvergence_reports_flag(self, monkeypatch):
        monkeypatch.setattr(root_oracle, "_MAX_SWEEPS", 2)
        rs = find_roots(Polynomial([1, 2, 1]))
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

    @pytest.mark.parametrize("coeffs", [
        "1,1e308,1e308,1",  # Horner overflows at the large root: NaN
        "1,1e200,1e200,1",  # the same one step further: NaN
        "1e-300,1,1",       # a root near -1e300: the residual is inf
    ])
    def test_non_finite_residual_is_unavailable(self, coeffs):
        # the float coefficients exist, but the roots cannot be evaluated:
        # such a root set vouches for nothing
        poly = Polynomial.parse(coeffs)
        with pytest.raises(OracleUnavailable,
                           match="the root iteration left the float range"):
            find_roots(poly)
        report = classify(poly, Policy.AUTO, with_oracle=True)
        assert report.verdict.value == "Stable"
        assert report.oracle_check.unavailable == \
            "the root iteration left the float range"

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

    def test_one_sweep_is_not_converged(self, seed7_draws, monkeypatch):
        # the floor rule must not pass estimates that are still far off
        monkeypatch.setattr(root_oracle, "_MAX_SWEEPS", 1)
        for poly, _, _ in seed7_draws:
            if poly.degree >= 4:
                assert not find_roots(poly).converged


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

    def test_relative_delta_for_large_roots(self, monkeypatch):
        rs = RootSet(roots=(complex(1e-4, 1e6),), max_residual=0.0, converged=True)
        assert root_oracle._AXIS_BAND == 1e-8
        assert half_plane_counts(rs).axis == 1
        monkeypatch.setattr(root_oracle, "_AXIS_BAND", 1e-12)
        assert half_plane_counts(rs).rhp == 1

    def test_counts_sum_to_degree(self, rng):
        for _ in range(30):
            degree = rng.randint(2, 8)
            poly = Polynomial.from_roots(random_roots(rng, degree))
            counts = half_plane_counts(find_roots(poly))
            assert counts.lhp + counts.rhp + counts.axis == degree


class TestSettledEstimates:
    """An estimate leaves the sweep once its Newton correction is below _TOL
    or its residual is at the rounding floor; converged=True means every
    estimate left that way."""

    @staticmethod
    def settled(poly: Polynomial, z: complex) -> bool:
        """Either settle test, read at z as find_roots reads it."""
        mono = _monic_floats(poly)
        value = slope = 0j
        for c in reversed(mono):
            slope = slope * z + value
            value = value * z + c
        if slope != 0 and abs(value / slope) < root_oracle._TOL * (1 + abs(z)):
            return True
        size = sum(abs(c) * abs(z) ** k for k, c in enumerate(mono))
        floor = (len(mono) - 1) * root_oracle._HORNER_ROUNDING
        return abs(value) <= floor * size

    def test_corpus_roots_pass_a_settle_test(self, seed7_draws):
        # the guarantee is that each test held one correction earlier; on
        # these draws the returned roots pass it themselves
        for poly, _, rs in seed7_draws:
            assert rs.converged
            assert all(self.settled(poly, r) for r in rs.roots), str(poly)

    @pytest.mark.parametrize("k", range(3, 13))
    def test_repeated_real_root_settles(self, k):
        poly = Polynomial.from_roots([-1] * k)
        rs = find_roots(poly)
        assert rs.converged
        assert all(self.settled(poly, r) for r in rs.roots)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 24, 47, 64, 96])
    def test_unit_circle_families_converge(self, n):
        # s^n + 1 and 1 + s + ... + s^n: every root on the unit circle, the
        # first with all middle coefficients zero
        for poly in (Polynomial([1] + [0] * (n - 1) + [1]),
                     Polynomial([1] * (n + 1))):
            rs = find_roots(poly)
            assert rs.converged, str(poly)
            assert len(rs.roots) == n
            assert max(abs(abs(r) - 1) for r in rs.roots) < 1e-6
            assert rs.max_residual < 1e-12

    def test_starts_follow_the_newton_polygon(self):
        # s^2 + 1e6 s + 1: one root near -1e-6, one near -1e6
        radii = sorted(abs(z) for z in root_oracle._starts(
            _monic_floats(Polynomial([1, 10 ** 6, 1]))))
        assert radii == pytest.approx([1e-6, 1e6])
        # a zero constant term starts a root at the origin
        starts = root_oracle._starts(_monic_floats(Polynomial([0, 0, 1, 1])))
        assert starts[:2] == [0j, 0j] and abs(starts[2]) == 1

    @pytest.mark.parametrize("coeffs", [[2, 3, 1], [-6, -7, 0, 1],
                                        [1, 4, 6, 4, 1], [0, 0, 1, 1]])
    def test_coincident_starts_are_nudged_apart(self, monkeypatch, coeffs):
        monkeypatch.setattr(root_oracle, "_starts",
                            lambda mono: [0.5 + 0.5j] * (len(mono) - 1))
        poly = Polynomial(coeffs)
        rs = find_roots(poly)
        assert rs.converged
        assert rs.max_residual < 1e-9
        assert len(rs.roots) == poly.degree
