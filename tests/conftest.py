"""Shared helpers: deterministic random generators for property loops."""

from __future__ import annotations

from fractions import Fraction

import pytest

from routhkit import EpsPoly, EpsRat, Lcg64, Polynomial


def random_eps_poly(rng: Lcg64, max_degree: int = 2, bound: int = 6,
                    nonzero: bool = False) -> EpsPoly:
    while True:
        size = rng.randint(0, max_degree) + 1
        poly = EpsPoly([rng.randint(-bound, bound) for _ in range(size)])
        if not nonzero or not poly.is_zero:
            return poly


def random_eps_rat(rng: Lcg64, max_degree: int = 2, bound: int = 6) -> EpsRat:
    return EpsRat(random_eps_poly(rng, max_degree, bound),
                  random_eps_poly(rng, max_degree, bound, nonzero=True))


def random_fraction(rng: Lcg64, bound: int = 9, max_den: int = 6) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, max_den))


@pytest.fixture
def rng() -> Lcg64:
    return Lcg64(0xC0FFEE)


def _stable_roots(degree: int) -> list[complex]:
    roots = []
    for k in range(1, degree // 2 + 1):
        roots += [complex(-k, k + 1), complex(-k, -(k + 1))]
    if degree % 2:
        roots.append(-0.5)
    return roots


def ladder_families() -> list[Polynomial]:
    """The degenerate families of the `degenerate-ladder` benchmark workload:
    all-ones, s^n + 1, (s^2 - 4) and (s^2 + 9)^k times stable factors."""
    P = Polynomial
    return ([P([1] * (n + 1)) for n in (4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17,
                                        19, 20, 21, 24, 32)]
            + [P([1] + [0] * (n - 1) + [1]) for n in (4, 5, 6, 8, 10, 12, 14,
                                                      16, 18, 20)]
            + [P.from_roots([2, -2] + _stable_roots(d)) for d in range(2, 15, 2)]
            + [P.from_roots([3j, -3j] * k + _stable_roots(4)) for k in range(1, 6)])
