"""Corpus generation: root draws and termination."""

from __future__ import annotations

from collections import Counter

from routhkit import Lcg64
from routhkit.corpus import random_roots


def test_lhp_only_draws_terminate_at_high_degree():
    # above degree 9 the grid leaves 7 left-half-plane real roots; a draw
    # must never wait for an eighth
    rng = Lcg64(7)
    for _ in range(3000):
        degree = rng.randint(10, 12)
        roots = random_roots(rng, degree, lhp_only=True)
        assert len(roots) == degree
        assert all(r.real < 0 for r in roots)
        assert len(set(roots)) == degree
        assert Counter(roots) == Counter(r.conjugate() for r in roots)


def test_roots_lie_on_the_grid():
    rng = Lcg64(11)
    for _ in range(500):
        degree = rng.randint(2, 12)
        grid = 4 if degree <= 9 else 2
        for r in random_roots(rng, degree):
            assert (r.real * grid).is_integer() and (r.imag * grid).is_integer()
            assert 1 / grid <= abs(r.real) <= 3.5 and abs(r) <= 5
