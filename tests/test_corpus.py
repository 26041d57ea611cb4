"""Corpus generation: root draws and termination."""

from __future__ import annotations

from collections import Counter

import pytest

from routhkit import Lcg64, OracleUnavailable, root_oracle
from routhkit.corpus import random_roots, run_corpus


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


def test_unavailable_oracle_is_a_recorded_disagreement(monkeypatch):
    # a draw the float oracle cannot evaluate has no oracle count: it is
    # recorded with the reason, not a crash on the missing count
    def unavailable(p):
        raise OracleUnavailable("the monic coefficients leave the float range")

    monkeypatch.setattr(root_oracle, "find_roots", unavailable)
    summary = run_corpus(3, 6, 1)
    assert summary.agreements == 0
    assert len(summary.disagreements) == 3
    for item in summary.disagreements:
        assert item.oracle_rhp == -1
        assert item.routh_rhp == item.expected_rhp
        assert item.events[-1] == ("OracleUnavailable: the monic "
                                   "coefficients leave the float range")


def test_run_corpus_refuses_bad_arguments():
    with pytest.raises(ValueError, match="^count must be >= 1$"):
        run_corpus(0, 6, 1)
    with pytest.raises(ValueError, match="^max_degree must be between 2 and 12$"):
        run_corpus(1, 13, 1)
