"""Gain sweep: sample verdicts and stable intervals."""

from __future__ import annotations

from fractions import Fraction

from routhkit import run_sweep


def test_leading_k_of_zero_is_undetermined():
    # K = 0 turns K*s^2 + s + 1 into s + 1, a polynomial of another family
    result = run_sweep("K,1,1", Fraction(-1), Fraction(1), 5)
    assert dict(result.samples)[Fraction(0)] == "Undetermined"
    assert result.intervals == ((Fraction(1, 2), Fraction(1)),)


def test_leading_zero_literal_is_skipped():
    # the template's degree is that of its highest K or nonzero slot
    result = run_sweep("0,K,1,1", Fraction(-1), Fraction(1), 5)
    assert [v for _, v in result.samples] == \
        ["Unstable", "Unstable", "Undetermined", "Stable", "Stable"]
