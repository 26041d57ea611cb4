"""Gain sweep: sample verdicts and stable intervals."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routhkit import (ParseError, Policy, Polynomial, PolicyUnsupported,
                      classify, run_sweep)
from routhkit import polynomial
from routhkit import sweep as sweep_module
from routhkit.sweep import parse_template


def reference_samples(template: str, lo: Fraction, hi: Fraction, steps: int,
                      policy: Policy) -> tuple[tuple[Fraction, str], ...]:
    """The per-sample loop: one polynomial and one `classify` per sample."""
    slots = parse_template(template)
    lead = next(i for i, c in enumerate(slots) if c is None or c)
    degree = len(slots) - 1 - lead
    samples = []
    span = hi - lo
    for i in range(steps):
        value = lo + span * Fraction(i, steps - 1)
        poly = Polynomial(reversed([value if c is None else c for c in slots]))
        if poly.is_zero or poly.degree < degree:
            verdict = "Undetermined"
        else:
            try:
                verdict = classify(poly, policy).verdict.value
            except PolicyUnsupported:
                verdict = "Undetermined"
        samples.append((value, verdict))
    return tuple(samples)


@pytest.fixture
def classify_calls(monkeypatch):
    """Every polynomial that the sweep sends through `classify`."""
    calls = []

    def counting(poly, *args, **kwargs):
        calls.append(poly)
        return classify(poly, *args, **kwargs)

    monkeypatch.setattr(sweep_module, "classify", counting)
    return calls


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


def test_degree_limit_counts_from_the_highest_k_or_nonzero_slot():
    # leading zeros above the limit do not count towards the degree
    zeros = ",".join(["0"] * (polynomial.MAX_DEGREE + 5))
    result = run_sweep(f"{zeros},1,3,3,K", Fraction(0), Fraction(12), 13)
    assert result == run_sweep("1,3,3,K", Fraction(0), Fraction(12), 13)


def test_template_at_the_degree_limit_is_accepted(monkeypatch):
    monkeypatch.setattr(polynomial, "MAX_DEGREE", 3)
    result = run_sweep("1,3,3,K", Fraction(0), Fraction(12), 13)
    assert result.intervals == ((Fraction(1), Fraction(8)),)
    with pytest.raises(ParseError, match="^degree 4 exceeds the limit of 3$"):
        run_sweep("1,1,3,3,K", Fraction(0), Fraction(12), 13)
    with pytest.raises(ParseError, match="^degree 4 exceeds the limit of 3$"):
        run_sweep("K,1,3,3,0", Fraction(0), Fraction(12), 13)


def test_steps_above_the_limit_are_refused_at_once(monkeypatch):
    # every sample is kept, so the count is bounded before any is built
    limit = sweep_module.MAX_STEPS
    with pytest.raises(ValueError, match=f"^steps {limit + 1} exceeds the limit of {limit}$"):
        run_sweep("1,3,3,K", Fraction(0), Fraction(12), limit + 1)
    monkeypatch.setattr(sweep_module, "MAX_STEPS", 13)
    assert run_sweep("1,3,3,K", Fraction(0), Fraction(12), 13).intervals == \
        ((Fraction(1), Fraction(8)),)
    with pytest.raises(ValueError, match="^steps 14 exceeds the limit of 13$"):
        run_sweep("1,3,3,K", Fraction(0), Fraction(12), 14)


def test_empty_range_is_refused():
    with pytest.raises(ValueError, match="^range must satisfy lo < hi$"):
        run_sweep("1,3,3,K", Fraction(1), Fraction(1), 5)


def test_refused_sample_is_undetermined():
    # at K = 9, s^3 + 3s^2 + 3s + 9 = (s + 3)(s^2 + 3) has an all-zero s^1
    # row, which single-eps refuses: that sample has no verdict
    result = run_sweep("1,3,3,K", Fraction(0), Fraction(12), 37,
                       Policy.SINGLE_EPSILON)
    verdicts = dict(result.samples)
    assert verdicts[Fraction(9)] == "Undetermined"
    assert verdicts[Fraction(28, 3)] == "Unstable"
    assert result.intervals == ((Fraction(1, 3), Fraction(26, 3)),)


@st.composite
def sweeps(draw):
    """A template of degree <= 6 with small integer coefficients, and an
    integer or half-integer grid, so that samples hit integer roots of the
    column entries."""
    others = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=6))
    k_slot = draw(st.integers(0, len(others)))
    template = ",".join(map(str, others[:k_slot] + ["K"] + others[k_slot:]))
    lo = draw(st.integers(-6, 3))
    width = draw(st.integers(1, 10))
    per_unit = draw(st.sampled_from([1, 2]))
    steps = width * per_unit + 1
    policy = draw(st.sampled_from(list(Policy)))
    return template, Fraction(lo), Fraction(lo + width), steps, policy


@settings(max_examples=300, deadline=None)
@given(sweeps())
def test_matches_per_sample_classify(case):
    template, lo, hi, steps, policy = case
    result = run_sweep(template, lo, hi, steps, policy)
    assert result.samples == reference_samples(template, lo, hi, steps, policy)


@pytest.mark.parametrize("a", range(1, 5))
@pytest.mark.parametrize("b", range(1, 5))
def test_classify_runs_only_where_a_column_entry_vanishes(a, b, classify_calls):
    # the column of s^3 + a s^2 + b s + K is 1, a, b - K/a, K, which vanishes
    # only at K = 0 and K = ab; both are samples of this grid only when ab + 2
    # divides 1199 = 11 * 109, i.e. for a = b = 3
    lo, hi, steps = Fraction(-1), Fraction(a * b + 1), 1200
    result = run_sweep(f"1,{a},{b},K", lo, hi, steps)
    assert sorted(p.constant_term for p in classify_calls) == \
        ([0, 9] if a * b == 9 else [])
    assert result.samples == reference_samples(f"1,{a},{b},K", lo, hi, steps,
                                               Policy.AUTO)


@pytest.mark.parametrize("template", [
    "1,0,K",                      # zero first entry at s^1
    "1,2,3,4,5,6,7,K,9,10,11",    # zero first entry at s^7
])
@pytest.mark.parametrize("policy", list(Policy))
def test_degenerate_column_sends_every_sample_to_classify(template, policy,
                                                          classify_calls):
    lo, hi, steps = Fraction(-3), Fraction(3), 13
    result = run_sweep(template, lo, hi, steps, policy)
    assert len(classify_calls) == steps
    assert result.samples == reference_samples(template, lo, hi, steps, policy)
