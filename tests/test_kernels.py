"""Differential checks of the integer kernels against plain exact references.

`build_array` runs in integer rows until the first degenerate row and then
keeps e-free entries as Fractions beside EpsRats, and `Polynomial.from_roots`
expands over the integers; both must give exactly what the textbook
formulas give over EpsRat and Fraction.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from routhkit import (EpsRat, Lcg64, Policy, PolicyUnsupported, Polynomial,
                      auxiliary_polynomial, build_array, classify,
                      count_sign_changes)
from routhkit.corpus import random_polynomial, random_roots
from routhkit.routh import _remediate
from routhkit import exact_arith, routh
from conftest import ladder_families

POLICIES = (Policy.SINGLE_EPSILON, Policy.EPSILON_ROW, Policy.DERIVATIVE_ROW)


def reference_array(p: Polynomial, policy: Policy):
    """Rows and events by the cross-multiplication rule, entry by entry
    over EpsRat, with the builder's own remedies."""
    n, rows, events = p.degree, [], []
    for power in range(n, -1, -1):
        if power >= n - 1:
            row = [EpsRat.from_rational(p.coeff(power - 2 * j)) for j in range(power // 2 + 1)]
        else:
            a2, a1 = rows[-2], rows[-1]
            row = [(a1[0] * a2[j + 1] - a2[0] * (a1[j + 1] if j + 1 < len(a1) else 0)) / a1[0]
                   for j in range(power // 2 + 1)]
        if power < n:
            _remediate(row, power, rows[-1], policy, events)
        rows.append(tuple(e if isinstance(e, EpsRat) else EpsRat.from_rational(e) for e in row))
    return tuple(rows), tuple(events)


def assert_matches_reference(p: Polynomial, policy: Policy) -> None:
    try:
        rows, events = reference_array(p, policy)
    except PolicyUnsupported as exc:
        with pytest.raises(type(exc)):
            build_array(p, policy)
        return
    array = build_array(p, policy)
    # the signs come from the stored rows, before any lift
    assert count_sign_changes(array)[0] == tuple(row[0].sign() for row in rows)
    assert array.rows == rows
    assert [[str(e) for e in row] for row in array.rows] == \
        [[str(e) for e in row] for row in rows]
    assert array.events == events
    assert all(type(e) is EpsRat for row in array.rows for e in row)


def normalized(p: Polynomial) -> Polynomial:
    """p with origin roots stripped and a positive leading coefficient."""
    _, q = p.strip_origin_roots()
    return -q if q.leading_coefficient < 0 else q


# small rationals over mixed denominators, integers among them
rationals = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3, 4, 7)))


@st.composite
def rational_polynomials(draw) -> Polynomial:
    """Small rational polynomials; an even factor q(s^2), drawn half the
    time, makes roots symmetric about the origin and so a zero row."""
    coeffs = st.lists(rationals, min_size=2, max_size=6)
    p = Polynomial(draw(coeffs))
    if draw(st.booleans()):
        p = p * Polynomial([c for k in draw(coeffs) for c in (k, 0)])
    assume(not p.is_zero and p.degree >= 1)
    q = normalized(p)
    assume(q.degree >= 1)
    return q


@st.composite
def degenerate_after_prefix(draw) -> tuple[Polynomial, int]:
    """(p, m): p's array is event-free down to its s^m row, whose first
    entry is zero (the whole row, at times), after up to 9 regular rows.

    Rows are polynomials R_k in s of the parity of k.  One Routh step maps
    (R_{k+2}, R_{k+1}) to (R_{k+1}, R_k) with R_k = R_{k+2} - c s R_{k+1},
    c the ratio of their first entries; so any c != 0 puts the rows
    R_{k+2} = c s R_{k+1} + R_k on top of the pair (R_{k+1}, R_k).
    """
    m = draw(st.integers(0, 4))
    below = [draw(rationals.filter(bool))] + draw(
        st.lists(rationals, min_size=(m + 1) // 2, max_size=(m + 1) // 2))
    at = [Fraction(0)] + draw(st.lists(rationals, min_size=m // 2, max_size=m // 2))
    upper, lower = auxiliary_polynomial(below, m + 1), auxiliary_polynomial(at, m)
    for _ in range(draw(st.integers(0, 8))):
        c = draw(rationals.filter(bool))
        upper, lower = Polynomial([0, c]) * upper + lower, upper
    p = upper + lower
    assume(p.constant_term)
    return (-p if p.leading_coefficient < 0 else p), m


class TestBuildArrayKernel:
    @settings(max_examples=300, deadline=None)
    @given(rational_polynomials())
    def test_matches_reference(self, p):
        for policy in POLICIES:
            assert_matches_reference(p, policy)

    @settings(max_examples=300, deadline=None)
    @given(degenerate_after_prefix())
    def test_handover_at_every_row(self, case):
        # the integer rows hand over to Q(e) at the s^m row, at row index
        # degree - m, which ranges over 1..9
        p, m = case
        array = build_array(p, Policy.DERIVATIVE_ROW)
        assert array.events[0].row_power == m
        assert all(d == 1 for _, d in array.built)
        for policy in POLICIES:
            assert_matches_reference(p, policy)

    def test_corpus_regular_path_lifts_on_read_only(self, monkeypatch):
        # classify reads the signs from the integer rows: no _lift at all,
        # and no EpsRat on an event-free draw, until `rows` is read
        calls = {"lift": 0, "from_rational": 0}
        lift, from_rational = routh._lift, EpsRat.from_rational

        def counting_lift(row, d):
            calls["lift"] += 1
            return lift(row, d)

        def counting_from_rational(cls, value):
            calls["from_rational"] += 1
            return from_rational(value)

        monkeypatch.setattr(routh, "_lift", counting_lift)
        monkeypatch.setattr(EpsRat, "from_rational", classmethod(counting_from_rational))
        rng = Lcg64(7)
        reports = []
        for _ in range(1000):
            p, _ = random_polynomial(rng, 12)
            before = calls["from_rational"]
            report = classify(p, Policy.AUTO, with_oracle=True)
            if not report.events:
                assert calls["from_rational"] == before
            reports.append((p, report))
        assert calls["lift"] == 0
        assert sum(1 for _, r in reports if not r.events) > 700
        monkeypatch.undo()
        for p, report in reports:
            assert report.array.rows == reference_array(p, Policy.AUTO)[0]

    @pytest.mark.parametrize("p", [
        *(Polynomial([1] * (n + 1)) for n in range(2, 13)),
        *(Polynomial([1] + [0] * (n - 1) + [1]) for n in range(2, 11)),
        Polynomial([5, 10, 6, 3, 2, 1]),       # s^5+2s^4+3s^3+6s^2+10s+5
        Polynomial([1, 0, 2, 0, 1]),           # (s^2 + 1)^2
    ], ids=str)
    def test_degenerate_families(self, p):
        for policy in POLICIES:
            assert_matches_reference(p, policy)

    def test_corpus_draws(self):
        rng = Lcg64(20261018)
        for _ in range(200):
            p, _ = random_polynomial(rng, 12)
            assert_matches_reference(p, Policy.AUTO)


def fraction_expansion(roots) -> Polynomial:
    """prod (s - r) over the Gaussian rationals, then the same rounding as
    `from_roots`; the imaginary parts must cancel exactly."""
    coeffs = [(Fraction(1), Fraction(0))]
    for r in roots:
        a, b = Fraction(r.real), Fraction(r.imag)
        out = [(Fraction(0), Fraction(0))] * (len(coeffs) + 1)
        for k, (x, y) in enumerate(coeffs):
            out[k + 1] = (out[k + 1][0] + x, out[k + 1][1] + y)
            out[k] = (out[k][0] - (a * x - b * y), out[k][1] - (a * y + b * x))
        coeffs = out
    assert all(y == 0 for _, y in coeffs)
    return Polynomial([x.limit_denominator(10 ** 6) for x, _ in coeffs])


def assert_same_polynomial(p: Polynomial, q: Polynomial) -> None:
    """Equal as values and in the stored integer form."""
    assert p == q
    assert hash(p) == hash(q)
    assert (p._ints, p._denom) == (q._ints, q._denom)


# binary fractions k / 2^j, so conjugates are exact
binary = st.builds(lambda k, j: k / 2 ** j, st.integers(-40, 40), st.integers(0, 4))


class TestFromRootsKernel:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(binary, max_size=5),
           st.lists(st.tuples(binary, binary.filter(bool)), max_size=4))
    def test_matches_fraction_expansion(self, reals, pairs):
        roots = [complex(x) for x in reals]
        for re, im in pairs:
            roots += [complex(re, im), complex(re, -im)]
        assert_same_polynomial(Polynomial.from_roots(roots), fraction_expansion(roots))

    def test_corpus_draws(self):
        rng = Lcg64(20261018)
        for _ in range(200):
            roots = random_roots(rng, rng.randint(1, 12))
            assert_same_polynomial(Polynomial.from_roots(roots), fraction_expansion(roots))

    def test_rounding_kicks_in(self):
        # 1/3 is not a binary fraction: its float is rounded back to 1/3
        assert_same_polynomial(Polynomial.from_roots([1 / 3]),
                               Polynomial([Fraction(-1, 3), 1]))

    def test_rounding_of_binary_roots(self):
        # (s - 1/16)^6 has constant 1/2^24: past 10**6, so it is rounded
        roots = [1 / 16] * 6
        p = Polynomial.from_roots(roots)
        assert_same_polynomial(p, fraction_expansion(roots))
        assert p.constant_term != Fraction(1, 2 ** 24)


def rows_digest(p: Polynomial, policy: Policy) -> str:
    """sha256 of the rendered rows and events of p's array."""
    array = build_array(p, policy)
    lines = ["|".join(str(e) for e in row) for row in array.rows]
    lines += [f"{ev.kind.value}@{ev.row_power}: {ev.remedy}" for ev in array.events]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# computed with the primitive-PRS reduction alone, before GCDHEU took over;
# all-ones of even degree raises only ZeroFirstElement events, so eps-row
# and derivative build the same array
ONES_DIGESTS = {
    24: "b51490f42d1842ce615243e56d3735bea8681815ae4ea89a3e2943eeac19eb35",
    32: "a30d9f4260b8e79b36c89e23622148a5b740025f3a58ee4a1d8df674fff9e13c",
    40: "34ef5694d1e5a14805fad3f43456e1d72ceeb6d592bf2d274678bed3fe02daa1",
}


class TestGcdKernel:
    """Q(e) reduction by GCDHEU: same renderings as the PRS, and the PRS
    fallback is never needed on the benchmark's inputs."""

    @pytest.mark.parametrize("n", sorted(ONES_DIGESTS))
    @pytest.mark.parametrize("policy", [Policy.EPSILON_ROW, Policy.DERIVATIVE_ROW],
                             ids=lambda policy: policy.value)
    def test_all_ones_digest(self, n, policy):
        assert rows_digest(Polynomial([1] * (n + 1)), policy) == ONES_DIGESTS[n]

    def test_no_prs_fallback(self, monkeypatch):
        calls = {"gcd": 0, "prs": 0}

        def counting(name, fn):
            def wrapped(a, b):
                calls[name] += 1
                return fn(a, b)
            return wrapped

        monkeypatch.setattr(exact_arith, "_int_gcd",
                            counting("gcd", exact_arith._int_gcd))
        monkeypatch.setattr(exact_arith, "_prs_gcd",
                            counting("prs", exact_arith._prs_gcd))
        rng = Lcg64(7)
        for _ in range(1000):
            p, _ = random_polynomial(rng, 12)
            build_array(p, Policy.AUTO)
        for p in ladder_families():
            for policy in POLICIES:
                try:
                    build_array(p, policy)
                except PolicyUnsupported:
                    pass
        for n in range(1, 49):
            build_array(Polynomial([1] * (n + 1)), Policy.EPSILON_ROW)
        assert calls["gcd"] > 10000
        assert calls["prs"] == 0
