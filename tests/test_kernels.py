"""Differential checks of the integer kernels against plain exact references.

`build_array` runs the fraction-free Routh recurrence in integer rows until
the first degenerate row and in Z[e] rows after it, and
`Polynomial.from_roots` expands over the integers; both must give exactly
what the textbook formulas give over EpsRat and Fraction.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from routhkit import (EPSILON, EpsContaminatedRow, EpsRat, EventKind, Lcg64,
                      Policy, PolicyUnsupported, Polynomial, SpecialEvent,
                      auxiliary_polynomial, build_array, classify,
                      count_sign_changes, hurwitz_matrix, hurwitz_stable,
                      leading_minors)
from routhkit.corpus import random_polynomial, random_roots
from routhkit import exact_arith, intpoly, routh
from routhkit.intpoly import (bridge_gap, fraction_free_rows, sylvester_row,
                              sylvester_row_poly)
from conftest import ladder_families

POLICIES = (Policy.SINGLE_EPSILON, Policy.EPSILON_ROW, Policy.DERIVATIVE_ROW)


def reference_remedy(row: list, power: int, above: tuple, policy: Policy,
                     events: list) -> None:
    """The remedies of the textbook, over EpsRat, repairing `row` in place.
    A zero row under the derivative rule becomes d/ds of the auxiliary
    polynomial sum above[j] s^(power + 1 - 2j), that is
    (power + 1 - 2j) * above[j]."""
    if not any(row):
        if policy is Policy.SINGLE_EPSILON:
            raise PolicyUnsupported(f"all-zero s^{power} row")
        if policy is Policy.EPSILON_ROW:
            row[:] = [EPSILON] * len(row)
            events.append(SpecialEvent(EventKind.ZERO_ROW, power,
                                       "replaced every entry with e"))
            return
        if not all(e.is_eps_free for e in above):
            raise EpsContaminatedRow(f"s^{power + 1} row carries e")
        aux = [Fraction(0)] * (power + 2)
        for j, e in enumerate(above):
            aux[power + 1 - 2 * j] = e.as_fraction()
        deriv = [k * c for k, c in enumerate(aux)][1:]
        row[:] = [EpsRat.from_rational(deriv[power - 2 * j])
                  for j in range(len(row))]
        events.append(SpecialEvent(
            EventKind.ZERO_ROW, power,
            f"substituted coefficients of derivative {Polynomial(deriv)} "
            f"of auxiliary polynomial {Polynomial(aux)}"))
    elif not row[0]:
        row[0] = EPSILON
        events.append(SpecialEvent(EventKind.ZERO_FIRST_ELEMENT, power,
                                   "replaced leading zero with e"))


def reference_array(p: Polynomial, policy: Policy):
    """Rows and events by the cross-multiplication rule, entry by entry
    over EpsRat, with the remedies above."""
    n, rows, events = p.degree, [], []
    for power in range(n, -1, -1):
        if power >= n - 1:
            row = [EpsRat.from_rational(p.coeff(power - 2 * j)) for j in range(power // 2 + 1)]
        else:
            a2, a1 = rows[-2], rows[-1]
            row = [(a1[0] * a2[j + 1] - a2[0] * (a1[j + 1] if j + 1 < len(a1) else 0)) / a1[0]
                   for j in range(power // 2 + 1)]
        if power < n:
            reference_remedy(row, power, rows[-1], policy, events)
        rows.append(tuple(row))
    return tuple(rows), tuple(events)


def assert_matches_reference(p: Polynomial, policy: Policy) -> None:
    try:
        rows, events = reference_array(p, policy)
    except PolicyUnsupported as exc:
        with pytest.raises(type(exc)):
            build_array(p, policy)
        return
    array = build_array(p, policy)
    # the signs come from the stored rows, before any EpsRat is built
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
def sparse_polynomials(draw) -> Polynomial:
    """Integer polynomials of degree <= 10 with nonzero a_0 and a_n and
    drawn coefficients in between forced to zero, so that zero first
    entries and zero rows come one after another and a chain restarts
    several times."""
    n = draw(st.integers(1, 10))
    coeffs = draw(st.lists(st.integers(-4, 4).filter(bool),
                           min_size=n + 1, max_size=n + 1))
    for k in draw(st.sets(st.integers(1, n - 1), max_size=n)) if n > 1 else ():
        coeffs[k] = 0
    return normalized(Polynomial(coeffs))


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
    at = [Fraction(0)] + draw(st.lists(rationals, min_size=m // 2, max_size=m // 2))
    return stacked_on(draw, at, m), m


def stacked_on(draw, at: list, m: int) -> Polynomial:
    """A polynomial whose array has the drawn s^(m+1) row and then `at` as
    its s^m row, after up to 8 drawn regular rows above them."""
    below = [draw(rationals.filter(bool))] + draw(
        st.lists(rationals, min_size=(m + 1) // 2, max_size=(m + 1) // 2))
    upper, lower = auxiliary_polynomial(below, m + 1), auxiliary_polynomial(at, m)
    for _ in range(draw(st.integers(0, 8))):
        c = draw(rationals.filter(bool))
        upper, lower = Polynomial([0, c]) * upper + lower, upper
    p = upper + lower
    assume(p.constant_term)
    return -p if p.leading_coefficient < 0 else p


@st.composite
def gap_after_prefix(draw) -> Polynomial:
    """p whose array, after up to 8 regular rows, has a row whose first
    g = 1..3 entries are zero and whose next entry is not."""
    g = draw(st.integers(1, 3))
    m = draw(st.integers(2 * g, 2 * g + 3))
    at = [Fraction(0)] * g + [draw(rationals.filter(bool))] + draw(
        st.lists(rationals, min_size=m // 2 - g, max_size=m // 2 - g))
    return stacked_on(draw, at, m)


def assert_minors_from_pivots(p: Polynomial) -> None:
    """hurwitz_stable's minors, read from the recurrence's pivots, equal
    the minors of the Hurwitz matrix by Bareiss elimination."""
    assert hurwitz_stable(p).minors == leading_minors(hurwitz_matrix(p))


class TestBuildArrayKernel:
    @settings(max_examples=300, deadline=None)
    @given(rational_polynomials())
    def test_matches_reference(self, p):
        for policy in POLICIES:
            assert_matches_reference(p, policy)
        assert_minors_from_pivots(p)

    @settings(max_examples=300, deadline=None)
    @given(sparse_polynomials())
    def test_sparse_matches_reference(self, p):
        for policy in Policy:
            assert_matches_reference(p, policy)
        assert_minors_from_pivots(p)

    @settings(max_examples=300, deadline=None)
    @given(degenerate_after_prefix())
    def test_handover_at_every_row(self, case):
        # the integer rows hand over to Z[e] at the s^m row, at row index
        # degree - m, which ranges over 1..9
        p, m = case
        array = build_array(p, Policy.DERIVATIVE_ROW)
        assert array.events[0].row_power == m
        # above the two hand-over rows, row k is the integer row F_k over
        # d * Delta_{k-1}, where Delta_k is the k-th leading minor of d
        # times the Hurwitz matrix (Delta_0 = Delta_-1 = 1) and F_k[0] is
        # Delta_k
        handover = p.degree - m - 1
        d = p._denom
        deltas = [1, 1] + [x * d ** k for k, x in
                           enumerate(leading_minors(hurwitz_matrix(p)), 1)]
        for k, (row, div) in enumerate(array.built[:handover]):
            assert all(type(x) is int for x in row)
            assert div == d * deltas[k]
            assert k == 0 or row[0] == deltas[k + 1]
        # e enters at the first zero first entry (a derivative remedy
        # brings in none): from the row above it on, every row is a list of
        # polynomials in e over a polynomial divisor, and above that every
        # row is an integer row
        e_rows = [p.degree - ev.row_power for ev in array.events
                  if ev.kind is EventKind.ZERO_FIRST_ELEMENT]
        first_e = e_rows[0] - 1 if e_rows else p.degree + 1
        for k, (row, div) in enumerate(array.built):
            form = list if k >= first_e else int
            assert all(type(x) is form for x in row)
            assert type(div) is form and div
        # the two rows that start the last segment have divisors positive
        # as e -> 0+
        last = p.degree - array.events[-1].row_power
        for _, div in array.built[last - 1:last + 1]:
            assert (div if type(div) is int else next(c for c in div if c)) > 0
        for policy in POLICIES:
            assert_matches_reference(p, policy)

    @pytest.mark.parametrize("policy", [Policy.EPSILON_ROW, Policy.DERIVATIVE_ROW])
    def test_reads_store_nothing(self, policy):
        # `rows` and `first_column` build EpsRats on every read and cache
        # nothing
        for p in ladder_families():
            array = build_array(p, policy)
            state = dict(vars(array))
            rows, column = array.rows, array.first_column
            assert column == tuple(row[0] for row in rows)
            assert array.rows == rows
            assert vars(array) == state

    def test_corpus_builds_eps_rats_on_read_only(self, monkeypatch):
        # classify reads the signs from the stored rows and repairs a zero
        # row from the stored integers: it builds no EpsRat at all until
        # `rows` is read
        built = {"entries": 0, "eps_rats": 0}
        entries, init, from_rational = (routh._entries, EpsRat.__init__,
                                        EpsRat.from_rational)

        def counting_entries(row, div):
            built["entries"] += len(row)
            return entries(row, div)

        def counting_init(self, num, den=1):
            built["eps_rats"] += 1
            init(self, num, den)

        def counting_from_rational(cls, value):
            built["eps_rats"] += 1
            return from_rational(value)

        monkeypatch.setattr(routh, "_entries", counting_entries)
        monkeypatch.setattr(EpsRat, "__init__", counting_init)
        monkeypatch.setattr(EpsRat, "from_rational",
                            classmethod(counting_from_rational))
        rng = Lcg64(7)
        reports = []
        for _ in range(1000):
            p, _ = random_polynomial(rng, 12)
            report = classify(p, Policy.AUTO, with_oracle=True)
            reports.append((p, report))
        assert built == {"entries": 0, "eps_rats": 0}
        assert sum(1 for _, r in reports if r.events) > 10
        assert sum(1 for _, r in reports
                   if any(ev.kind is EventKind.ZERO_ROW for ev in r.events)) > 10
        monkeypatch.undo()
        for p, report in reports:
            assert report.array.rows == reference_array(p, Policy.AUTO)[0]

    @pytest.mark.parametrize("p", [
        *(Polynomial([1] * (n + 1)) for n in range(2, 13)),
        *(Polynomial([1] + [0] * (n - 1) + [1]) for n in range(2, 11)),
        Polynomial([5, 10, 6, 3, 2, 1]),       # s^5+2s^4+3s^3+6s^2+10s+5
        Polynomial([1, 0, 2, 0, 1]),           # (s^2 + 1)^2
        # the derivative remedy under a row that carries e: e-free once
        # reduced, so repaired, and with e left in it, so refused
        Polynomial([1, 1, 2, 1, 0, 0, 0, 0, 1, 0, 1]),
        Polynomial([-1, 0, 0, -2, 0, 0, 1, 0, 0, 2]),
    ], ids=str)
    def test_degenerate_families(self, p):
        for policy in POLICIES:
            assert_matches_reference(p, policy)
        assert_minors_from_pivots(p)

    def test_corpus_draws(self):
        rng = Lcg64(20261018)
        for _ in range(200):
            p, _ = random_polynomial(rng, 12)
            assert_matches_reference(p, Policy.AUTO)
            assert_minors_from_pivots(p)


class TestSylvesterStep:
    """The fraction-free step divides exactly, and says so when it cannot."""

    # s^5 + 2s^4 + 3s^3 + 5s^2 + 7s + 11: its rows F_0..F_3 and pivots
    ROWS = fraction_free_rows([1, 3, 7], [2, 5, 11])

    def test_pivots_are_the_leading_minors(self):
        p = Polynomial([11, 7, 5, 3, 2, 1])
        assert [row[0] for row in self.ROWS[1:]] == \
            list(leading_minors(hurwitz_matrix(p)))

    def test_wrong_divisor_raises(self):
        f2, f1 = self.ROWS[2], self.ROWS[3]
        divisor = self.ROWS[1][0]
        assert sylvester_row(f2, f1, divisor) == self.ROWS[4]
        with pytest.raises(ArithmeticError):
            sylvester_row(f2, f1, divisor + 1)

    def test_wrong_divisor_raises_over_polynomials(self):
        # the same rows with 1 + x in place of 2: F_4 divides by F_1[0]
        rows = fraction_free_rows([[1], [3], [7]], [[1, 1], [5], [11]])
        f2, f1, divisor = rows[2], rows[3], rows[1][0]
        assert sylvester_row_poly(f2, f1, divisor) == rows[4]
        with pytest.raises(ArithmeticError):
            sylvester_row_poly(f2, f1, [2, 1])
        with pytest.raises(ArithmeticError):
            sylvester_row_poly(f2, f1, [3])


class TestGapStep:
    """`bridge_gap` carries the recurrence over a zero first entry with
    exact divisions, and says so when it cannot."""

    @settings(max_examples=300, deadline=None)
    @given(gap_after_prefix())
    def test_minors_after_a_gap(self, p):
        assert_minors_from_pivots(p)

    # s^9 + 3s^8 + 3s^6 - s^5 + 1: F_3 = (0, 0, 3, -3), a gap of two
    # entries at row 3 under Delta_2 = -3 and Delta_1 = 3
    ROWS = fraction_free_rows([1, 0, -1, 0, 0], [3, 3, 0, 0, 1])

    def test_rows_resume_the_recurrence(self):
        p = Polynomial([1, 0, 0, 0, 0, -1, 3, 0, 3, 1])
        minors = leading_minors(hurwitz_matrix(p))
        assert len(self.ROWS) == 4 and self.ROWS[3][:2] == [0, 0]
        g, delta, f0, f1 = bridge_gap(self.ROWS[2], self.ROWS[3],
                                      self.ROWS[2][0], self.ROWS[1][0])
        assert g == 2 and minors[3:5] == (0, 0)
        assert [delta, f0[0], f1[0]] == list(minors[5:8])
        rows = fraction_free_rows(f0, f1, pivots=(delta, f0[0]))
        assert rows[2][0] == minors[8]

    def test_wrong_divisor_raises(self):
        u, v, a, b = self.ROWS[2], self.ROWS[3], self.ROWS[2][0], self.ROWS[1][0]
        with pytest.raises(ArithmeticError):
            bridge_gap(u, v, a, b + 1)
        with pytest.raises(ArithmeticError):
            bridge_gap(u, v, a + 1, b)


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

        # one gcd per canonical entry read, and the gcds of the rows that
        # start a segment after a repair
        monkeypatch.setattr(exact_arith, "gcd_cofactors",
                            counting("gcd", exact_arith.gcd_cofactors))
        monkeypatch.setattr(intpoly, "gcd_cofactors",
                            counting("gcd", intpoly.gcd_cofactors))
        monkeypatch.setattr(intpoly, "_prs_gcd",
                            counting("prs", intpoly._prs_gcd))
        # the canonical form is reached when `rows` is read
        rng = Lcg64(7)
        for _ in range(1000):
            p, _ = random_polynomial(rng, 12)
            build_array(p, Policy.AUTO).rows
        for p in ladder_families():
            for policy in POLICIES:
                try:
                    build_array(p, policy).rows
                except PolicyUnsupported:
                    pass
        for n in range(1, 49):
            build_array(Polynomial([1] * (n + 1)), Policy.EPSILON_ROW).rows
        assert calls["gcd"] > 10000
        assert calls["prs"] == 0
