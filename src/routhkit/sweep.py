"""Single-parameter stability sweep: classic gain-range determination.

One coefficient position in a descending list holds the literal `K`; the
sweep takes N exact rational samples over [lo, hi], gives each a verdict,
and merges consecutive Stable samples into intervals.  Interval endpoints
are the first and last stable sample values, i.e. accurate to one step.

Method.  The Routh first column is read from the leading Hurwitz minors,
computed once, over Z[K]: the template's coefficients over their common
denominator D, K standing for the polynomial D*K, go through the same
fraction-free recurrence (`intpoly.fraction_free_rows`) as
`routh.build_array`, with exact divisions in Z[K].  Its pivots are
Delta_m(K), the m-th leading minor of the Hurwitz matrix times D^m.  A
sample K = N/D' (unreduced, D' > 0) reads the sign of each of a_n(K) and
Delta_1(K) .. Delta_n(K) from one integer homogeneous Horner value.  When
none vanishes, the column entries are a_n, then Delta_m/(D Delta_{m-1})
(Delta_0 = 1): the signs do not change down the column exactly when a_n
and the odd minors share a sign and the even minors are positive.  The
sample is then Stable, and Unstable otherwise.

Why that is exact.  Each Delta_m(K) is a leading Hurwitz minor, a
determinant whose entries are the template's coefficients, so substituting
K = k commutes with it: Delta_m(k) is the minor of the sample's own
Hurwitz matrix.  If a_n(k) and every Delta_m(k) are nonzero, every pivot
Delta_m/Delta_{m-1} of the sample's array is nonzero and no event is
raised; the sample keeps the template's degree, and Delta_n = a_0
Delta_{n-1} rules out an origin root.  A negative leading coefficient only
negates every row.  The verdict is therefore the one `classify` gives,
under every policy.

Fallback.  A sample at which a_n or some minor vanishes goes through
`classify` on its own polynomial; a minor that is the zero polynomial, as
in `1,0,K` (an all-zero row included), vanishes at every sample.  On that
path a sample whose degree falls below the template's (a zero K in the
leading slot) belongs to another polynomial family, and a sample that the
policy refuses has no verdict; both read Undetermined.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import groupby
from math import lcm
from typing import NamedTuple, Optional

from .errors import MultipleParameters, NoParameter, PolicyUnsupported
from .intpoly import eval_homogeneous, fraction_free_rows
from .polynomial import Polynomial, check_degree, parse_coefficient_list
from .routh import Policy, Verdict, classify


class SweepResult(NamedTuple):
    parameter: str
    lo: Fraction
    hi: Fraction
    steps: int
    intervals: tuple[tuple[Fraction, Fraction], ...]
    samples: tuple[tuple[Fraction, str], ...]


def parse_template(text: str) -> list[Optional[Fraction]]:
    """Descending coefficient list with exactly one None at the K slot."""
    slots = parse_coefficient_list(text, placeholder="K")
    k_count = slots.count(None)
    if k_count == 0:
        raise NoParameter("sweep template must contain one K coefficient")
    if k_count > 1:
        raise MultipleParameters(f"found {k_count} K coefficients, expected one")
    return slots


def _column_polynomials(descending: list) -> list[list[int]]:
    """a_n and the leading Hurwitz minors Delta_1 .. Delta_n of the template,
    as integer polynomials in K scaled by powers of D (see the module
    docstring), up to the first that is the zero polynomial."""
    d = lcm(*(c.denominator for c in descending if c is not None))
    ints = [[0, d] if c is None else [c.numerator * (d // c.denominator)] if c
            else [] for c in descending]
    if len(ints) == 1:
        return ints
    return [row[0] for row in
            fraction_free_rows(ints[0::2], ints[1::2])]


def _classified(slots: list[Optional[Fraction]], value: Fraction, degree: int,
                policy: Policy) -> str:
    """Verdict of one sample through `classify` on its own polynomial."""
    poly = Polynomial(reversed([value if c is None else c for c in slots]))
    if poly.is_zero or poly.degree < degree:
        return Verdict.UNDETERMINED.value
    try:
        return classify(poly, policy).verdict.value
    except PolicyUnsupported:
        return Verdict.UNDETERMINED.value


def run_sweep(template_text: str, lo: Fraction, hi: Fraction, steps: int,
              policy: Policy = Policy.AUTO) -> SweepResult:
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if hi <= lo:
        raise ValueError("range must satisfy lo < hi")
    slots = parse_template(template_text)
    # the highest slot holding K or a nonzero literal fixes the degree
    lead = next(i for i, c in enumerate(slots) if c is None or c)
    degree = len(slots) - 1 - lead
    check_degree(degree)
    polys = _column_polynomials(slots[lead:])

    # sample i is (lo*(m - i) + hi*i)/m with m = steps - 1, written as N/D
    m = steps - 1
    lo_n, hi_n = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    d = lo.denominator * hi.denominator * m
    samples: list[tuple[Fraction, str]] = []
    for i in range(steps):
        n = lo_n * (m - i) + hi_n * i
        value = Fraction(n, d)
        values = [eval_homogeneous(p, n, d) for p in polys]
        if all(values):
            # no sign change down a_n, Delta_1, Delta_2/Delta_1, ...: a_n
            # and the odd minors share a sign, and the even ones are positive
            negative = values[0] < 0
            stable = (all((v < 0) == negative for v in values[1::2])
                      and all(v > 0 for v in values[2::2]))
            verdict = (Verdict.STABLE if stable else Verdict.UNSTABLE).value
        else:
            verdict = _classified(slots, value, degree, policy)
        samples.append((value, verdict))

    runs = [[value for value, _ in run] for stable, run in
            groupby(samples, lambda sample: sample[1] == Verdict.STABLE.value)
            if stable]
    return SweepResult(parameter="K", lo=lo, hi=hi, steps=steps,
                       intervals=tuple((run[0], run[-1]) for run in runs),
                       samples=tuple(samples))
