"""Single-parameter stability sweep: classic gain-range determination.

One coefficient position in a descending list holds the literal `K`; the
sweep takes N exact rational samples over [lo, hi], gives each a verdict,
and merges consecutive Stable samples into intervals.  Interval endpoints
are the first and last stable sample values, i.e. accurate to one step.

Method.  The Routh first column is built once, over Q(K): the `EpsRat`
field with its symbol standing for K, through `routh.cross_multiply`, the
step `routh.build_array` takes in Q(e), with field arithmetic and zero
tests only.  A sample K = N/D (unreduced, D > 0) then reads the sign of
every entry from one integer homogeneous Horner value of the product of
its reduced numerator and denominator, which vanishes exactly where one of
them does.
When no value vanishes, the sample is Unstable if the signs change down the
column and Stable otherwise.

Why that is exact.  Take the ring of rational functions in K whose reduced
denominator does not vanish at k.  The first two rows lie in it; if a pivot
is a unit there (numerator and denominator nonzero at k), the next row does
too, and substituting K = k commutes with the step.  So the array of the
sample is the symbolic array evaluated at k, and its first column has no
zero: no event is raised.  The column's first and last entries are a_n and
a_0, so the sample keeps the template's degree and has no origin root.  A
negative leading coefficient only negates every row.  The verdict is
therefore the one `classify` gives, under every policy.

Fallbacks.  A sample at which some numerator or denominator vanishes goes
through `classify` on its own polynomial.  A template whose symbolic column
meets a zero first entry (an all-zero row included), such as `1,0,K`, sends
every sample there.  On that path a sample whose degree falls below the
template's (a zero K in the leading slot) belongs to another polynomial
family, and a sample that the policy refuses has no verdict; both read
Undetermined.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import MultipleParameters, NoParameter, PolicyUnsupported
from .exact_arith import EPSILON, EpsRat, _int_eval_homogeneous
from .polynomial import Polynomial, parse_coefficient_list
from .routh import Policy, Verdict, classify, cross_multiply


@dataclass(frozen=True)
class SweepResult:
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


def _column_polynomials(descending: list) -> Optional[list[list[int]]]:
    """For each entry of the Routh first column over Q(K), the integer
    polynomial num*den in K, whose sign at a point is the entry's sign.
    None when the symbolic column meets a zero first entry."""
    entries = [EPSILON if c is None else EpsRat.from_rational(c) for c in descending]
    above, row = entries[0::2], entries[1::2]
    column = [above[0]]
    while row:
        if not row[0]:
            return None
        column.append(row[0])
        above, row = row, cross_multiply(above, row)
    return [(entry.num * entry.den)._ints for entry in column]


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
    polys = _column_polynomials(slots[lead:])

    # sample i is (lo*(m - i) + hi*i)/m with m = steps - 1, written as N/D
    m = steps - 1
    lo_n, hi_n = lo.numerator * hi.denominator, hi.numerator * lo.denominator
    d = lo.denominator * hi.denominator * m
    samples: list[tuple[Fraction, str]] = []
    for i in range(steps):
        n = lo_n * (m - i) + hi_n * i
        value = Fraction(n, d)
        signs = polys and [_int_eval_homogeneous(p, n, d) for p in polys]
        if signs and all(signs):
            changes = any((a < 0) != (b < 0) for a, b in zip(signs, signs[1:]))
            verdict = (Verdict.UNSTABLE if changes else Verdict.STABLE).value
        else:
            verdict = _classified(slots, value, degree, policy)
        samples.append((value, verdict))

    intervals: list[tuple[Fraction, Fraction]] = []
    run_start: Optional[Fraction] = None
    prev_value: Optional[Fraction] = None
    for value, verdict in samples:
        if verdict == Verdict.STABLE.value:
            if run_start is None:
                run_start = value
            prev_value = value
        elif run_start is not None:
            intervals.append((run_start, prev_value))
            run_start = None
    if run_start is not None:
        intervals.append((run_start, prev_value))

    return SweepResult(parameter="K", lo=lo, hi=hi, steps=steps,
                       intervals=tuple(intervals), samples=tuple(samples))
