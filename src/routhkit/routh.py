"""Routh array construction, degenerate-row remedies, and the stability verdict.

The array for a degree-n polynomial has n+1 rows labelled by powers s^n down
to s^0; the row of power p holds floor(p/2)+1 entries.  The first two rows
interleave the coefficients (even and odd offsets from the leading term);
each later entry follows the cross-multiplication rule

    r[i][j] = (r[i-1][0]*r[i-2][j+1] - r[i-2][0]*r[i-1][j+1]) / r[i-1][0]

with entries beyond a row's width read as zero.  Entries live in the exact
field Q(e) of rational functions in a formal infinitesimal, so every sign in
the first column is decided exactly in the limit e -> 0+.

Two degeneracies can interrupt the recurrence, checked in this order the
moment a row is formed:

* a row that is entirely zero;
* a row whose first entry is zero but which is not entirely zero.

How each is repaired is the selectable :class:`Policy`:

* ``SINGLE_EPSILON`` substitutes e for a zero first entry and refuses a
  fully zero row.
* ``EPSILON_ROW`` substitutes e for a zero first entry and replaces *every*
  entry of a fully zero row with e.
* ``DERIVATIVE_ROW`` (the classical remedy, also used by ``AUTO``)
  substitutes e for a zero first entry; a fully zero row is replaced by the
  coefficients of the derivative of the auxiliary polynomial formed from the
  row above.

The number of sign changes down the first column equals the number of roots
in the open right half-plane.

Until the first degenerate row the array is built in integers, each row a
list of integers over one positive denominator (the form `Polynomial` holds
as `_ints` over `_denom`); the denominator being positive, an entry's sign
is its integer's sign.  At the first all-zero row or zero first entry the
rows built so far become Fractions and the recurrence goes on in Q(e).
`RouthArray` keeps the rows as built and lifts them into EpsRat on reading.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Optional, Sequence

from .errors import (DegreeTooSmall, EpsContaminatedRow, OracleUnavailable,
                     OriginRoot, PolicyUnsupported)
from .exact_arith import EPSILON, EpsRat
from .polynomial import Polynomial
from .root_oracle import HalfPlaneCounts, RootSet, find_roots, half_plane_counts


class Policy(Enum):
    """Degenerate-case remedy selection; values double as CLI names."""

    SINGLE_EPSILON = "single-eps"
    EPSILON_ROW = "eps-row"
    DERIVATIVE_ROW = "derivative"
    AUTO = "auto"


class EventKind(Enum):
    ZERO_FIRST_ELEMENT = "ZeroFirstElement"
    ZERO_ROW = "ZeroRow"
    LEADING_SIGN_FLIP = "LeadingSignFlip"
    ORIGIN_ROOTS_STRIPPED = "OriginRootsStripped"


class Verdict(Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    MARGINAL_OR_SYMMETRIC = "MarginalOrSymmetric"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class SpecialEvent:
    """One degeneracy (or input normalization) and the remedy applied.

    `row_power` is the s-power label of the affected row, or None for
    polynomial-level events (sign flip, origin-root stripping).
    """

    kind: EventKind
    row_power: Optional[int]
    remedy: str


@dataclass(frozen=True)
class RouthArray:
    """The array as built: `built` holds one (entries, denominator) pair
    per row, integer entries over a positive denominator on an event-free
    array, or Fraction and EpsRat entries over 1 once an event happened.
    `rows` lifts them into EpsRat on first read."""

    degree: int
    built: tuple[tuple[list, int], ...]
    events: tuple[SpecialEvent, ...]
    policy: Policy

    @cached_property
    def rows(self) -> tuple[tuple[EpsRat, ...], ...]:
        return tuple(_lift(row, d) for row, d in self.built)

    @property
    def first_column(self) -> tuple[EpsRat, ...]:
        return tuple(row[0] for row in self.rows)

    def row_power(self, index: int) -> int:
        return self.degree - index


@dataclass(frozen=True)
class OracleSummary:
    """Independent numeric cross-check attached to a report.

    When the float oracle cannot run on the polynomial, `unavailable` holds
    the reason and the other fields are None.
    """

    root_set: Optional[RootSet]
    counts: Optional[HalfPlaneCounts]
    agreement: Optional[bool]
    unavailable: Optional[str] = None


@dataclass(frozen=True)
class StabilityReport:
    first_column_signs: tuple[int, ...]
    sign_changes: int
    rhp_count: int
    verdict: Verdict
    events: tuple[SpecialEvent, ...]
    oracle_check: Optional[OracleSummary]
    array: RouthArray


def auxiliary_polynomial(row: Sequence[EpsRat | Fraction], power: int) -> Polynomial:
    """Polynomial sum(row[j] * s^(power - 2j)) built from an eps-free row.

    This is the polynomial whose derivative repairs a fully zero row; a row
    already carrying e has no rational coefficients to offer, which is
    reported as EpsContaminatedRow.
    """
    coeffs = [Fraction(0)] * (power + 1)
    for j, entry in enumerate(row):
        k = power - 2 * j
        if k < 0:
            raise ValueError(f"row of {len(row)} entries is too long for power {power}")
        if isinstance(entry, EpsRat):
            if not entry.is_eps_free:
                raise EpsContaminatedRow(
                    f"entry {entry} of the s^{power} auxiliary row is not eps-free")
            entry = entry.as_fraction()
        coeffs[k] = entry
    return Polynomial(coeffs)


def build_array(p: Polynomial, policy: Policy = Policy.AUTO) -> RouthArray:
    """Build the full Routh array of p under the given policy.

    Requires degree >= 1, a nonzero constant term (strip origin roots
    first), and a positive leading coefficient (flip the sign first).
    """
    if p.is_zero or p.degree < 1:
        raise DegreeTooSmall("array construction needs degree >= 1")
    if not p._ints[0]:
        raise OriginRoot("constant term is zero; strip origin roots first")
    if p._ints[-1] < 0:
        raise ValueError("leading coefficient must be positive; normalize first")

    n = p.degree
    top, d = p._ints[::-1], p._denom
    rows = [(top[0::2], d), (top[1::2], d)]
    # row i+2 from rows i and i+1 over the integers, while no event happens
    while rows[-1][0][0] and len(rows) <= n:
        (f2, d2), (f1, _) = rows[-2], rows[-1]
        head, pivot = f2[0], f1[0]
        g = [pivot * b - head * a for b, a in zip(f2[1:], f1[1:])]
        g += [pivot * b for b in f2[len(f1):]]
        den = d2 * pivot
        if den < 0:
            den, g = -den, [-x for x in g]
        c = gcd(den, *g)
        rows.append(([x // c for x in g], den // c))

    events: list[SpecialEvent] = []
    if not rows[-1][0][0]:
        # the first degenerate row: go on in Q(e).  Entries stay plain
        # Fractions unless e reaches them, so a row may hold Fractions
        # beside the EpsRats a remedy brought in; the EpsRat operators,
        # reflected ones included, coerce them.
        rows = [[Fraction(x, d) for x in row] for row, d in rows]
        power = n + 1 - len(rows)
        _remediate(rows[-1], power, rows[-2], policy, events)
        for power in range(power - 1, -1, -1):
            row = cross_multiply(rows[-2], rows[-1])
            _remediate(row, power, rows[-1], policy, events)
            rows.append(row)
        rows = [(row, 1) for row in rows]

    if not all(row[0] for row, _ in rows):
        raise ArithmeticError("a first-column entry is zero after the remedies")
    return RouthArray(degree=n, built=tuple(rows), events=tuple(events),
                      policy=policy)


def cross_multiply(above2: Sequence, above: Sequence) -> list:
    """The row that follows `above2` and `above` by the cross-multiplication
    rule, using only field arithmetic.  An entry past the end of `above`
    reads as zero, which leaves the entry of `above2` unchanged; the row
    after the s^0 row comes out empty."""
    head, pivot = above2[0], above[0]
    row = [(pivot * r2 - head * r1) / pivot
           for r2, r1 in zip(above2[1:], above[1:])]
    row += above2[len(above):]
    return row


def _lift(row, d: int) -> tuple[EpsRat, ...]:
    return tuple(x if isinstance(x, EpsRat) else EpsRat.from_rational(Fraction(x, d))
                 for x in row)


def _remediate(row: list, power: int, above: Sequence, policy: Policy,
               events: list[SpecialEvent]) -> None:
    """Repair a degenerate row in place, recording one event."""
    if not any(row):
        if policy is Policy.SINGLE_EPSILON:
            raise PolicyUnsupported(
                f"single-eps policy cannot handle the all-zero s^{power} row")
        if policy is Policy.EPSILON_ROW:
            row[:] = [EPSILON] * len(row)
            events.append(SpecialEvent(EventKind.ZERO_ROW, power,
                                       "replaced every entry with e"))
            return
        aux = auxiliary_polynomial(above, power + 1)
        deriv = aux.derivative()
        row[:] = [deriv.coeff(power - 2 * j) for j in range(len(row))]
        events.append(SpecialEvent(
            EventKind.ZERO_ROW, power,
            f"substituted coefficients of derivative {deriv} "
            f"of auxiliary polynomial {aux}"))
    elif not row[0]:
        row[0] = EPSILON
        events.append(SpecialEvent(EventKind.ZERO_FIRST_ELEMENT, power,
                                   "replaced leading zero with e"))


def count_sign_changes(array: RouthArray) -> tuple[tuple[int, ...], int]:
    """First-column signs (each +1/-1) and the number of adjacent flips."""
    signs = tuple(row[0].sign() if isinstance(row[0], EpsRat)
                  else 1 if row[0] > 0 else -1 for row, _ in array.built)
    changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    return signs, changes


def classify(p: Polynomial, policy: Policy = Policy.AUTO,
             with_oracle: bool = False) -> StabilityReport:
    """Full analysis: normalize, build the array, count sign changes, judge.

    The verdict is Stable only for an event-free all-positive first column;
    a zero row or stripped origin roots with no sign changes yields
    MarginalOrSymmetric (symmetric or imaginary-axis roots are present, so
    asymptotic stability is ruled out even without right-half-plane roots).
    """
    if p.is_zero:
        raise ValueError("cannot classify the zero polynomial")

    events: list[SpecialEvent] = []
    k, q = p.strip_origin_roots()
    if k:
        mono = "s" if k == 1 else f"s^{k}"
        events.append(SpecialEvent(EventKind.ORIGIN_ROOTS_STRIPPED, None,
                                   f"factored out {mono}"))
    if q._ints[-1] < 0:
        q = -q
        events.append(SpecialEvent(EventKind.LEADING_SIGN_FLIP, None,
                                   "multiplied polynomial by -1"))

    if q.degree == 0:
        array = RouthArray(degree=0, built=((q._ints, q._denom),),
                           events=(), policy=policy)
    else:
        array = build_array(q, policy)

    signs, changes = count_sign_changes(array)
    all_events = tuple(events) + array.events

    if changes > 0:
        verdict = Verdict.UNSTABLE
    elif any(ev.kind in (EventKind.ZERO_ROW, EventKind.ORIGIN_ROOTS_STRIPPED)
             for ev in all_events):
        verdict = Verdict.MARGINAL_OR_SYMMETRIC
    else:
        verdict = Verdict.STABLE

    return StabilityReport(first_column_signs=signs,
                           sign_changes=changes,
                           rhp_count=changes,
                           verdict=verdict,
                           events=all_events,
                           oracle_check=(oracle_summary(p, changes)
                                         if with_oracle else None),
                           array=array)


def oracle_summary(p: Polynomial, rhp_count: Optional[int] = None) -> OracleSummary:
    """The float root oracle's view of p.  `agreement` says whether its RHP
    count equals `rhp_count`; it is None when no count is given or when the
    oracle is unavailable."""
    try:
        root_set = (find_roots(p) if p.degree >= 1
                    else RootSet(roots=(), max_residual=0.0, converged=True))
    except OracleUnavailable as exc:
        return OracleSummary(root_set=None, counts=None, agreement=None,
                             unavailable=str(exc))
    counts = half_plane_counts(root_set)
    agreement = None if rhp_count is None else counts.rhp == rhp_count
    return OracleSummary(root_set=root_set, counts=counts, agreement=agreement)
