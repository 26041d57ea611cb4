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

How the array is stored.  The rows are built by the fraction-free
recurrence `intpoly.fraction_free_rows`, whose docstring derives it: stored
row k is F_k, its pivots Delta_k = F_k[0] are the leading minors of the
Hurwitz matrix of p's integer coefficients (`_ints`, over the denominator
d), and the true row k is F_k/(d Delta_{k-1}).

Entries are integers until e enters the array.  A repair starts a new
segment of the same recurrence from the row above and the repaired row,
over Z until e enters and over Z[e] (integer coefficient lists in e) from
then on.  Each of the two is divided by the gcd of its entries and its
divisor, so its divisor P is the lcm of its entries' reduced denominators,
and the segment's row m is F_m/(P Delta_{m-1}), P being the divisor of the
start row of m's parity and Delta the segment's own pivots.
`RouthArray.built` holds each row as (F, divisor); a sign is
sign(F[0]) * sign(divisor), each the limit as e -> 0+, and `rows` builds
the canonical EpsRat of each entry when read.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd
from typing import TYPE_CHECKING, Any, NamedTuple, Optional, Sequence

from .errors import (DegreeTooSmall, EpsContaminatedRow, OracleUnavailable,
                     OriginRoot, PolicyUnsupported)
from .intpoly import cancel_gcd, fraction_free_rows, lowest_nonzero, poly_mul
from .polynomial import Polynomial

if TYPE_CHECKING:
    from .exact_arith import EpsRat
    from .root_oracle import HalfPlaneCounts, RootSet


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


class SpecialEvent(NamedTuple):
    """One degeneracy (or input normalization) and the remedy applied.

    `row_power` is the s-power label of the affected row, or None for
    polynomial-level events (sign flip, origin-root stripping).
    """

    kind: EventKind
    row_power: Optional[int]
    remedy: str


class RouthArray:
    """The array as built: `built` holds one (entries, divisor) pair per
    row, the true entries being entry/divisor.  Both are integers until e
    enters the array and integer coefficient lists in e from then on.
    `rows` and `first_column` build the canonical EpsRat of each entry on
    every read."""

    def __init__(self, degree: int, built: tuple[tuple[list, Any], ...],
                 events: tuple[SpecialEvent, ...], policy: Policy):
        self.degree = degree
        self.built = built
        self.events = events
        self.policy = policy

    @property
    def rows(self) -> tuple[tuple[EpsRat, ...], ...]:
        return tuple(_entries(row, div) for row, div in self.built)

    @property
    def first_column(self) -> tuple[EpsRat, ...]:
        return tuple(_entries(row[:1], div)[0] for row, div in self.built)

    def row_power(self, index: int) -> int:
        return self.degree - index


class OracleSummary(NamedTuple):
    """Independent numeric cross-check attached to a report.

    When the float oracle cannot run on the polynomial, `unavailable` holds
    the reason and the other fields are None.
    """

    root_set: Optional[RootSet]
    counts: Optional[HalfPlaneCounts]
    agreement: Optional[bool]
    unavailable: Optional[str] = None


class StabilityReport(NamedTuple):
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
        if not isinstance(entry, (int, Fraction)):
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
    f0, f1, scales = top[0::2], top[1::2], (d, d)
    built: list[tuple[list, Any]] = []
    events: list[SpecialEvent] = []
    while True:
        # one segment: its row m is F_m over scales[m % 2] * Delta_{m-1}
        times = int.__mul__ if type(scales[0]) is int else poly_mul
        chain = fraction_free_rows(f0, f1)
        built += [(f, scales[m & 1] if m < 2
                   else times(scales[m & 1], chain[m - 1][0]))
                  for m, f in enumerate(chain)]
        if built[-1][0][0]:
            return RouthArray(degree=n, built=tuple(built), events=tuple(events),
                              policy=policy)
        f0, f1, scales = _restart(built, n + 1 - len(built), policy, events)


def _restart(built: list, power: int, policy: Policy,
             events: list[SpecialEvent]) -> tuple[list, list, tuple]:
    """Repair the degenerate last row of `built` (the s^power row),
    recording one event, and take it and the row above off `built`.

    Returns the two as the start of a new segment, each divided by the gcd
    of its entries and its divisor, with the divisors made positive as
    e -> 0+: so each divisor is the lcm of the reduced denominators of its
    row's entries.  The segment runs over Z until e enters the array and
    over Z[e] from then on; the repair works on the stored integers.
    """
    (above, p_above), (row, p_row) = built[-2:]
    del built[-2:]
    above, p_above = _reduced(above, p_above)
    if any(row):
        row, p_row = _in_e(row, p_row)
        row = [[0, *p_row], *row[1:]]
        events.append(SpecialEvent(EventKind.ZERO_FIRST_ELEMENT, power,
                                   "replaced leading zero with e"))
    elif policy is Policy.SINGLE_EPSILON:
        raise PolicyUnsupported(
            f"single-eps policy cannot handle the all-zero s^{power} row")
    elif policy is Policy.EPSILON_ROW:
        row, p_row = [[0, 1]] * len(row), [1]
        events.append(SpecialEvent(EventKind.ZERO_ROW, power,
                                   "replaced every entry with e"))
    else:
        ints, div = above, p_above
        if type(div) is not int:
            # reduced, the row is e-free exactly when all of it is constant
            if len(div) > 1 or any(len(x) > 1 for x in above):
                auxiliary_polynomial(_entries(above, div), power + 1)  # raises
            ints, div = [x[0] if x else 0 for x in above], div[0]
        coeffs = [0] * (power + 2)
        coeffs[power + 1::-2] = ints
        aux = Polynomial._raw(coeffs, div)
        deriv = aux.derivative()
        row, p_row = deriv._ints[power::-2], deriv._denom
        events.append(SpecialEvent(
            EventKind.ZERO_ROW, power,
            f"substituted coefficients of derivative {deriv} "
            f"of auxiliary polynomial {aux}"))
    row, p_row = _reduced(row, p_row)
    if type(p_above) is not type(p_row):
        # one of the two carries e: the segment runs over Z[e]
        (above, p_above), (row, p_row) = _in_e(above, p_above), _in_e(row, p_row)
    return above, row, (p_above, p_row)


def _reduced(row: list, div) -> tuple[list, Any]:
    """A row and its divisor over their gcd in Z or in Z[e], the divisor
    positive as e -> 0+."""
    if type(div) is int:
        g = gcd(*row, div) if div > 0 else -gcd(*row, div)
        return [x // g for x in row], div // g
    *row, div = cancel_gcd([*row, div])
    if lowest_nonzero(div) < 0:
        row, div = [[-c for c in x] for x in row], [-c for c in div]
    return row, div


def _in_e(row: list, div) -> tuple[list, list[int]]:
    """A row and its divisor in Z[e]; one there already is returned as is."""
    return ([[x] if x else [] for x in row], [div]) if type(div) is int else (row, div)


def _entries(row: list, div) -> tuple[EpsRat, ...]:
    """The canonical values of a stored row's entries over its divisor."""
    # the field Q(e) is loaded when an entry is first read: building an
    # array, its signs and its verdict never need it
    from .exact_arith import EpsPoly, EpsRat
    if type(div) is int:
        return tuple(EpsRat.from_rational(Fraction(x, div)) for x in row)
    den = EpsPoly._raw(div, 1)
    return tuple(EpsRat(EpsPoly._raw(x, 1), den) for x in row)


def count_sign_changes(array: RouthArray) -> tuple[tuple[int, ...], int]:
    """First-column signs (each +1/-1) and the number of adjacent flips."""
    column = []
    for row, div in array.built:
        x = row[0]
        if type(div) is not int:
            x, div = lowest_nonzero(x), lowest_nonzero(div)
        column.append(1 if (x > 0) == (div > 0) else -1)
    signs = tuple(column)
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
    # imported on call: analyses without the oracle never load it
    from .root_oracle import RootSet, find_roots, half_plane_counts
    try:
        root_set = (find_roots(p) if p.degree >= 1
                    else RootSet(roots=(), max_residual=0.0, converged=True))
    except OracleUnavailable as exc:
        return OracleSummary(root_set=None, counts=None, agreement=None,
                             unavailable=str(exc))
    counts = half_plane_counts(root_set)
    agreement = None if rhp_count is None else counts.rhp == rhp_count
    return OracleSummary(root_set=root_set, counts=counts, agreement=agreement)
