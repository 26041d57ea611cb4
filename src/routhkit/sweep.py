"""Single-parameter stability sweep: classic gain-range determination.

One coefficient position in a descending list holds the literal `K`; the
sweep substitutes N exact rational samples over [lo, hi], classifies each,
and merges consecutive Stable samples into intervals.  A sample whose
degree falls below the template's (a zero K in the leading slot) belongs
to another polynomial family and reads Undetermined.  Interval endpoints
are the first and last stable sample values, i.e. accurate to one step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import MultipleParameters, NoParameter
from .polynomial import Polynomial, parse_coefficient_list
from .routh import Policy, Verdict, classify


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

    samples: list[tuple[Fraction, str]] = []
    span = hi - lo
    for i in range(steps):
        value = lo + span * Fraction(i, steps - 1)
        descending = [value if c is None else c for c in slots]
        poly = Polynomial(reversed(descending))
        if poly.is_zero or poly.degree < degree:
            samples.append((value, "Undetermined"))
            continue
        verdict = classify(poly, policy).verdict
        samples.append((value, verdict.value))

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
