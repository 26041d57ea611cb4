"""Randomized differential verification: exact Routh count vs numeric oracle.

Polynomials are built from known roots so the expected right-half-plane
count is available three ways at once: from the construction, from the
array, and from the root solver.  Roots are distinct, conjugate-closed grid
points with |Re| >= 1/4 and magnitude <= 5; the grid spacing is 1/4 up to
degree 9 and 1/2 above (coefficient denominators then divide 4^9 or 2^12,
both under the 10**6 rounding bound, so the monic expansion stays exact).
Well-separated roots also keep the solver fast and the floating-point
half-plane classification unambiguous.

Randomness comes from a self-contained 64-bit linear congruential
generator, so identical seeds give identical corpora on every platform:

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64

and each draw uses the high 32 bits of the new state.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .errors import PolicyUnsupported
from .polynomial import Polynomial
from .routh import Policy, classify

_LCG_MUL = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1

#: The remedy policy every corpus polynomial is classified under.
POLICY = Policy.AUTO


class Lcg64:
    """Deterministic 64-bit linear congruential generator."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _LCG_MASK

    def next_u32(self) -> int:
        self.state = (_LCG_MUL * self.state + _LCG_INC) & _LCG_MASK
        return self.state >> 32

    def randint(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] via modulo reduction."""
        return lo + self.next_u32() % (hi - lo + 1)


def random_roots(rng: Lcg64, degree: int, lhp_only: bool = False) -> list[complex]:
    """Distinct grid roots, conjugate-closed, |Re| >= 1/grid, |z| <= 5."""
    grid = 4 if degree <= 9 else 2
    span = 3 * grid          # components range over +-[1/grid, 3]
    real_span = span + grid // 2     # real roots reach 3.5
    free_reals = real_span if lhp_only else 2 * real_span
    roots: list[complex] = []
    used: set[tuple[int, int]] = set()     # grid numerators of (re, im)
    remaining = degree
    while remaining:
        # an even remainder takes a pair once fewer than two real grid
        # points are free, so an odd remainder always has one left
        as_pair = remaining >= 2 and (rng.randint(0, 1) == 1
                                      or (remaining % 2 == 0 and free_reals < 2))
        while True:
            sign = -1 if lhp_only or rng.randint(0, 1) == 0 else 1
            if as_pair:
                key = (sign * rng.randint(1, span), rng.randint(1, span))
            else:
                key = (sign * rng.randint(1, real_span), 0)
            if key not in used:
                used.add(key)
                break
        # exact: grid is a power of two
        re, im = key[0] / grid, key[1] / grid
        if as_pair:
            roots.append(complex(re, im))
            roots.append(complex(re, -im))
            remaining -= 2
        else:
            roots.append(complex(re, 0.0))
            free_reals -= 1
            remaining -= 1
    return roots


def random_polynomial(rng: Lcg64, max_degree: int,
                      lhp_only: bool = False) -> tuple[Polynomial, list[complex]]:
    degree = rng.randint(2, max_degree)
    roots = random_roots(rng, degree, lhp_only)
    return Polynomial.from_roots(roots), roots


class Disagreement(NamedTuple):
    polynomial: str
    routh_rhp: int
    oracle_rhp: int
    expected_rhp: int
    roots: tuple[complex, ...]
    events: tuple[str, ...]


class CorpusSummary(NamedTuple):
    """The tallies of one corpus run; counts in order of first occurrence."""

    count: int
    max_degree: int
    seed: int
    lhp_only: bool
    agreements: int
    disagreements: tuple[Disagreement, ...]
    event_counts: dict[str, int]
    verdict_counts: dict[str, int]
    polynomials_with_events: int
    nonpositive_first_columns: int

    @property
    def all_agree(self) -> bool:
        return self.agreements == self.count


def run_corpus(count: int, max_degree: int, seed: int,
               lhp_only: bool = False) -> CorpusSummary:
    """Classify `count` random polynomials under `POLICY` and tally oracle
    agreement.

    A polynomial counts as agreeing only when the array's count, the
    oracle's count, and the count known from the constructed roots all
    coincide; anything else is recorded verbatim as a disagreement.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 2 <= max_degree <= 12:
        raise ValueError("max_degree must be between 2 and 12")

    rng = Lcg64(seed)
    agreements = with_events = nonpositive = 0
    disagreements: list[Disagreement] = []
    events: Counter[str] = Counter()
    verdicts: Counter[str] = Counter()
    for _ in range(count):
        poly, roots = random_polynomial(rng, max_degree, lhp_only)
        try:
            report = classify(poly, POLICY, with_oracle=True)
        except PolicyUnsupported as exc:
            # not observed with the formal infinitesimal, but a policy
            # refusal must surface as a counterexample, not a crash
            disagreements.append(Disagreement(
                polynomial=str(poly), routh_rhp=-1,
                oracle_rhp=-1, expected_rhp=sum(1 for r in roots if r.real > 0),
                roots=tuple(roots), events=(f"PolicyUnsupported: {exc}",)))
            continue
        oracle = report.oracle_check
        expected = sum(1 for r in roots if r.real > 0)

        kinds = tuple(ev.kind.value for ev in report.events)
        with_events += bool(kinds)
        events.update(kinds)
        verdicts[report.verdict.value] += 1
        nonpositive += any(s <= 0 for s in report.first_column_signs)

        if oracle.agreement and report.rhp_count == expected:
            agreements += 1
        else:
            # an oracle that cannot run has no count: the draw is recorded
            # with the reason, as a policy refusal is
            if oracle.counts is None:
                kinds += (f"OracleUnavailable: {oracle.unavailable}",)
            disagreements.append(Disagreement(
                polynomial=str(poly),
                routh_rhp=report.rhp_count,
                oracle_rhp=-1 if oracle.counts is None else oracle.counts.rhp,
                expected_rhp=expected,
                roots=tuple(roots),
                events=kinds))
    return CorpusSummary(count, max_degree, seed, lhp_only, agreements,
                         tuple(disagreements), dict(events), dict(verdicts),
                         with_events, nonpositive)
