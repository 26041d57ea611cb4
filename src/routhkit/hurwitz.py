"""Determinant route to stability: Hurwitz matrix and exact leading minors.

For a degree-n polynomial a_n s^n + ... + a_0 the n x n Hurwitz matrix is
H[i][j] = a_{n - 2j + i} (1-indexed; coefficients outside 0..n read as
zero).  The polynomial is stable exactly when all n leading principal
minors are positive.

`hurwitz_stable` reads the minors from the Routh recurrence itself.  The
polynomial holds integer coefficients over one positive denominator d
(`_ints` over `_denom`), so d times the Hurwitz matrix is an integer
matrix, and the k-th leading minor is its integer minor Delta_k over d^k.
These Delta_k are the pivots of the fraction-free Routh recurrence on those
integers (`intpoly.fraction_free_rows`), so one pass gives every minor.
The polynomial keeps that chain once built (`Polynomial._routh_chain`), and
the first segment of `routh.build_array` is the same chain: after
`classify`, `hurwitz_stable` runs no recurrence step until a zero first
entry or a zero row stops the chain.  The paper's two special cases stop
it at a zero pivot Delta_m = F_m[0] and need no determinant: after an
all-zero row F_m every minor is zero (by Sylvester's identity each is, up
to a power of Delta_{m-1} != 0, a determinant with F_m as a row), and a
zero first entry is bridged by one exact pseudo-division step,
`intpoly.bridge_gap`.

`leading_minors` takes any `ExactMatrix` and computes each leading minor
as its own determinant of the integer-scaled leading block, by Bareiss
elimination with row pivoting; it shares no code with the recurrence it
checks.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from typing import NamedTuple

from .errors import DegreeTooSmall
from .intpoly import bridge_gap, fraction_free_rows
from .polynomial import Polynomial


class ExactMatrix(NamedTuple):
    n: int
    entries: tuple[tuple[Fraction, ...], ...]


class HurwitzDecision(NamedTuple):
    stable: bool
    minors: tuple[Fraction, ...]


def hurwitz_matrix(p: Polynomial) -> ExactMatrix:
    if p.is_zero or p.degree < 1:
        raise DegreeTooSmall("Hurwitz matrix needs degree >= 1")
    if p._ints[-1] < 0:
        raise ValueError("leading coefficient must be positive; normalize first")
    n, a, d = p.degree, p._ints, p._denom
    return ExactMatrix(n=n, entries=tuple(
        tuple(Fraction(a[k], d) if 0 <= k <= n else Fraction(0)
              for k in range(n - 1 + i, -n - 1 + i, -2))
        for i in range(n)))


def leading_minors(m: ExactMatrix) -> tuple[Fraction, ...]:
    """Exact k x k leading principal minors for k = 1..n, each its own
    determinant."""
    scales = [lcm(*(c.denominator for c in row)) for row in m.entries]
    # row i of the matrix is work[i] / scales[i]
    work = [[c.numerator * (scale // c.denominator) for c in row]
            for row, scale in zip(m.entries, scales)]
    return tuple(Fraction(_det_int([row[:k] for row in work[:k]]),
                          prod(scales[:k])) for k in range(1, len(work) + 1))


def hurwitz_stable(p: Polynomial) -> HurwitzDecision:
    """Stable iff every leading principal minor is positive.

    The minors are the pivots of the fraction-free Routh recurrence on p's
    integer coefficients, read from the chain p keeps, which
    `routh.build_array` reads too.  A zero row ends them: every later
    minor is 0.
    A zero first entry is bridged by `bridge_gap`, and the recurrence
    resumes past it, so every minor comes from the one pass.
    `Polynomial._routh_chain` refuses an input that is not in Routh form.
    """
    rows = p._routh_chain()
    n, d = p.degree, p._denom
    ints = [row[0] for row in rows[1:]]
    while len(ints) < n and any(rows[-1]):
        b, a = ([1, 1] + ints)[-3:-1]   # Delta_{m-2}, Delta_{m-1}
        g, delta, f0, f1 = bridge_gap(rows[-2], rows[-1], a, b)
        ints += [0] * (2 * g - 2) + [delta, f0[0]]
        if len(ints) < n:
            rows = fraction_free_rows(f0, f1, pivots=(delta, f0[0]))
            ints += [row[0] for row in rows[1:]]
    ints += [0] * (n - len(ints))   # after a zero row
    minors = tuple(Fraction(m, d ** k) for k, m in enumerate(ints, 1))
    return HurwitzDecision(stable=all(v > 0 for v in minors), minors=minors)


def _det_int(a: list[list[int]]) -> int:
    """Exact determinant by Bareiss elimination with row pivoting, in place:
    step k updates every entry past row and column k and divides it,
    exactly (checked), by the pivot of step k - 1 (1 at the first step)."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q, r = divmod(pivot * a[i][j] - a[i][k] * a[k][j], prev)
                if r:
                    raise ArithmeticError("Bareiss division must be exact")
                a[i][j] = q
        prev = pivot
    return sign * a[n - 1][n - 1]
