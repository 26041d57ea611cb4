"""Determinant route to stability: Hurwitz matrix and exact leading minors.

For a degree-n polynomial a_n s^n + ... + a_0 the n x n Hurwitz matrix is
H[i][j] = a_{n - 2j + i} (1-indexed; coefficients outside 0..n read as
zero).  The polynomial is stable exactly when all n leading principal
minors are positive.

Minors come from one fraction-free (Bareiss) elimination pass over an
integer-scaled copy of the matrix: after step k the (k, k) entry equals the
(k+1)-th leading minor, and every intermediate division is exact (checked).
A zero pivot stops the shared pass, in which case the remaining minors are
computed as independent exact determinants with row pivoting.

`hurwitz_stable` never builds the Fraction matrix: the polynomial already
holds integer coefficients over one positive denominator d (`_ints` over
`_denom`), so d times the Hurwitz matrix is an integer matrix, and the k-th
leading minor is its integer minor over d^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DegreeTooSmall, OriginRoot
from .polynomial import Polynomial


@dataclass(frozen=True)
class ExactMatrix:
    n: int
    entries: tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class HurwitzDecision:
    stable: bool
    minors: tuple[Fraction, ...]


def hurwitz_matrix(p: Polynomial) -> ExactMatrix:
    rows = _integer_matrix(p)
    d = p._denom
    return ExactMatrix(n=len(rows), entries=tuple(
        tuple(Fraction(x, d) for x in row) for row in rows))


def _integer_matrix(p: Polynomial) -> list[list[int]]:
    """The Hurwitz matrix of p times p's denominator, over the integers."""
    if p.is_zero or p.degree < 1:
        raise DegreeTooSmall("Hurwitz matrix needs degree >= 1")
    if p._ints[-1] < 0:
        raise ValueError("leading coefficient must be positive; normalize first")
    n, a = p.degree, p._ints
    return [[a[k] if 0 <= k <= n else 0 for k in range(n - 1 + i, -n - 1 + i, -2)]
            for i in range(n)]


def leading_minors(m: ExactMatrix) -> tuple[Fraction, ...]:
    """Exact k x k leading principal minors for k = 1..n."""
    scales = []
    work = []
    for row in m.entries:
        mult = lcm(*(c.denominator for c in row))
        scales.append(mult)
        work.append([c.numerator * (mult // c.denominator) for c in row])
    return _scaled_minors(work, scales)


def hurwitz_stable(p: Polynomial) -> HurwitzDecision:
    """Stable iff every leading principal minor is positive."""
    if p.is_zero or p.degree < 1:
        raise DegreeTooSmall("stability test needs degree >= 1")
    if not p._ints[0]:
        raise OriginRoot("constant term is zero; strip origin roots first")
    minors = _scaled_minors(_integer_matrix(p), [p._denom] * p.degree)
    return HurwitzDecision(stable=all(v > 0 for v in minors), minors=minors)


def _scaled_minors(work: list[list[int]], scales: list[int]) -> tuple[Fraction, ...]:
    """Leading minors of the matrix whose row i is work[i] / scales[i]."""
    minors = []
    acc = 1
    for m, scale in zip(_bareiss_leading_minors(work), scales):
        acc *= scale
        minors.append(Fraction(m, acc))
    return tuple(minors)


def _bareiss_leading_minors(a: list[list[int]]) -> list[int]:
    """Leading principal minors of an integer matrix, fraction-free.

    Falls back to per-minor determinants once a pivot (itself a leading
    minor) vanishes, because the shared elimination cannot continue past a
    zero pivot without row swaps that would change the leading submatrices.
    """
    n = len(a)
    pristine = [row[:] for row in a]
    minors = [0] * n
    prev = 1
    for k in range(n):
        minors[k] = a[k][k]
        if k == n - 1:
            break
        if a[k][k] == 0:
            for t in range(k + 1, n):
                minors[t] = _det_int([row[: t + 1] for row in pristine[: t + 1]])
            break
        prev = _bareiss_step(a, k, prev)
    return minors


def _det_int(a: list[list[int]]) -> int:
    """Exact determinant via Bareiss elimination with row pivoting."""
    a = [row[:] for row in a]
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
        prev = _bareiss_step(a, k, prev)
    return sign * a[n - 1][n - 1]


def _bareiss_step(a: list[list[int]], k: int, prev: int) -> int:
    """Eliminate below the nonzero pivot a[k][k] in place, fraction-free:
    every entry past row and column k is updated and divided, exactly, by
    `prev`, the previous step's pivot (1 at the first step).  Returns the
    pivot, which is the divisor of the next step."""
    pivot = a[k][k]
    n = len(a)
    for i in range(k + 1, n):
        for j in range(k + 1, n):
            q, r = divmod(pivot * a[i][j] - a[i][k] * a[k][j], prev)
            if r:
                raise ArithmeticError("Bareiss division must be exact")
            a[i][j] = q
    return pivot
