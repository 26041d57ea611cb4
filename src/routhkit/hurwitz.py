"""Determinant route to stability: Hurwitz matrix and exact leading minors.

For a degree-n polynomial a_n s^n + ... + a_0 the n x n Hurwitz matrix is
H[i][j] = a_{n - 2j + i} (1-indexed; coefficients outside 0..n read as
zero).  The polynomial is stable exactly when all n leading principal
minors are positive.

`hurwitz_stable` reads the minors from the Routh recurrence itself.  The
polynomial holds integer coefficients over one positive denominator d
(`_ints` over `_denom`), so d times the Hurwitz matrix is an integer
matrix, and the k-th leading minor is its integer minor Delta_k over d^k.
The fraction-free Routh recurrence on those integers
(`intpoly.fraction_free_rows`, Sylvester's identity as in Bareiss, Math.
Comp. 22, 1968) has exactly these Delta_k as its pivots, the first entries
of its rows; one pass gives every minor, and `routh.build_array` runs the
same pass.  The paper's two special cases stop it at a zero pivot
Delta_m = F_m[0] and need no determinant: after an all-zero row F_m
every minor is zero (by Sylvester's identity each is, up to a power of
Delta_{m-1} != 0, a determinant with F_m as a row), and a zero first
entry is bridged by one exact pseudo-division step, `intpoly.bridge_gap`.

`leading_minors` takes any `ExactMatrix` and keeps one Bareiss elimination
pass over an integer-scaled copy: after step k the (k, k) entry equals the
(k+1)-th leading minor, and every intermediate division is exact
(checked); after a zero pivot every remaining minor is a determinant.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .errors import DegreeTooSmall, OriginRoot
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
    """Exact k x k leading principal minors for k = 1..n."""
    scales = []
    work = []
    for row in m.entries:
        mult = lcm(*(c.denominator for c in row))
        scales.append(mult)
        work.append([c.numerator * (mult // c.denominator) for c in row])
    # row i of the matrix is work[i] / scales[i]
    minors = []
    acc = 1
    for v, scale in zip(_bareiss_leading_minors(work), scales):
        acc *= scale
        minors.append(Fraction(v, acc))
    return tuple(minors)


def hurwitz_stable(p: Polynomial) -> HurwitzDecision:
    """Stable iff every leading principal minor is positive.

    The minors are the pivots of the fraction-free Routh recurrence on p's
    integer coefficients.  A zero row ends them: every later minor is 0.
    A zero first entry is bridged by `bridge_gap`, and the recurrence
    resumes past it, so every minor comes from the one pass.
    """
    if p.is_zero or p.degree < 1:
        raise DegreeTooSmall("stability test needs degree >= 1")
    if not p._ints[0]:
        raise OriginRoot("constant term is zero; strip origin roots first")
    if p._ints[-1] < 0:
        raise ValueError("leading coefficient must be positive; normalize first")
    n, top, d = p.degree, p._ints[::-1], p._denom
    rows = fraction_free_rows(top[0::2], top[1::2], n + 1)
    ints = [row[0] for row in rows[1:]]
    while len(ints) < n and any(rows[-1]):
        b, a = ([1, 1] + ints)[-3:-1]   # Delta_{m-2}, Delta_{m-1}
        g, delta, f0, f1 = bridge_gap(rows[-2], rows[-1], a, b)
        ints += [0] * (2 * g - 2) + [delta, f0[0]]
        if len(ints) < n:
            rows = fraction_free_rows(f0, f1, n + 1 - len(ints),
                                      pivots=(delta, f0[0]))
            ints += [row[0] for row in rows[1:]]
    ints += [0] * (n - len(ints))   # after a zero row
    minors = tuple(Fraction(m, d ** k) for k, m in enumerate(ints, 1))
    return HurwitzDecision(stable=all(v > 0 for v in minors), minors=minors)


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
