"""Independent numeric cross-check: all complex roots, counted by half-plane.

Not ground truth: a repeated pair of roots on the imaginary axis can be
split off it into the half-planes with `converged` set.

The solver is the Ehrlich-Aberth iteration on the monic-normalized
polynomial, applied in place (Gauss-Seidel), so an estimate's update already
sees the estimates updated before it in the same sweep:

    z_i  <-  z_i - N_i / (1 - N_i * sum_{j != i} 1 / (z_i - z_j)),
    N_i = p(z_i) / p'(z_i),

with p and p' from one fused Horner pass.  No deflation ever happens, so
there is no error accumulation and each answer can be checked directly
through its residual |p(z_i)|.

The starting points are read from the Newton polygon (Bini, Numer.
Algorithms 13, 1996): on the upper convex hull of the points (k, log|a_k|)
over the nonzero monic coefficients, an edge from k1 to k2 gives m = k2 - k1
points on the circle of radius (|a_k1| / |a_k2|)^(1/m), at the angles
2 pi j / m + 2 pi k1 / n + _START_ANGLE; each exact root at the origin (a zero
constant term) starts there.  The radii follow the moduli of the roots, and
the starts are deterministic.

An estimate is settled when either of two tests holds at it: its Newton
correction |N_i| is below _TOL * (1 + |z_i|), or |p(z_i)| sits at the rounding
floor of p, 4 n 2^-52 sum_k |a_k| |z_i|^k, the bound on the rounding error of
Horner evaluation in double precision (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., 5.1).  Below that floor the computed p(z_i) is
noise, so further sweeps cannot improve the estimate; clustered and repeated
roots reach it long before their corrections fall below _TOL.  The floor
costs a second Horner pass, so it is formed only when |p(z_i)| is at most
twice 4 n 2^-52 sum_k |a_k| max(1, |z_i|)^n, the only case in which the
floor test can hold (`_may_reach_floor`); each settle decision is the one
the full test makes, and no work is done that cannot change it.  A settled
estimate takes the correction of the sweep that settled it and is not
iterated again (as MPSolve does not iterate converged roots: Bini and Robol,
J. Comput. Appl. Math. 272, 2014); it still counts in the other estimates'
sums.  Both tests read z_i alone, so the floor test never waits on the size
of a step.
"""

from __future__ import annotations

from math import cos, exp, frexp, isfinite, log, pi, sin
from typing import NamedTuple

from .errors import DegreeTooSmall, OracleUnavailable
from .polynomial import Polynomial, horner


class RootSet(NamedTuple):
    roots: tuple[complex, ...]
    max_residual: float
    converged: bool


class HalfPlaneCounts(NamedTuple):
    lhp: int
    rhp: int
    axis: int


# relative Newton correction below which an estimate is settled
_TOL = 1e-13
# per-degree rounding-error factor of complex Horner evaluation in doubles:
# |p(z)| <= n * _HORNER_ROUNDING * sum |a_k| |z|^k is rounding noise
_HORNER_ROUNDING = 4 * 2.0 ** -52
# sweeps after which find_roots returns its estimates as unconverged
_MAX_SWEEPS = 1000
# angle added to every starting circle, so that no start set is symmetric
# about the real axis
_START_ANGLE = 0.7
# half-width of the imaginary-axis band, relative to max(1, |root|)
_AXIS_BAND = 1e-8


def find_roots(p: Polynomial) -> RootSet:
    """All complex roots of p, sorted by (re, im).

    The Ehrlich-Aberth iteration from Newton-polygon starts, each estimate
    leaving the sweep once it is settled (see the module docstring).
    converged=True means that every estimate settled: in some sweep its
    Newton correction was below _TOL * (1 + |z|) or its residual sat at the
    rounding floor of p, and it then took that sweep's correction.  Each
    root is then an exact root of a polynomial whose coefficients differ
    from p's by a few rounding errors (a backward-stable root set).  The
    flag does not bound the forward error: near a multiple or tightly
    clustered root an estimate can still lie far from the true root.  When
    _MAX_SWEEPS sweeps pass with an estimate unsettled, the current
    estimates are still returned with converged=False.  Raises
    OracleUnavailable when the monic float coefficients cannot be formed, a
    nonzero one underflowing to 0.0 too, and when the residual at a root is
    not finite.
    """
    if p.is_zero or p.degree < 1:
        raise DegreeTooSmall("root finding needs degree >= 1")
    mono = _monic_floats(p)
    n = p.degree

    z = _starts(mono)
    terms = mono[::-1]
    sizes = [abs(c) for c in terms]
    floor = _HORNER_ROUNDING * n
    total = sum(sizes)
    active = range(n)
    for _ in range(_MAX_SWEEPS):
        unsettled = []
        for i in active:
            zi = z[i]
            r = abs(zi)
            # p(zi) and p'(zi) in one Horner pass
            acc = der = 0j
            for c in terms:
                der = der * zi + acc
                acc = acc * zi + c
            settled = der != 0 and abs(acc / der) < _TOL * (1.0 + r)
            if not settled and _may_reach_floor(abs(acc), r, n, floor, total):
                size = 0.0  # sum |a_k| |zi|^k
                for m in sizes:
                    size = size * r + m
                settled = abs(acc) <= floor * size
            if not settled:
                unsettled.append(i)
            try:
                newton = acc / der
                pull = 0j  # sum over j != i of 1 / (zi - zj)
                for zj in z[:i]:
                    pull += 1.0 / (zi - zj)
                for zj in z[i + 1:]:
                    pull += 1.0 / (zi - zj)
                nxt = zi - newton / (1.0 - newton * pull)
            except ZeroDivisionError:
                # coincident estimates, p'(zi) = 0 or N*S = 1: a settled
                # estimate stays put, any other takes a deterministic nudge
                if not settled:
                    z[i] = zi + 1e-12 * (1.0 + r) * (1 + 1j)
                continue
            if isfinite(nxt.real) and isfinite(nxt.imag):
                z[i] = nxt
        active = unsettled
        if not active:
            converged = True
            break
    else:
        converged = False

    roots = tuple(sorted(z, key=lambda c: (c.real, c.imag)))
    residuals = [abs(horner(mono, r)) for r in roots]
    max_residual = max(residuals)
    if not all(map(isfinite, residuals)):
        raise OracleUnavailable("the root iteration left the float range")
    return RootSet(roots=roots, max_residual=max_residual, converged=converged)


def _may_reach_floor(value: float, r: float, n: int, floor: float,
                     total: float) -> bool:
    """False only when value > floor * sum |a_k| r^k is certain, for a
    monic p of degree n whose |a_k| sum to `total`: that sum is at most
    total * max(1, r)^n, doubled for rounding, and formed before `floor`
    scales it, so it overflows whenever the Horner sum could.  r^n is
    formed only below 2^1000: an overflowing float ** leaves errno set,
    and a later abs() of a NaN complex then raises OverflowError."""
    if r <= 1.0:
        return value <= floor * (2.0 * total)
    if n * frexp(r)[1] > 1000:
        return True
    return value <= floor * (2.0 * total * r ** n)


def _starts(mono: list[float]) -> list[complex]:
    """Starting points from the Newton polygon of the monic coefficients."""
    n = len(mono) - 1
    hull: list[tuple[int, float]] = []  # upper convex hull of (k, log|a_k|)
    for k, c in enumerate(mono):
        if not c:
            continue
        point = (k, log(abs(c)))
        while len(hull) >= 2 and _turn(hull[-2], hull[-1], point) >= 0:
            hull.pop()
        hull.append(point)
    starts = [0j] * hull[0][0]  # a zero constant term: roots at the origin
    for (k1, l1), (k2, l2) in zip(hull, hull[1:]):
        m = k2 - k1
        radius = exp((l1 - l2) / m)
        for j in range(m):
            angle = 2 * pi * (j / m + k1 / n) + _START_ANGLE
            starts.append(complex(radius * cos(angle), radius * sin(angle)))
    return starts


def _turn(o, a, b) -> float:
    """Cross product of a - o and b - o: >= 0 when a lies on or below the
    line from o to b."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _monic_floats(p: Polynomial) -> list[float]:
    """p's coefficients over its leading one, in doubles, ascending.

    Int / int division rounds correctly, so c / d is float(Fraction(c, d))
    and no Fraction is built.  Raises OracleUnavailable when a quotient
    overflows or a nonzero coefficient underflows to 0.0.
    """
    ints, d = p._ints, p._denom
    try:
        lead = ints[-1] / d
        mono = [(c / d) / lead for c in ints]
    except (OverflowError, ZeroDivisionError):
        mono = None
    if (mono is None or not all(map(isfinite, mono))
            or any(c and not m for c, m in zip(ints, mono))):
        raise OracleUnavailable("the monic coefficients leave the float range")
    return mono


def half_plane_counts(root_set: RootSet) -> HalfPlaneCounts:
    """Count roots left of, right of, and on the imaginary axis.

    The axis band is _AXIS_BAND * max(1, |root|) wide on each side, so
    large roots are not misclassified by absolute tolerance.
    """
    lhp = rhp = axis = 0
    for r in root_set.roots:
        scale = max(1.0, abs(r))
        if r.real > _AXIS_BAND * scale:
            rhp += 1
        elif r.real < -_AXIS_BAND * scale:
            lhp += 1
        else:
            axis += 1
    return HalfPlaneCounts(lhp=lhp, rhp=rhp, axis=axis)
