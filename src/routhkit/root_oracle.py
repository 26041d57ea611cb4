"""Independent numeric ground truth: all complex roots, counted by half-plane.

The solver iterates every root estimate simultaneously,

    z_i  <-  z_i - p(z_i) / prod_{j != i} (z_i - z_j),

on the monic-normalized polynomial, starting from (0.4 + 0.9j)^k for
k = 1..n.  No deflation ever happens, so there is no error accumulation and
each answer can be checked directly through its residual |p(z_i)|.

A sweep ends the iteration when every estimate either has stopped moving
(its step is below _TOL * (1 + |z_i|)) or sits at the rounding floor of p:
|p(z_i)| <= 4 n 2^-52 sum_k |a_k| |z_i|^k, the bound on the rounding error
of Horner evaluation in double precision (Higham, Accuracy and Stability of
Numerical Algorithms, 2nd ed., 5.1).  Below that floor the computed p(z_i)
is noise, so further sweeps cannot improve the estimate; clustered and
repeated roots reach it long before their steps fall below _TOL.
"""

from __future__ import annotations

from math import isfinite
from typing import NamedTuple

from .errors import DegreeTooSmall, OracleUnavailable
from .polynomial import Polynomial


class RootSet(NamedTuple):
    roots: tuple[complex, ...]
    max_residual: float
    converged: bool


class HalfPlaneCounts(NamedTuple):
    lhp: int
    rhp: int
    axis: int


# relative step size below which an estimate counts as converged
_TOL = 1e-13
# per-degree rounding-error factor of complex Horner evaluation in doubles:
# |p(z)| <= n * _HORNER_ROUNDING * sum |a_k| |z|^k is rounding noise
_HORNER_ROUNDING = 4 * 2.0 ** -52
# sweeps after which find_roots returns its estimates as unconverged
_MAX_SWEEPS = 1000
# half-width of the imaginary-axis band, relative to max(1, |root|)
_AXIS_BAND = 1e-8


def find_roots(p: Polynomial) -> RootSet:
    """All complex roots of p, sorted by (re, im).

    converged=True means that in the last sweep every estimate either moved
    by less than _TOL * (1 + |z|) or sat at the rounding floor of p: each
    is then an exact root of a polynomial whose coefficients differ from
    p's by a few rounding errors (a backward-stable root set).  The flag
    does not bound the forward error: near a multiple or tightly clustered
    root an estimate can still lie far from the true root.  When
    _MAX_SWEEPS sweeps pass without that, the current estimates are still
    returned with converged=False.  Raises OracleUnavailable when the monic
    float coefficients cannot be formed, a nonzero one underflowing to 0.0
    too, and when the residual at a root is not finite.
    """
    if p.is_zero or p.degree < 1:
        raise DegreeTooSmall("root finding needs degree >= 1")
    mono = _monic_floats(p)
    n = p.degree

    z = [(0.4 + 0.9j) ** k for k in range(1, n + 1)]
    descending = mono[::-1]
    magnitudes = [abs(c) for c in descending]
    floor = _HORNER_ROUNDING * n
    converged = False
    for _ in range(_MAX_SWEEPS):
        done = True
        for i in range(n):
            zi = z[i]
            den = 1.0 + 0j
            for zj in z[:i]:
                den *= zi - zj
            for zj in z[i + 1:]:
                den *= zi - zj
            if den == 0:
                # coincident estimates: deterministic nudge, retry next sweep
                z[i] = zi + 1e-12 * (1.0 + abs(zi)) * (1 + 1j)
                done = False
                continue
            acc = 0j  # Horner, as in _horner
            for c in descending:
                acc = acc * zi + c
            step = acc / den
            nxt = zi - step
            if not (isfinite(nxt.real) and isfinite(nxt.imag)):
                done = False
                continue
            z[i] = nxt
            if done and abs(step) >= _TOL * (1.0 + abs(nxt)):
                # still moving: passes only if p(zi) is rounding noise
                r = abs(zi)
                size = 0.0  # sum |a_k| |zi|^k, real Horner
                for c in magnitudes:
                    size = size * r + c
                if abs(acc) > floor * size:
                    done = False
        if done:
            converged = True
            break

    roots = tuple(sorted(z, key=lambda c: (c.real, c.imag)))
    max_residual = max(abs(_horner(mono, r)) for r in roots)
    if not isfinite(max_residual):
        raise OracleUnavailable("the root iteration left the float range")
    return RootSet(roots=roots, max_residual=max_residual, converged=converged)


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


def _horner(ascending: list[float], z: complex) -> complex:
    acc = 0j
    for c in reversed(ascending):
        acc = acc * z + c
    return acc
