"""Exact scalars: arbitrary-precision rationals and rational functions in a
formal positive infinitesimal.

`Rational` is the standard-library `fractions.Fraction`: exact, always
canonical (positive denominator, gcd-reduced), totally ordered.

`EpsPoly` and `EpsRat` build the ordered field Q(e) of rational functions in
a formal symbol `e` that stands for an arbitrarily small positive number.
Every arithmetic operation is closed-form and exact; nothing is ever
truncated to a series or substituted with a float.  The sign of an `EpsRat`
is its sign in the limit e -> 0+, which is the sign of the lowest-order
nonzero numerator coefficient once the denominator is normalized to have a
positive lowest-order coefficient.  That limit sign agrees with the value of
the function at every sufficiently small real e > 0.

Canonical form of an `EpsRat`: numerator and denominator are coprime
polynomials and the lowest-order nonzero denominator coefficient is exactly
1.  Canonical form is unique, so equality is structural.

This module holds the field and nothing else: `EpsPoly` takes its integer
coefficient form from `intpoly.DensePoly`, and the reduction to canonical
form uses the integer gcd in `intpoly`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd
from typing import Union

from .intpoly import DensePoly, eval_homogeneous, gcd_cofactors

Rational = Fraction

_CoeffLike = Union[int, Fraction]


class PoleAtZero:
    """Type of POLE_AT_ZERO, what :meth:`EpsRat.limit` gives at a pole."""

    def __repr__(self):
        return "PoleAtZero"


POLE_AT_ZERO = PoleAtZero()


class EpsPoly(DensePoly):
    """Polynomial in the infinitesimal `e` with Rational coefficients."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        """Degree in e; -1 denotes the zero polynomial."""
        return len(self._ints) - 1

    @property
    def valuation(self) -> int:
        """Index of the lowest-order nonzero coefficient."""
        for k, c in enumerate(self._ints):
            if c:
                return k
        raise ValueError("zero polynomial has no valuation")

    def lowest_coeff(self) -> Fraction:
        return self.coeff(self.valuation)

    def constant(self) -> Fraction:
        """Coefficient of e^0."""
        return self.coeff(0)

    def evaluate(self, value: Fraction) -> Fraction:
        """Exact value at a rational point, by integer Horner evaluation."""
        n, d = value.numerator, value.denominator
        return Fraction(eval_homogeneous(self._ints, n, d),
                        self._denom * d ** max(self.degree, 0))

    def __str__(self):
        return self._render("e", descending=False)

    def __repr__(self):
        return f"EpsPoly({list(self.coeffs)!r})"


def _canonicalize(num: EpsPoly, den: EpsPoly) -> tuple[EpsPoly, EpsPoly]:
    """Reduce a nonzero num/den pair to canonical form.

    The reduction runs on the integer coefficient lists: each is made
    primitive and replaced by its cofactor of their primitive gcd (see
    `intpoly.gcd_cofactors`; exact integer division, by Gauss's lemma), and
    the rational scale left over is folded into the numerator so the
    denominator's lowest-order nonzero coefficient is exactly 1.  Both results are in
    lowest terms: the gcd of the integer coefficients is coprime to the
    shared denominator.  The sign of the gcd cancels in the scale, so the
    result does not depend on which gcd routine found it.
    """
    cn, cd = gcd(*num._ints), gcd(*den._ints)
    na = [c // cn for c in num._ints]
    da = [c // cd for c in den._ints]
    if len(na) > 1 and len(da) > 1:
        _, na, da = gcd_cofactors(na, da)
    low = next(c for c in da if c)
    # num/den = scale * na / (da/low); the contents and denominators go
    # into scale
    scale = Fraction(cn * den._denom, cd * num._denom * low)
    if low < 0:
        da, low = [-c for c in da], -low
    return (EpsPoly._raw([scale.numerator * c for c in na], scale.denominator),
            EpsPoly._raw(da, low))


_ZERO_P = EpsPoly()
_ONE_P = EpsPoly((1,))
_EPS_P = EpsPoly((0, 1))


@total_ordering
class EpsRat:
    """Element of the ordered field Q(e), held in canonical form.

    Supports +, -, *, / with other EpsRat values and with int/Fraction
    operands.  Ordering compares values in the limit e -> 0+.  Each result
    of + - * / is reduced once; negation and `from_rational` never reduce.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        num = _as_poly(num)
        den = _as_poly(den)
        if den.is_zero:
            raise ZeroDivisionError("EpsRat with zero denominator")
        if num.is_zero:
            num, den = _ZERO_P, _ONE_P
        else:
            num, den = _canonicalize(num, den)
        self.num = num
        self.den = den

    @classmethod
    def _canonical(cls, num: EpsPoly, den: EpsPoly) -> "EpsRat":
        """Wrap a num/den pair that is already in canonical form."""
        self = object.__new__(cls)
        self.num = num
        self.den = den
        return self

    @classmethod
    def from_rational(cls, value: _CoeffLike) -> "EpsRat":
        v = value if type(value) is Fraction else Fraction(value)
        return cls._canonical(
            EpsPoly._raw([v.numerator], v.denominator) if v else _ZERO_P, _ONE_P)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_eps_free(self) -> bool:
        """True when the value does not involve e at all."""
        return self.den.degree == 0 and self.num.degree <= 0  # canonical: den == 1

    def as_fraction(self) -> Fraction:
        if not self.is_eps_free:
            raise ValueError(f"{self} is not eps-free")
        return self.num.constant()

    def sign(self) -> int:
        """Sign in the limit e -> 0+: -1, 0, or +1.

        Canonical form makes the denominator positive for small e, so the
        sign is that of the lowest-order nonzero numerator coefficient.
        """
        num = self.num
        if num.is_zero:
            return 0
        return 1 if num._ints[num.valuation] > 0 else -1

    def limit(self):
        """Value at e = 0, or POLE_AT_ZERO when the denominator vanishes."""
        d0 = self.den.constant()
        if not d0:
            return POLE_AT_ZERO
        return self.num.constant() / d0

    def evaluate(self, value: Fraction) -> Fraction:
        """Exact substitution of a rational value for e."""
        d = self.den.evaluate(value)
        if not d:
            raise ZeroDivisionError(f"denominator vanishes at e={value}")
        return self.num.evaluate(value) / d

    # -- field arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return EpsRat(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return EpsRat._canonical(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return EpsRat(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("EpsRat division by zero")
        return EpsRat(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __lt__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __bool__(self):
        return not self.num.is_zero

    def __hash__(self):
        if self.is_eps_free:
            return hash(self.num.constant())
        return hash((self.num.coeffs, self.den.coeffs))

    def __str__(self):
        """Render per the output grammar: plain fraction when eps-free,
        otherwise `(<poly>)/(<poly>)`, e.g. `(6 - 7*e)/(e)`."""
        if self.is_eps_free:
            return str(self.num.constant())
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"EpsRat({self})"


def _as_poly(value) -> EpsPoly:
    if isinstance(value, EpsPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return EpsPoly((value,))
    raise TypeError(f"cannot build EpsPoly from {type(value).__name__}")


def _coerce(value):
    if isinstance(value, EpsRat):
        return value
    if isinstance(value, (int, Fraction)):
        return EpsRat.from_rational(value)
    return NotImplemented


#: The formal positive infinitesimal.
EPSILON = EpsRat._canonical(_EPS_P, _ONE_P)
