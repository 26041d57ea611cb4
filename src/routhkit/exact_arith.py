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
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering
from math import gcd, lcm
from typing import Iterable, Union

Rational = Fraction

_CoeffLike = Union[int, Fraction]


class _PoleAtZero:
    """Sentinel returned by :meth:`EpsRat.limit` when the value blows up."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "PoleAtZero"


PoleAtZero = _PoleAtZero
POLE_AT_ZERO = _PoleAtZero()


class _DensePoly:
    """Dense polynomial with rational coefficients: the core that `EpsPoly`
    (in e) and `polynomial.Polynomial` (in s) share.

    The polynomial is held as integer coefficients, ascending by power with
    trailing zeros stripped, over one shared positive denominator, and add,
    neg, mul and scale run on those integers.  `coeffs` gives the same
    polynomial as a tuple of Fractions; the zero polynomial has an empty
    coefficient tuple.  Operands of two different subclasses do not mix.
    """

    __slots__ = ("_ints", "_denom", "_coeffs")

    def __init__(self, coeffs: Iterable[_CoeffLike] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        denom = lcm(*(c.denominator for c in cs))
        self._ints = [c.numerator * (denom // c.denominator) for c in cs]
        self._denom = denom
        self._coeffs = tuple(cs)

    @classmethod
    def _raw(cls, ints: list[int], denom: int):
        """Wrap integer coefficients with no trailing zero over a positive
        denominator, without rechecking.  The list is never mutated."""
        self = object.__new__(cls)
        self._ints = ints
        self._denom = denom
        self._coeffs = None
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        if self._coeffs is None:
            denom = self._denom
            self._coeffs = tuple(Fraction(c, denom) for c in self._ints)
        return self._coeffs

    @property
    def is_zero(self) -> bool:
        return not self._ints

    def scale(self, factor: _CoeffLike):
        f = Fraction(factor)
        if not f:
            return type(self)()
        return type(self)._raw([c * f.numerator for c in self._ints],
                               self._denom * f.denominator)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        a, b = self._ints, other._ints
        denom = self._denom
        if denom != other._denom:
            g = gcd(denom, other._denom)
            ma, mb = other._denom // g, denom // g
            a = [c * ma for c in a]
            b = [c * mb for c in b]
            denom *= ma
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        while out and not out[-1]:
            out.pop()
        return type(self)._raw(out, denom)

    def __neg__(self):
        return type(self)._raw([-c for c in self._ints], self._denom)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        a, b = self._ints, other._ints
        if not a or not b:
            return type(self)()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b, i):
                    out[j] += ca * cb
        # a product of nonzero leading coefficients is nonzero
        return type(self)._raw(out, self._denom * other._denom)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def _render(self, var: str, descending: bool) -> str:
        """The nonzero terms as `c + c*var + c*var^2 ...`, in ascending or
        descending order of powers."""
        terms = [(k, c) for k, c in enumerate(self.coeffs) if c]
        if descending:
            terms.reverse()
        out = ""
        for k, c in terms:
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                power = var if k == 1 else f"{var}^{k}"
                body = power if mag == 1 else f"{mag}*{power}"
            if out:
                out += (" - " if c < 0 else " + ") + body
            else:
                out = "-" + body if c < 0 else body
        return out or "0"


class EpsPoly(_DensePoly):
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
        return self.coeffs[self.valuation]

    def constant(self) -> Fraction:
        """Coefficient of e^0."""
        return self.coeffs[0] if self._ints else Fraction(0)

    def evaluate(self, value: Fraction) -> Fraction:
        """Exact Horner evaluation at a rational point."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def __divmod__(self, other: "EpsPoly") -> tuple["EpsPoly", "EpsPoly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        dd = other.degree
        if self.degree < dd:
            return EpsPoly(), self
        rem = list(self.coeffs)
        lead = other.coeffs[-1]
        q = [Fraction(0)] * (self.degree - dd + 1)
        for k in range(len(q) - 1, -1, -1):
            c = rem[k + dd] / lead
            if c:
                q[k] = c
                for j, oc in enumerate(other.coeffs):
                    rem[k + j] -= c * oc
        return EpsPoly(q), EpsPoly(rem)

    def __floordiv__(self, other: "EpsPoly") -> "EpsPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "EpsPoly") -> "EpsPoly":
        return divmod(self, other)[1]

    def __str__(self):
        return self._render("e", descending=False)

    def __repr__(self):
        return f"EpsPoly({list(self.coeffs)!r})"


def _canonicalize(num: EpsPoly, den: EpsPoly) -> tuple[EpsPoly, EpsPoly]:
    """Reduce a nonzero num/den pair to canonical form.

    The reduction runs on the integer coefficient lists: each is made
    primitive and replaced by its cofactor of their primitive gcd (see
    `_int_gcd`; exact integer division, by Gauss's lemma), and the rational
    scale left over is folded into the numerator so the denominator's
    lowest-order nonzero coefficient is exactly 1.  Both results are in
    lowest terms: the gcd of the integer coefficients is coprime to the
    shared denominator.  The sign of the gcd cancels in the scale, so the
    result does not depend on which gcd routine found it.
    """
    cn, cd = _content(num._ints), _content(den._ints)
    na = [c // cn for c in num._ints]
    da = [c // cd for c in den._ints]
    if len(na) > 1 and len(da) > 1:
        _, na, da = _int_gcd(na, da)
    low = next(c for c in da if c)
    # num/den = scale * na / (da/low); the contents and denominators go
    # into scale
    scale = Fraction(cn * den._denom, cd * num._denom * low)
    if low < 0:
        da, low = [-c for c in da], -low
    return (EpsPoly._raw([scale.numerator * c for c in na], scale.denominator),
            EpsPoly._raw(da, low))


def _content(coeffs: list[int]) -> int:
    """Positive gcd of the coefficients; 0 for an empty list."""
    g = 0
    for c in coeffs:
        g = gcd(g, c)
        if g == 1:
            break
    return g


def _primitive(coeffs: list[int]) -> list[int]:
    """The coefficients divided by their content; the input has no
    trailing zero and is left unchanged."""
    g = _content(coeffs)
    return coeffs if g == 1 else [c // g for c in coeffs]


# GCDHEU tries this many evaluation points before the PRS takes over, each
# the last one times 73794/27011 (about 1 + sqrt 3)
_HEU_TRIES = 6
_HEU_GROWTH = (73794, 27011)


def _int_gcd(a: list[int], b: list[int]) -> tuple[list[int], list[int], list[int]]:
    """Primitive gcd g of two primitive integer polynomials, with the
    cofactors a/g and b/g.

    The heuristic gcd of Char, Geddes & Gonnet (GCDHEU, J. Symbolic Comput.
    7, 1989) runs first: it evaluates a and b at an integer xi, takes one
    integer gcd h and reads g back from the balanced base-xi digits of h.
    Starting at xi = 2*min(|a|_inf, |b|_inf) + 29 puts xi above twice the
    modulus of every root of the input with the smaller norm (Cauchy's
    bound), hence of every common factor.  The candidate is then exact as
    soon as it divides both inputs (Geddes, Czapor & Labahn, Algorithms for
    Computer Algebra, sec. 7.7): it divides the true gcd G, G(xi) divides
    h = content * g(xi), so the quotient c = G/g has |c(xi)| <= content <=
    xi/2, while a nonconstant c would have |c(xi)| > xi/2.  A constant
    candidate therefore means the gcd is 1.  A candidate that fails the
    division check only costs a retry at a larger xi; after `_HEU_TRIES`
    of them the primitive PRS decides.
    """
    found = _heu_gcd(a, b)
    if found is not None:
        return found
    g = _prs_gcd(a, b)
    return g, _int_div_exact(a, g), _int_div_exact(b, g)


def _heu_gcd(a: list[int], b: list[int]
             ) -> tuple[list[int], list[int], list[int]] | None:
    """(g, a/g, b/g) by GCDHEU, or None when every evaluation point failed."""
    xi = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    for _ in range(_HEU_TRIES):
        h = gcd(_int_eval(a, xi), _int_eval(b, xi))
        g = []
        while h:
            d = h % xi
            if d > xi // 2:
                d -= xi
            g.append(d)
            h = (h - d) // xi
        g = _primitive(g)
        if len(g) == 1:
            return [1], a, b
        qa = _int_div(a, g)
        if qa is not None:
            qb = _int_div(b, g)
            if qb is not None:
                return g, qa, qb
        xi = xi * _HEU_GROWTH[0] // _HEU_GROWTH[1]
    return None


def _prs_gcd(a: list[int], b: list[int]) -> list[int]:
    """Primitive gcd of two primitive integer polynomials by the primitive
    pseudo-remainder sequence."""
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return a


def _int_eval(coeffs: list[int], x: int) -> int:
    """Value at an integer point, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _int_eval_homogeneous(coeffs: list[int], n: int, d: int) -> int:
    """d^deg * p(n/d), that is sum c_j n^j d^(deg - j), by Horner's rule in
    integers.  For d > 0 its sign is the sign of p at the rational n/d."""
    acc = 0
    dk = 1
    for c in reversed(coeffs):
        acc = acc * n + c * dk
        dk *= d
    return acc


def _int_div(a: list[int], b: list[int]) -> list[int] | None:
    """Quotient of integer polynomials when b divides a over Z, else None."""
    db = len(b) - 1
    rem = list(a)
    lead = b[-1]
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c, r = divmod(rem[k + db], lead)
        if r:
            return None
        if c:
            q[k] = c
            for j in range(db + 1):
                rem[k + j] -= c * b[j]
    return None if any(rem) else q


def _int_div_exact(a: list[int], b: list[int]) -> list[int]:
    """Exact quotient of integer polynomials (b divides a over Q and, being
    primitive, over Z); raises ArithmeticError otherwise."""
    q = _int_div(a, b)
    if q is None:
        raise ArithmeticError("non-exact polynomial division")
    return q


def _pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Integer remainder of a by b up to a power of b's leading coefficient."""
    r = list(a)
    lead_b = b[-1]
    db = len(b) - 1
    while len(r) - 1 >= db:
        lead_r = r[-1]
        shift = len(r) - 1 - db
        r = [lead_b * c for c in r]
        for j in range(db + 1):
            r[shift + j] -= lead_r * b[j]
        del r[-1]
        while r and r[-1] == 0:
            r.pop()
    return r


_ZERO_P = EpsPoly()
_ONE_P = EpsPoly((1,))
_EPS_P = EpsPoly((0, 1))


@total_ordering
class EpsRat:
    """Element of the ordered field Q(e), held in canonical form.

    Supports +, -, *, / with other EpsRat values and with int/Fraction
    operands.  Ordering compares values in the limit e -> 0+.
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
    def from_rational(cls, value: _CoeffLike) -> "EpsRat":
        self = object.__new__(cls)
        v = value if type(value) is Fraction else Fraction(value)
        self.num = EpsPoly._raw([v.numerator], v.denominator) if v else _ZERO_P
        self.den = _ONE_P
        return self

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
        return EpsRat(-self.num, self.den)

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
EPSILON = EpsRat(_EPS_P)
