"""Exact real polynomials in the Laplace variable `s`.

Coefficients are Rationals stored ascending by power; text input and output
use the engineering convention (descending).  Two input forms are accepted:
a comma/space-separated descending coefficient list (`"1,0,0,0,1"`) and a
sparse term form over `s` (`"s^4 + 1"`).  Rendering emits the sparse form
with exact fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .errors import EmptyPolynomial, ParseError, UnpairedComplexRoot
from .intpoly import DensePoly

_TOKEN_SPLIT = re.compile(r"[,\s]+")

# the largest degree of a parsed polynomial or sweep template: Routh entries
# of a degenerate input grow fast with the degree; `s^n + 1` takes seconds
# at n = 96 and about four times as long at n = 128 (README, "Input size")
MAX_DEGREE = 100

# tolerance, relative to max(1, |r|), for a root to count as real and for
# two roots to count as a conjugate pair
_PAIR_TOL = 1e-12

_TERM = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coef>\d+/\d+|\d+(?:\.\d+)?)\s*(?:\*\s*(?P<var1>s(?:\^(?P<pow1>\d+))?))?
          | (?P<var2>s(?:\^(?P<pow2>\d+))?)
        )\s*""",
    re.VERBOSE,
)


class Polynomial(DensePoly):
    """Real polynomial in s with exact rational coefficients.

    Arithmetic, equality, hashing and the term renderer come from the dense
    core in `intpoly`.  The zero polynomial is a distinct state (empty
    coefficient tuple) with no defined degree.
    """

    __slots__ = ()

    # -- construction --------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "Polynomial":
        """Parse a descending coefficient list or sparse `s^k` term form."""
        stripped = text.strip()
        if not stripped:
            raise ParseError("empty polynomial text")
        if "s" in stripped:
            powers = _parse_terms(stripped)
        else:
            powers = dict(enumerate(parse_coefficient_list(stripped)[::-1]))
        degree = max((k for k, c in powers.items() if c), default=None)
        if degree is None:
            raise EmptyPolynomial(f"all coefficients are zero in {text!r}")
        check_degree(degree)
        return cls([powers.get(k, 0) for k in range(degree + 1)])

    @classmethod
    def from_roots(cls, roots: Sequence[complex]) -> "Polynomial":
        """Monic polynomial with the given roots.

        A root within `_PAIR_TOL` of the real axis enters as real; the others
        must pair off into conjugates within `_PAIR_TOL`.  Float components
        are binary rationals, so over D, the largest of their power-of-two
        denominators, the factors D s - a_j - i b_j expand once, exactly, over
        the Gaussian integers.  The real part is D^n times the polynomial; the
        imaginary part, which exact conjugates cancel, must stay within 1e-9
        of the largest coefficient.  Coefficients are rounded to the nearest
        fraction with denominator <= 10**6, a step skipped when the reduced
        common denominator already fits.
        """
        comps: list[tuple[float, float]] = []
        pos: list[complex] = []
        neg: list[complex] = []
        for r in map(complex, roots):
            if abs(r.imag) <= _PAIR_TOL * max(1.0, abs(r)):
                comps.append((r.real, 0.0))
                continue
            comps.append((r.real, r.imag))
            (pos if r.imag > 0 else neg).append(r)
        if len(pos) != len(neg):
            raise UnpairedComplexRoot(
                f"{len(pos)} roots above the real axis vs {len(neg)} below")
        for r in pos:
            dists = [abs(r - u.conjugate()) for u in neg]
            best = min(range(len(dists)), key=dists.__getitem__)
            if dists[best] > _PAIR_TOL * max(1.0, abs(r)):
                raise UnpairedComplexRoot(f"no conjugate partner for root {r}")
            neg.pop(best)

        ratios = [x.as_integer_ratio() for ab in comps for x in ab]
        d = max((q for _, q in ratios), default=1)
        nums = [n * (d // q) for n, q in ratios]
        re, im = [1], [0]
        for a, b in zip(nums[0::2], nums[1::2]):
            # (re + i im)(d s - a - i b), ascending in s
            x, y = [*re, 0], [*im, 0]
            re = [d * p - a * q + b * r for p, q, r in zip([0, *re], x, y)]
            im = [d * p - a * r - b * q for p, q, r in zip([0, *im], x, y)]
        residue = max(map(abs, im))
        if 10 ** 9 * residue > max(map(abs, re)):
            raise UnpairedComplexRoot(f"imaginary residue {residue / re[-1]:.3e} "
                                      "exceeds tolerance after pairing")

        g = gcd(re[-1], *re)
        if re[-1] // g <= 10 ** 6:
            return cls._raw([c // g for c in re], re[-1] // g)
        return cls([Fraction(c, re[-1]).limit_denominator(10 ** 6) for c in re])

    # -- accessors ------------------------------------------------------------

    @property
    def degree(self) -> int:
        if not self._ints:
            raise ValueError("zero polynomial has no degree")
        return len(self._ints) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeff(len(self._ints) - 1)

    @property
    def constant_term(self) -> Fraction:
        return self.coeff(0)

    def descending_strings(self) -> list[str]:
        """Coefficients as exact fraction strings, highest power first."""
        return [str(c) for c in reversed(self.coeffs)]

    # -- operations -----------------------------------------------------------

    def derivative(self) -> "Polynomial":
        return Polynomial._raw([k * c for k, c in enumerate(self._ints)][1:],
                               self._denom)

    def evaluate(self, z: complex) -> complex:
        """Horner evaluation in double precision."""
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + float(c)
        return acc

    def strip_origin_roots(self) -> tuple[int, "Polynomial"]:
        """Write the polynomial as s^k * q with q(0) != 0; return (k, q)."""
        if self.is_zero:
            raise ValueError("zero polynomial has no root structure")
        k = 0
        while not self._ints[k]:
            k += 1
        return k, Polynomial._raw(self._ints[k:], self._denom) if k else self

    def __str__(self):
        return self._render("s", descending=True)

    def __repr__(self):
        return f"Polynomial({self})"


def check_degree(degree: int) -> None:
    """Refuse a degree above `MAX_DEGREE` with a ParseError."""
    if degree > MAX_DEGREE:
        raise ParseError(f"degree {degree} exceeds the limit of {MAX_DEGREE}")


def parse_coefficient_list(text: str,
                           placeholder: Optional[str] = None) -> list[Optional[Fraction]]:
    """Coefficients of a comma/space-separated list, in the order written
    (descending powers); each token equal to `placeholder` becomes None."""
    tokens = [t for t in _TOKEN_SPLIT.split(text.strip()) if t]
    if not tokens:
        raise ParseError(f"no coefficients in {text!r}")
    coeffs: list[Optional[Fraction]] = []
    for tok in tokens:
        if tok == placeholder:
            coeffs.append(None)
            continue
        try:
            coeffs.append(Fraction(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad coefficient {tok!r}") from exc
    return coeffs


def _parse_terms(text: str) -> dict[int, Fraction]:
    """The coefficient of each power written in the sparse term form."""
    powers: dict[int, Fraction] = {}
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError(f"unexpected input at {text[pos:]!r}")
        if not first and m.group("sign") is None:
            raise ParseError(f"missing + or - before {text[pos:].strip()!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("coef") is not None:
            try:
                coef = Fraction(m.group("coef"))
            except ZeroDivisionError as exc:
                raise ParseError(f"bad coefficient {m.group('coef')!r}") from exc
            var, power = m.group("var1"), m.group("pow1")
        else:
            coef = Fraction(1)
            var, power = m.group("var2"), m.group("pow2")
        k = 0 if var is None else (1 if power is None else int(power))
        powers[k] = powers.get(k, Fraction(0)) + sign * coef
        pos = m.end()
        first = False
    return powers

