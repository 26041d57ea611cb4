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
from .intpoly import DensePoly, fraction_free_rows, poly_add, poly_mul

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

    __slots__ = ("_chain",)

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
        denominators, the product expands once, exactly, over the Gaussian
        integers: a real root a as D s - a, a pair as one quadratic
        (D s - a - i b)(D s - a' - i b').  The real part is D^n times the
        polynomial; the imaginary part, zero for exact conjugates, must stay
        within 1e-9 of the largest coefficient.  Coefficients are rounded to
        denominators <= 10**6 only when the reduced common denominator is
        larger and no coefficient of s^k moves by more than 1e-9 of its
        bound e_{n-k}(|r_1|, ..., |r_n|).
        """
        reals: list[float] = []
        pos: list[complex] = []
        neg: list[complex] = []
        for r in map(complex, roots):
            if abs(r.imag) <= _PAIR_TOL * max(1.0, abs(r)):
                reals.append(r.real)
            else:
                (pos if r.imag > 0 else neg).append(r)
        if len(pos) != len(neg):
            raise UnpairedComplexRoot(
                f"{len(pos)} roots above the real axis vs {len(neg)} below")
        pairs: list[float] = []
        for r in pos:
            dists = [abs(r - u.conjugate()) for u in neg]
            best = min(range(len(dists)), key=dists.__getitem__)
            if dists[best] > _PAIR_TOL * max(1.0, abs(r)):
                raise UnpairedComplexRoot(f"no conjugate partner for root {r}")
            u = neg.pop(best)
            pairs += [r.real, r.imag, u.real, u.imag]

        ratios = [x.as_integer_ratio() for x in reals + pairs]
        d = max((q for _, q in ratios), default=1)
        nums = [n * (d // q) for n, q in ratios]
        dd = d * d
        re, im = [1], []
        for a in nums[:len(reals)]:
            # re (d s - a), ascending in s
            re = [d * p - a * q for p, q in zip([0, *re], [*re, 0])]
        it = iter(nums[len(reals):])
        for a, b, a2, b2 in zip(it, it, it, it):
            # (d s - a - i b)(d s - a2 - i b2) = c + i e, ascending in s
            c0, c1 = a * a2 - b * b2, -d * (a + a2)
            e0, e1 = a * b2 + a2 * b, -d * (b + b2)
            if im or e0 or e1:
                c = [c0, c1, dd]
                re, im = (poly_add(poly_mul(re, c), poly_mul(im, [-e0, -e1])),
                          poly_add(poly_mul(re, [e0, e1]), poly_mul(im, c)))
            else:
                re = [c0 * p + c1 * q + dd * r
                      for p, q, r in zip([*re, 0, 0], [0, *re, 0], [0, 0, *re])]
        residue = max(map(abs, im), default=0)
        if 10 ** 9 * residue > max(map(abs, re)):
            raise UnpairedComplexRoot(f"imaginary residue {residue / re[-1]:.3e} "
                                      "exceeds tolerance after pairing")

        lead = re[-1]
        g = gcd(lead, *re)
        exact = cls._raw([c // g for c in re], lead // g)
        if lead // g <= 10 ** 6:
            return exact
        scale = [1.0]   # prod (s + |r_j|), ascending
        for m in map(abs, [*reals, *map(complex, pairs[0::2], pairs[1::2])]):
            scale = [x + m * y for x, y in zip([0.0, *scale], [*scale, 0.0])]
        rounded = [Fraction(c, lead).limit_denominator(10 ** 6) for c in re]
        if all(abs(float(x - Fraction(c, lead))) <= 1e-9 * s
               for x, c, s in zip(rounded, re, scale)):
            return cls(rounded)
        return exact

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

    def _routh_chain(self) -> list[list[int]]:
        """`intpoly.fraction_free_rows` of the integer coefficients, built
        once: `routh.build_array` and `hurwitz.hurwitz_stable` both start
        from it.  The lists are shared, so no caller may mutate them."""
        chain = getattr(self, "_chain", None)
        if chain is None:
            top = self._ints[::-1]
            chain = self._chain = fraction_free_rows(top[0::2], top[1::2])
        return chain

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

