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
            coeffs = _parse_terms(stripped)
        else:
            coeffs = parse_coefficient_list(stripped)[::-1]
        p = cls(coeffs)
        if p.is_zero:
            raise EmptyPolynomial(f"all coefficients are zero in {text!r}")
        return p

    @classmethod
    def from_roots(cls, roots: Sequence[complex]) -> "Polynomial":
        """Monic polynomial with the given roots.

        Non-real roots must occur in conjugate pairs (within `_PAIR_TOL`).
        Real and paired factors are expanded exactly, as integer polynomials
        over one common denominator (float components are exact binary
        rationals), then each coefficient is rounded to the nearest fraction
        with denominator <= 10**6.  When the reduced common denominator
        already fits, the rounding is the identity, and the product is
        returned in integer form without it.
        A float expansion cross-checks that imaginary residue stays below
        1e-9 relative to the largest coefficient.
        """
        items = [complex(r) for r in roots]
        reals: list[float] = []
        pos: list[complex] = []
        neg: list[complex] = []
        for r in items:
            if abs(r.imag) <= _PAIR_TOL * max(1.0, abs(r)):
                reals.append(r.real)
            elif r.imag > 0:
                pos.append(r)
            else:
                neg.append(r)
        if len(pos) != len(neg):
            raise UnpairedComplexRoot(
                f"{len(pos)} roots above the real axis vs {len(neg)} below")
        pairs: list[tuple[complex, complex]] = []
        unmatched = list(neg)
        for r in pos:
            dists = [abs(r - u.conjugate()) for u in unmatched]
            best = min(range(len(dists)), key=dists.__getitem__)
            if dists[best] > _PAIR_TOL * max(1.0, abs(r)):
                raise UnpairedComplexRoot(f"no conjugate partner for root {r}")
            pairs.append((r, unmatched.pop(best)))

        product = cls._raw([1], 1)
        for x in reals:
            a, d = x.as_integer_ratio()
            product *= cls._raw([-a, d], d)             # (d*s - a) / d
        for r, u in pairs:
            (re1, re2, im1, im2), d = _binary_over_common_denominator(
                r.real, u.real, r.imag, u.imag)
            # (s - r)(s - u) = (d^2 s^2 - d(re1 + re2) s + re1 re2 - im1 im2) / d^2
            product *= cls._raw([re1 * re2 - im1 * im2, -d * (re1 + re2), d * d],
                                d * d)

        approx = _expand_complex(items)
        scale = max(1.0, max(abs(c) for c in approx))
        residue = max(abs(c.imag) for c in approx)
        if residue > 1e-9 * scale:
            raise UnpairedComplexRoot(
                f"imaginary residue {residue:.3e} exceeds tolerance after pairing")

        g = gcd(product._denom, *product._ints)
        if product._denom // g <= 10 ** 6:
            return cls._raw([c // g for c in product._ints], product._denom // g)
        return cls([c.limit_denominator(10 ** 6) for c in product.coeffs])

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


def _parse_terms(text: str) -> list[Fraction]:
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
    top = max(powers)
    return [powers.get(k, Fraction(0)) for k in range(top + 1)]


def _binary_over_common_denominator(*values: float) -> tuple[list[int], int]:
    """Exact integer numerators of finite floats over one shared denominator.

    A float's exact denominator is a power of two, so the largest of them is
    a multiple of every other.
    """
    ratios = [v.as_integer_ratio() for v in values]
    denom = max(d for _, d in ratios)
    return [n * (denom // d) for n, d in ratios], denom


def _expand_complex(roots: Sequence[complex]) -> list[complex]:
    coeffs = [1.0 + 0j]
    for r in roots:
        nxt = [0j] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= r * c
        coeffs = nxt
    return coeffs
