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
from typing import Iterable, Sequence

from .errors import EmptyPolynomial, ParseError, UnpairedComplexRoot

_TOKEN_SPLIT = re.compile(r"[,\s]+")

_TERM = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            (?P<coef>\d+/\d+|\d+(?:\.\d+)?)\s*(?:\*\s*(?P<var1>s(?:\^(?P<pow1>\d+))?))?
          | (?P<var2>s(?:\^(?P<pow2>\d+))?)
        )\s*""",
    re.VERBOSE,
)


class Polynomial:
    """Real polynomial with exact rational coefficients.

    The zero polynomial is a distinct state (empty coefficient tuple) with
    no defined degree.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int | Fraction] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

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
            coeffs = _parse_coeff_list(stripped)
        p = cls(coeffs)
        if p.is_zero:
            raise EmptyPolynomial(f"all coefficients are zero in {text!r}")
        return p

    @classmethod
    def from_roots(cls, roots: Sequence[complex], pair_tol: float = 1e-12) -> "Polynomial":
        """Monic polynomial with the given roots.

        Non-real roots must occur in conjugate pairs (within `pair_tol`).
        Real and paired factors are expanded exactly, as integer polynomials
        over one common denominator (float components are exact binary
        rationals), then each coefficient is rounded to the nearest fraction
        with denominator <= 10**6; the rounding is the identity whenever the
        exact denominators already fit.
        A float expansion cross-checks that imaginary residue stays below
        1e-9 relative to the largest coefficient.
        """
        items = [complex(r) for r in roots]
        reals: list[float] = []
        pos: list[complex] = []
        neg: list[complex] = []
        for r in items:
            if abs(r.imag) <= pair_tol * max(1.0, abs(r)):
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
            if dists[best] > pair_tol * max(1.0, abs(r)):
                raise UnpairedComplexRoot(f"no conjugate partner for root {r}")
            pairs.append((r, unmatched.pop(best)))

        ints, denom = [1], 1
        for x in reals:
            a, d = x.as_integer_ratio()
            ints = _mul_int(ints, [-a, d])          # (d*s - a) / d
            denom *= d
        for r, u in pairs:
            (re1, re2, im1, im2), d = _binary_over_common_denominator(
                r.real, u.real, r.imag, u.imag)
            # (s - r)(s - u) = (d^2 s^2 - d(re1 + re2) s + re1 re2 - im1 im2) / d^2
            ints = _mul_int(ints, [re1 * re2 - im1 * im2, -d * (re1 + re2), d * d])
            denom *= d * d

        approx = _expand_complex(items)
        scale = max(1.0, max(abs(c) for c in approx))
        residue = max(abs(c.imag) for c in approx)
        if residue > 1e-9 * scale:
            raise UnpairedComplexRoot(
                f"imaginary residue {residue:.3e} exceeds tolerance after pairing")

        return cls([Fraction(c, denom).limit_denominator(10 ** 6) for c in ints])

    # -- accessors ------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def constant_term(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def coeff(self, k: int) -> Fraction:
        """Coefficient of s^k; zero outside the stored range."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    # -- operations -----------------------------------------------------------

    def derivative(self) -> "Polynomial":
        return Polynomial([k * c for k, c in enumerate(self.coeffs)][1:])

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
        while not self.coeffs[k]:
            k += 1
        return k, Polynomial(self.coeffs[k:])

    def scale(self, factor: int | Fraction) -> "Polynomial":
        f = Fraction(factor)
        return Polynomial([c * f for c in self.coeffs])

    def __neg__(self) -> "Polynomial":
        return Polynomial([-c for c in self.coeffs])

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Polynomial(out)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Polynomial()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Polynomial(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                power = "s" if k == 1 else f"s^{k}"
                body = power if mag == 1 else f"{mag}*{power}"
            parts.append(("-" if c < 0 else "+", body))
        sign, body = parts[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"Polynomial({self})"

    def descending_strings(self) -> list[str]:
        """Coefficients as exact fraction strings, highest power first."""
        return [str(c) for c in reversed(self.coeffs)]


def _parse_coeff_list(text: str) -> list[Fraction]:
    tokens = [t for t in _TOKEN_SPLIT.split(text) if t]
    coeffs = []
    for tok in tokens:
        try:
            coeffs.append(Fraction(tok))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad coefficient {tok!r}") from exc
    if not coeffs:
        raise ParseError(f"no coefficients in {text!r}")
    return list(reversed(coeffs))


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
            coef = Fraction(m.group("coef"))
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


def _mul_int(a: list[int], b: list[int]) -> list[int]:
    """Product of two ascending integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b, i):
            out[j] += ca * cb
    return out


def _expand_complex(roots: Sequence[complex]) -> list[complex]:
    coeffs = [1.0 + 0j]
    for r in roots:
        nxt = [0j] * (len(coeffs) + 1)
        for k, c in enumerate(coeffs):
            nxt[k + 1] += c
            nxt[k] -= r * c
        coeffs = nxt
    return coeffs
