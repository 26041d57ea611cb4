"""Integer polynomials: the dense form that `exact_arith.EpsPoly` (in e) and
`polynomial.Polynomial` (in s) share, and the exact algorithms on it.

A polynomial is held as a list of integer coefficients ascending by power,
with no trailing zero (the `_ints` form), over one shared positive
denominator, the only form a `DensePoly` stores.  The functions below take
and return such lists: product, primitive part, gcd with cofactors
(GCDHEU, then the primitive PRS), exact and pseudo division, Horner
evaluation at an integer or, homogeneously, at a rational point, and the
fraction-free Routh recurrence over Z and Z[x] that `routh`, `hurwitz` and
`sweep` share, with the step that carries it over a zero first entry.  They
never mutate their inputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

_CoeffLike = Union[int, Fraction]


class DensePoly:
    """Dense polynomial with rational coefficients: the core that `EpsPoly`
    (in e) and `polynomial.Polynomial` (in s) share.

    The polynomial is held as integer coefficients, ascending by power with
    trailing zeros stripped, over one shared positive denominator; add,
    neg, mul, scale and equality run on those integers.  `coeffs` and
    `coeff` build Fractions on each read; the zero polynomial has an empty
    coefficient tuple.  Operands of two different subclasses do not mix.
    """

    __slots__ = ("_ints", "_denom")

    def __init__(self, coeffs: Iterable[_CoeffLike] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        denom = lcm(*(c.denominator for c in cs))
        self._ints = [c.numerator * (denom // c.denominator) for c in cs]
        self._denom = denom

    @classmethod
    def _raw(cls, ints: list[int], denom: int):
        """Wrap integer coefficients with no trailing zero over a positive
        denominator, without rechecking.  The list is never mutated."""
        self = object.__new__(cls)
        self._ints = ints
        self._denom = denom
        return self

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._denom) for c in self._ints)

    def coeff(self, k: int) -> Fraction:
        """Coefficient of the k-th power; zero outside the stored range."""
        if 0 <= k < len(self._ints):
            return Fraction(self._ints[k], self._denom)
        return Fraction(0)

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
        return type(self)._raw(_poly_add(a, b), denom)

    def __neg__(self):
        return type(self)._raw([-c for c in self._ints], self._denom)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return type(self)._raw(poly_mul(self._ints, other._ints),
                               self._denom * other._denom)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        a, b = self._ints, other._ints
        da, db = self._denom, other._denom
        return len(a) == len(b) and all(x * db == y * da for x, y in zip(a, b))

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


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    """Sum of two integer polynomials, with no trailing zero."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    while out and not out[-1]:
        out.pop()
    return out


def poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two integer polynomials; empty when either is zero."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b, i):
                out[j] += ca * cb
    # a product of nonzero leading coefficients is nonzero
    return out


def _primitive(coeffs: list[int]) -> list[int]:
    """The coefficients divided by their content; the input has no
    trailing zero and is left unchanged."""
    g = gcd(*coeffs)
    return coeffs if g == 1 else [c // g for c in coeffs]


# GCDHEU tries this many evaluation points before the PRS takes over, each
# the last one times 73794/27011 (about 1 + sqrt 3)
_HEU_TRIES = 6
_HEU_GROWTH = (73794, 27011)


def gcd_cofactors(a: list[int], b: list[int]
                  ) -> tuple[list[int], list[int], list[int]]:
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


# GCDHEU calls this Horner form rather than `eval_homogeneous` with d = 1,
# which measured 14-44% slower per call on its inputs
def _int_eval(coeffs: list[int], x: int) -> int:
    """Value at an integer point, by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def eval_homogeneous(coeffs: list[int], n: int, d: int) -> int:
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
    """Exact quotient of integer polynomials over Z; raises ArithmeticError
    when b does not divide a there."""
    q = _int_div(a, b)
    if q is None:
        raise ArithmeticError("non-exact polynomial division")
    return q


def _scalar_div_exact(a: list, c: int) -> list[int]:
    """Every integer of a divided by c; raises ArithmeticError unless each
    division is exact."""
    out = []
    for x in a:
        q, r = divmod(x, c)
        if r:
            raise ArithmeticError(f"{x} is not a multiple of {c}")
        out.append(q)
    return out


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


# -- the fraction-free Routh recurrence -------------------------------------

def sylvester_row(f2: list[int], f1: list[int], div: int | None) -> list[int]:
    """The Routh row after the integer rows f2 and f1, fraction-free:
    (f1[0]*f2[j+1] - f2[0]*f1[j+1]) / div for each j, an entry past the end
    of f1 reading as zero.  `div` is the pivot two rows above f2, or None
    where that pivot is 1; a division that is not exact raises
    ArithmeticError."""
    head, pivot = f2[0], f1[0]
    row = [pivot * b - head * a for b, a in zip(f2[1:], f1[1:])]
    row += [pivot * b for b in f2[len(f1):]]
    return row if div is None else _scalar_div_exact(row, div)


def sylvester_row_poly(f2: list[list[int]], f1: list[list[int]],
                       div: list[int] | None) -> list[list[int]]:
    """`sylvester_row` over Z[x]: each entry and `div` is an integer
    polynomial in the `_ints` form."""
    head, pivot = [-c for c in f2[0]], f1[0]
    row = [_poly_add(poly_mul(pivot, b), poly_mul(head, a))
           for b, a in zip(f2[1:], f1[1:])]
    row += [poly_mul(pivot, b) for b in f2[len(f1):]]
    return row if div is None else [_int_div_exact(x, div) for x in row]


def fraction_free_rows(f0: list, f1: list, count: int,
                       step=sylvester_row, pivots=(None, None)) -> list[list]:
    """The fraction-free Routh rows F_0, F_1, F_2, ... that start from f0
    and f1, up to `count` rows; the list stops early after the first row
    whose first entry is zero.

    F_{k+1} = step(F_{k-1}, F_k, Delta_{k-2}) with Delta_m = F_m[0] and
    Delta_0 = Delta_{-1} = 1.  By Sylvester's identity (Bareiss, Math.
    Comp. 22, 1968) Delta_m is the m-th leading minor of the Hurwitz matrix
    of the polynomial whose descending coefficients interleave f0 and f1,
    so every division is exact; the true Routh row k is F_k / Delta_{k-1},
    up to the scale of f0 (k even) or f1 (k odd).  `step` is
    `sylvester_row` over Z or `sylvester_row_poly` over Z[x].  `pivots`
    are (Delta_{-1}, Delta_0), None for 1; `bridge_gap` resumes the
    recurrence mid-chain with the two pivots above its rows.
    """
    rows = [f0, f1]
    while len(rows) < count and rows[-1][0]:
        k = len(rows)
        rows.append(step(rows[-2], rows[-1],
                         rows[k - 3][0] if k > 3 else pivots[k - 2]))
    return rows


def bridge_gap(u: list[int], v: list[int], a: int, b: int
               ) -> tuple[int, int, list[int], list[int]]:
    """Carry the fraction-free recurrence over a zero first entry.

    u = F_{m-1} and v = F_m, whose first g >= 1 entries are zero and whose
    entry v_g is not; a = Delta_{m-1} and b = Delta_{m-2}.  Delta_m to
    Delta_{m+2g-2} are then zero; this returns g, Delta_{m+2g-1} and the
    rows F_{m+2g} and F_{m+2g+1}, from which `fraction_free_rows` resumes
    with the pivots (Delta_{m+2g-1}, Delta_{m+2g}).

    In the Hurwitz determinant of the pair (u, v) the first g columns hold
    only the first g shifted copies of u, which leave h = (-1)^(g(g+1)/2)
    u_0^g.  One pseudo-division w = v_g^(g+1) u - Q v[g:] clears the first
    g + 1 entries of each later copy of u (the gap step of subresultant
    sequences: Basu, Pollack & Roy, Algorithms in Real Algebraic Geometry,
    ch. 8), and the pair (v[g:], w[g+1:]) is left.  Hence
        Delta_{m+2g-1} = h v_g^g a / (a b)^g,
        F_{m+2g} = h v_g^g v[g:] / (a b)^g,
        F_{m+2g+1} = h w[g+1:] / ((a b)^g b),
    all minors of the integer Hurwitz matrix, so each division is exact;
    one that is not raises ArithmeticError.
    """
    g = next(j for j, x in enumerate(v) if x)
    vg, tail = v[g], v[g:]
    w = list(u)
    for k in range(g + 1):
        c = w[k]
        w = [vg * x for x in w]
        for j, y in enumerate(tail, k):
            w[j] -= c * y
    h = (-1) ** (g * (g + 1) // 2) * u[0] ** g
    head = h * vg ** g
    div = (a * b) ** g
    return (g, _scalar_div_exact([head * a], div)[0],
            _scalar_div_exact([head * x for x in tail], div),
            _scalar_div_exact([h * x for x in w[g + 1:]], div * b))


def cancel_gcd(polys: list[list[int]]) -> list[list[int]]:
    """The integer polynomials divided by their gcd in Z[x], the content
    included; zero polynomials stay zero, and at least one must be
    nonzero."""
    nonzero = sorted((q for q in polys if q), key=len)
    c = gcd(*(x for q in nonzero for x in q))
    g = [1]
    if len(nonzero[0]) > 1:
        g = _primitive(nonzero[0])
        for q in nonzero[1:]:
            g = gcd_cofactors(g, _primitive(q))[0]
            if len(g) == 1:
                break
    g = [c * x for x in g]
    return polys if g == [1] else [_int_div_exact(q, g) for q in polys]
