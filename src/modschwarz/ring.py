"""Exact quasi-modular forms: the ring Q[E2, E4, E6, Delta^(+-1/2)].

An element is a finite sum of monomials E2^i E4^a E6^b Delta^(c/2) with
i, a >= 0, b in {0, 1} and any integer c, kept as ``{(i, a, b, c): x}``
with integer numerators x over one positive common denominator, in
canonical form (no zero numerator, and the denominator shares no factor
with all the numerators), so each element has exactly one representation.
E2, E4 and Delta are algebraically independent and E6 is quadratic over
them, by E6^2 = E4^3 - 1728*Delta, so these monomials are a basis: a
product whose E6 exponent reaches 2 is reduced by that identity, and an
element is zero exactly when it has no monomial left.  On lattice m the
monomial expands in p = q^(1/m), from q^(c/2); a half-integral power of
Delta needs lattice 2, where it carries only odd powers of p.

``derivative`` is D = q d/dq, by Ramanujan's rules
    D(E2) = (E2^2 - E4)/12,   D(E4) = (E2*E4 - E6)/3,
    D(E6) = (E2*E6 - E4^2)/2, D(Delta) = E2*Delta,
so that theta = p d/dp is m*D on lattice m.

A ``closed_forms`` literal is a tuple of terms, each a pair of literals
(a numerator and its divisor) or a string: a coefficient, an integer or
p/q and nothing else, then factors E2, E4, E6 or Delta, each alone or as
name^k, such as ``"-720 Delta E4^-1 E6^-1"``.  k is an integer, or for
Delta a whole multiple of 1/2 such as -3/2; a repeated factor adds its
powers, and any other name is refused.  ``read_term``, the one reader of
a string term, serves ``parse`` and ``closed_forms.expand``.  ``parse``
makes a literal a quotient n/d, the negative powers of E2, E4 and E6 and
every divisor going into d.  The ring is an integral domain, so
n/d == n'/d' exactly when n*d' == n'*d: a quotient is decided by one
comparison of cross products, with no expansion and no window.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_SCALARS = (int, Fraction)
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/(0*[1-9][0-9]*))?")
_FACTORS = ("E2", "E4", "E6", "Delta")
_FACTOR = re.compile(rf"({'|'.join(_FACTORS)})(?:\^{_RATIONAL.pattern})?")


class Element:
    """One element of the ring: ``nums`` maps (i, a, b, c) to the
    numerator of E2^i E4^a E6^b Delta^(c/2), over ``den``."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: dict, den: int = 1) -> None:
        nums = {k: x for k, x in nums.items() if x}
        g = gcd(den, *nums.values())
        if den < 0:
            g = -g
        if g != 1:
            nums = {k: x // g for k, x in nums.items()}
            den //= g
        self.nums = nums
        self.den = den

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __repr__(self) -> str:
        return f"Element({self.nums!r}, {self.den!r})"

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = constant(other)
        if not isinstance(other, Element):
            return NotImplemented
        g = gcd(self.den, other.den)
        sa, sb = other.den // g, self.den // g
        out = {k: x * sa for k, x in self.nums.items()}
        for k, y in other.nums.items():
            out[k] = out.get(k, 0) + y * sb
        return Element(out, self.den * sa)

    def __neg__(self):
        return Element({k: -x for k, x in self.nums.items()}, self.den)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            c = Fraction(other)
            return Element(
                {k: x * c.numerator for k, x in self.nums.items()}, self.den * c.denominator
            )
        if not isinstance(other, Element):
            return NotImplemented
        out: dict = {}
        get = out.get
        for (i, a, b, c), x in self.nums.items():
            for (j, e, f, d), y in other.nums.items():
                if b + f == 2:  # E6^2 = E4^3 - 1728*Delta
                    k = (i + j, a + e + 3, 0, c + d)
                    out[k] = get(k, 0) + x * y
                    k = (i + j, a + e, 0, c + d + 2)
                    out[k] = get(k, 0) - 1728 * x * y
                else:
                    k = (i + j, a + e, b + f, c + d)
                    out[k] = get(k, 0) + x * y
        return Element(out, self.den * other.den)

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = ONE
        for _ in range(k):
            out = out * self
        return out

    def derivative(self) -> "Element":
        """D = q d/dq by Ramanujan's rules, over 12*den.  On a monomial of
        weight w = 2i + 4a + 6b + 6c the E2 terms of the four rules add up
        to (w - i) times E2 times the monomial."""
        out: dict = {}
        get = out.get
        for (i, a, b, c), x in self.nums.items():
            k = (i + 1, a, b, c)
            out[k] = get(k, 0) + (i + 4 * a + 6 * b + 6 * c) * x
            if i:  # -E4/12 from D(E2)
                k = (i - 1, a + 1, b, c)
                out[k] = get(k, 0) - i * x
            if a and b:  # -E6/3 from D(E4), times E6 = E4^3 - 1728*Delta
                k = (i, a + 2, 0, c)
                out[k] = get(k, 0) - 4 * a * x
                k = (i, a - 1, 0, c + 2)
                out[k] = get(k, 0) + 4 * 1728 * a * x
            elif a:
                k = (i, a - 1, 1, c)
                out[k] = get(k, 0) - 4 * a * x
            if b:  # -E4^2/2 from D(E6)
                k = (i, a + 2, 0, c)
                out[k] = get(k, 0) - 6 * x
        return Element(out, 12 * self.den)

    def conjugate(self) -> "Element":
        """The image under Delta^(1/2) -> -Delta^(1/2): p -> -p on lattice 2."""
        return Element({k: -x if k[3] % 2 else x for k, x in self.nums.items()}, self.den)


def constant(c: int | Fraction) -> Element:
    """The constant c as an element."""
    c = Fraction(c)
    return Element({(0, 0, 0, 0): c.numerator}, c.denominator)


ONE = constant(1)
E2 = Element({(1, 0, 0, 0): 1})
E4 = Element({(0, 1, 0, 0): 1})
E6 = Element({(0, 0, 1, 0): 1})


def polynomial(coeffs, x: Element) -> Element:
    """sum coeffs[j] * x^j, by Horner's rule."""
    out = constant(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def read_term(text: str) -> tuple[Fraction, list[int]]:
    """One string term of a literal, by the grammar of the module
    docstring: its coefficient, and the powers of E2, E4 and E6 and twice
    the power of Delta, in that order."""
    coefficient, *factors = text.split() or [""]
    if not _RATIONAL.fullmatch(coefficient):
        raise ValueError(f"{text!r}: {coefficient!r} is not an integer or p/q")
    powers = [0, 0, 0, 0]
    for factor in factors:
        match = _FACTOR.fullmatch(factor)
        if not match:
            raise ValueError(f"{text!r}: unknown factor {factor!r}")
        name, p, q = match.groups()
        j = _FACTORS.index(name)
        k, rest = divmod(int(p or 1) * (2 if j == 3 else 1), int(q or 1))
        if rest:
            raise ValueError(f"{text!r}: {factor} is not a power of {name}{'^(1/2)' * (j == 3)}")
        powers[j] += k
    return Fraction(coefficient), powers


def _term(text: str) -> tuple[Element, Element]:
    """One string term as (numerator, denominator): the negative powers of
    E2, E4 and E6 go below, Delta^(c/2) stays above for every integer c.
    Each is one monomial times a power of E6, the only factor that reduces."""
    x, (i, a, b, c) = read_term(text)
    num = Element({(max(i, 0), max(a, 0), 0, c): x.numerator}, x.denominator)
    den = Element({(max(-i, 0), max(-a, 0), 0, 0): 1})
    return num * E6 ** max(b, 0), den * E6 ** max(-b, 0)


def parse(literal: tuple) -> tuple[Element, Element]:
    """A ``closed_forms`` literal as a quotient (numerator, denominator),
    the denominator nonzero: a divisor that is the zero element is refused
    with ZeroDivisionError."""
    num, den = constant(0), ONE
    for term in literal:
        if isinstance(term, str):
            n, d = _term(term)
        else:
            (a, b), (c, e) = parse(term[0]), parse(term[1])
            if not c:
                raise ZeroDivisionError(f"divisor {term[1]!r} is the zero element")
            n, d = a * e, b * c
        num, den = (num + n, den) if d == den else (num * d + n * den, den * d)
    return num, den
