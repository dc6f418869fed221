"""Truncated Laurent series with exact rational coefficients.

Series live on a lattice ``m`` in {1, 2}: the expansion variable is
``p = q**(1/m) = exp(2*pi*i*tau/m)``.  A series stores coefficients for
the exponent window ``n_min..N`` only.  Exponents below ``n_min`` are
genuinely zero; exponents above ``N`` are *unknown*, not zero.  Every
operation returns the tightest window its result is trusted on, so
downstream code checks ``.N`` instead of silently assuming zero tails.

All coefficient arithmetic is exact; floats are rejected.  Values are
immutable, so they can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Mapping, Sequence


class ZeroLeadingCoefficient(ArithmeticError):
    """Inversion of a series that is zero on its whole known window."""


class NonzeroConstantTerm(ArithmeticError):
    """Antidifferentiation of a series whose constant term is not zero."""


class IncompatibleLattice(ValueError):
    """Lattice change that is not an integer refinement."""


class UnknownCoefficient(LookupError):
    """Access to a coefficient beyond the trusted window."""


_SCALARS = (int, Fraction)


def format_rational(c: Fraction) -> str:
    """Canonical string form: plain integer, or ``num/den`` in lowest terms."""
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def _clear_denominators(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _convolve(
    a: Sequence[Fraction], b: Sequence[Fraction], lo: int, hi: int
) -> list[Fraction]:
    """Coefficients ``lo..hi-1`` of the product of coefficient lists a and b.

    Each factor is put over one common denominator first, so the inner
    loop multiplies and adds plain integers and every output coefficient
    is reduced once, at the end.
    """
    A, da = _clear_denominators(a)
    B, db = _clear_denominators(b)
    acc = [0] * (hi - lo)
    for i, ai in enumerate(A[:hi]):
        if not ai:
            continue
        for j in range(max(lo - i, 0), min(len(B), hi - i)):
            bj = B[j]
            if bj:
                acc[i + j - lo] += ai * bj
    den = da * db
    return [Fraction(c, den) for c in acc]


@dataclass(frozen=True)
class LaurentSeries:
    """A truncated Laurent series in ``p = q**(1/m)`` over ``Fraction``.

    ``coeffs[i]`` is the coefficient of ``p**(n_min + i)``; the last stored
    exponent is the trust bound ``N``.  Construction canonicalises by
    converting coefficients to ``Fraction`` and dropping leading zeros
    (they are already implied by the window semantics).
    """

    m: int
    n_min: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.m not in (1, 2):
            raise ValueError(f"lattice must be 1 or 2, got {self.m}")
        if not self.coeffs:
            raise ValueError("a series needs at least one stored coefficient")
        coeffs = tuple(
            c if isinstance(c, Fraction) else Fraction(c) for c in self.coeffs
        )
        n_min = self.n_min
        start = 0
        while start < len(coeffs) - 1 and coeffs[start] == 0:
            start += 1
        if start:
            coeffs = coeffs[start:]
            n_min += start
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "n_min", n_min)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_terms(
        cls,
        m: int,
        terms: Mapping[int, object],
        N: int,
        n_min: int | None = None,
    ) -> "LaurentSeries":
        """Series with the given ``{exponent: coefficient}``, trusted through N."""
        if n_min is None:
            n_min = min((n for n in terms), default=N)
            n_min = min(n_min, N)
        if any(n < n_min or n > N for n in terms):
            raise ValueError("term exponent outside the requested window")
        coeffs = tuple(Fraction(terms.get(n, 0)) for n in range(n_min, N + 1))
        return cls(m, n_min, coeffs)

    @classmethod
    def zero(cls, m: int, N: int) -> "LaurentSeries":
        return cls(m, N, (Fraction(0),))

    @classmethod
    def one(cls, m: int, N: int) -> "LaurentSeries":
        return cls.from_terms(m, {0: 1}, N, n_min=0)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def N(self) -> int:
        """Largest exponent whose coefficient is known."""
        return self.n_min + len(self.coeffs) - 1

    def coeff(self, n: int) -> Fraction:
        """Coefficient of ``p**n``; zero below the window, error above it."""
        if n < self.n_min:
            return Fraction(0)
        if n > self.N:
            raise UnknownCoefficient(
                f"coefficient of p^{n} is beyond the trusted order {self.N}"
            )
        return self.coeffs[n - self.n_min]

    @property
    def order(self) -> int | None:
        """Exponent of the first nonzero coefficient, or None if zero throughout."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                return self.n_min + i
        return None

    @property
    def leading_coefficient(self) -> Fraction:
        v = self.order
        if v is None:
            raise ZeroLeadingCoefficient("series is zero on its known window")
        return self.coeff(v)

    def is_zero(self) -> bool:
        return self.order is None

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Nonzero (exponent, coefficient) pairs in ascending exponent order."""
        for i, c in enumerate(self.coeffs):
            if c != 0:
                yield self.n_min + i, c

    def matches(self, other: "LaurentSeries", *, min_overlap: int = 1) -> bool:
        """Do the two series agree on every exponent both know about?

        Raises if the common window holds fewer than ``min_overlap``
        coefficients, so a vacuous comparison cannot pass silently.
        """
        a, b = _aligned(self, other)
        lo = min(a.n_min, b.n_min)
        hi = min(a.N, b.N)
        if hi - lo + 1 < min_overlap:
            raise ValueError(
                f"common window [{lo}, {hi}] is shorter than min_overlap={min_overlap}"
            )
        return all(a.coeff(n) == b.coeff(n) for n in range(lo, hi + 1))

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            return self._add_scalar(Fraction(other))
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        a, b = _aligned(self, other)
        n_min = min(a.n_min, b.n_min)
        N = min(a.N, b.N)
        coeffs = tuple(a.coeff(n) + b.coeff(n) for n in range(n_min, N + 1))
        return LaurentSeries(a.m, n_min, coeffs)

    __radd__ = __add__

    def _add_scalar(self, c: Fraction) -> "LaurentSeries":
        if c == 0 or self.N < 0:
            # A constant sits at exponent 0; if the window ends below that,
            # the sum is indistinguishable from self on the known range.
            return self
        n_min = min(self.n_min, 0)
        coeffs = tuple(
            self.coeff(n) + (c if n == 0 else 0) for n in range(n_min, self.N + 1)
        )
        return LaurentSeries(self.m, n_min, coeffs)

    def __neg__(self):
        return LaurentSeries(self.m, self.n_min, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            return self._add_scalar(Fraction(-other))
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            c = Fraction(other)
            return LaurentSeries(self.m, self.n_min, tuple(c * x for x in self.coeffs))
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        a, b = _aligned(self, other)
        n_min = a.n_min + b.n_min
        # Beyond this bound the convolution would need unknown coefficients.
        N = min(a.N + b.n_min, b.N + a.n_min)
        coeffs = _convolve(a.coeffs, b.coeffs, 0, N - n_min + 1)
        return LaurentSeries(a.m, n_min, tuple(coeffs))

    __rmul__ = __mul__

    def inverse(self) -> "LaurentSeries":
        """Multiplicative inverse.

        For a series of order ``v`` known through ``N`` the inverse is
        trusted through ``N - 2v`` (the unit part carries ``N - v``
        relative coefficients and the pole flips sign).

        The unit part ``u`` is inverted by Newton iteration: if ``b`` is
        ``u**-1`` to ``k`` terms, then ``b - b*(u*b - 1)`` is ``u**-1`` to
        ``2k`` terms.  ``u*b - 1`` vanishes below ``p**k``, so each step
        computes only its coefficients ``k..2k-1`` and multiplies them by
        ``b``; both products run on the integer convolution of ``__mul__``.
        The doubling stops at ``len(u)`` terms, so the result is exactly
        the unique inverse on the window ``-v..N-2v``.
        """
        v = self.order
        if v is None:
            raise ZeroLeadingCoefficient("cannot invert the zero series")
        unit = self.coeffs[v - self.n_min:]
        n = len(unit)
        out = [1 / unit[0]]
        k = 1
        while k < n:
            k2 = min(2 * k, n)
            err = _convolve(unit[:k2], out, k, k2)
            out += (-c for c in _convolve(out, err, 0, k2 - k))
            k = k2
        return LaurentSeries(self.m, -v, tuple(out))

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, LaurentSeries):
            return self * other.inverse()
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        if k == 0:
            return LaurentSeries.one(self.m, self.N - self.n_min)
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # ------------------------------------------------------------------
    # calculus on the lattice
    # ------------------------------------------------------------------

    def theta(self) -> "LaurentSeries":
        """Euler operator ``p d/dp``: multiply the ``p**n`` coefficient by n."""
        coeffs = tuple(
            c * (self.n_min + i) for i, c in enumerate(self.coeffs)
        )
        return LaurentSeries(self.m, self.n_min, coeffs)

    def theta_antider(self) -> "LaurentSeries":
        """Termwise antiderivative of ``theta``; integration constant 0.

        The input must have zero constant term (otherwise it is not the
        theta-image of anything single-valued in p).
        """
        if self.n_min <= 0 <= self.N and self.coeff(0) != 0:
            raise NonzeroConstantTerm(
                f"constant term {self.coeff(0)} blocks antidifferentiation"
            )
        coeffs = tuple(
            c / n if (n := self.n_min + i) != 0 else Fraction(0)
            for i, c in enumerate(self.coeffs)
        )
        return LaurentSeries(self.m, self.n_min, coeffs)

    # ------------------------------------------------------------------
    # lattice handling
    # ------------------------------------------------------------------

    def align(self, m_target: int) -> "LaurentSeries":
        """Re-express on a finer lattice; exponents scale by m_target/m."""
        if m_target == self.m:
            return self
        if m_target % self.m != 0 or m_target not in (1, 2):
            raise IncompatibleLattice(f"cannot align lattice {self.m} to {m_target}")
        k = m_target // self.m
        # Exponents between stored multiples are known-zero, so the trust
        # bound tightens to k*(N+1) - 1.
        terms = {k * n: c for n, c in self.items()}
        return LaurentSeries.from_terms(
            m_target, terms, k * (self.N + 1) - 1, n_min=k * self.n_min
        )

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by the exact monomial ``p**k``."""
        return LaurentSeries(self.m, self.n_min + k, self.coeffs)

    def truncate(self, N: int) -> "LaurentSeries":
        """Restrict the window to end at N (a no-op if already tighter)."""
        if N >= self.N:
            return self
        if N < self.n_min:
            return LaurentSeries.zero(self.m, N)
        return LaurentSeries(self.m, self.n_min, self.coeffs[: N - self.n_min + 1])

    # ------------------------------------------------------------------
    # serialization / rendering
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n_min": self.n_min,
            "N": self.N,
            "coeffs": {str(n): format_rational(c) for n, c in self.items()},
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "LaurentSeries":
        terms = {int(n): Fraction(v) for n, v in d["coeffs"].items()}
        return cls.from_terms(int(d["m"]), terms, int(d["N"]), n_min=int(d["n_min"]))

    def __str__(self) -> str:
        parts = []
        for n, c in self.items():
            cs = format_rational(c)
            if n == 0:
                parts.append(cs)
            elif n == 1:
                parts.append(f"{cs}*p")
            else:
                parts.append(f"{cs}*p^{n}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(p^{self.N + 1})"


def _aligned(a: LaurentSeries, b: LaurentSeries) -> tuple[LaurentSeries, LaurentSeries]:
    if a.m == b.m:
        return a, b
    m = max(a.m, b.m)
    return a.align(m), b.align(m)
