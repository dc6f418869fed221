"""Truncated Laurent series with exact rational coefficients.

Series live on a lattice ``m`` in {1, 2}: the expansion variable is
``p = q**(1/m) = exp(2*pi*i*tau/m)``.  A series stores coefficients for
the exponent window ``n_min..N`` only.  Exponents below ``n_min`` are
genuinely zero; exponents above ``N`` are *unknown*, not zero.  Every
operation returns the tightest window its result is trusted on, so
downstream code checks ``.N`` instead of silently assuming zero tails.

A series is stored as integer numerators ``nums`` over one common
denominator ``den``: the coefficient of ``p**(n_min + i)`` is
``nums[i] / den``.  The form is canonical:

* ``den > 0`` and ``gcd(den, *nums) == 1``, so ``den`` is the least
  common denominator of the coefficients;
* ``nums[0] != 0``, except for the zero series, which keeps the single
  numerator 0 at the end of its window.

So every value has exactly one representation, and ``==`` and ``hash``
mean the same coefficients on the same window.  Every ring operation works
on plain ints and reduces its result once, with one ``gcd`` over the
whole series; ``coeff``, ``coeffs`` and ``items`` give ``Fraction`` views
for readers.  A product or a quotient first divides the numerators of each
side by their content (their ``gcd``), so the convolutions multiply the
smallest integers that carry the value; the contents go back into the
result as one rational factor.  A product is one kernel, ``_convolve``,
one dot product per output coefficient.  Two products against one small
factor, as g*E4 and S*E4 are in a solve, run as one (``_mul_pair``):
the numerators of both travel as one packed integer list, at a width
that ``_pack_width`` proves wide enough.  Division is one kernel,
``_quotient``: forward substitution, one coefficient of the quotient at a
time.  Each coefficient stays over the denominator of its own step,
which grows only by what the divisor's leading numerator leaves after
cancelling; all of them go over the last denominator once, at the end.
Both kernels run at half length on numerators that are zero at every odd
index, as every lattice-2 series of an odd-r solve is.

The quotient's early numerators are padded: over the last denominator
they carry the factors that only the later steps brought in.  For
R = -2g/S at r = 96, den has 3310 bits, its first 24 numerators share
2176 of them, and 37% of R's numerator bits are such padding.  So a
product whose factor with the larger den is padded runs block by block
(``_convolve_blocks``).  With G_k the gcd of den and the numerators up
to the end of block k, each G_k divides the one before; each block is
divided by its G_k before its dot products, so it is multiplied at its
own size, and Horner over the blocks puts the G_k back.  That costs one
more ``_convolve`` call per block and output coefficient, so
``_padded`` takes the path only when the first block shares more than
512 bits with den, and a den of 1 (S, E4, t and t0) costs one
bit-length test.  Blocks took 0.8 of the plain kernel's time for R*S at
(12, 240) and (64, 66), 0.6 at (96, 98) and 0.4-0.55 at (199, 400) and
(200, 402); below 320 shared bits (every R*S of r <= 12 up to order 90)
they took 1.02-1.22 of it.

For the same reason the three gcd passes over numerators read them
last-first: the canonical form's in ``_set``, the content in
``_primitive`` and the block chain of ``_convolve_blocks``.  From the
end, where the padding is gone, the running gcd reaches its value within
a step or two, and ``math.gcd`` skips the rest of its arguments once
that value is 1.  The gcd of R's den and numerators took 0.09 against
1.28 ms forward at (96, 98), and 0.33 against 9.3 ms at (199, 400), with
the same value (best of 15, one process, 2-CPU VM).

All coefficient arithmetic is exact; floats are rejected.  Values are
immutable, so they can be shared freely across threads.
"""

from __future__ import annotations

import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import Iterator, Mapping, Sequence


class ZeroLeadingCoefficient(ArithmeticError):
    """Division by a series that is zero on its whole known window."""


class NonzeroConstantTerm(ArithmeticError):
    """Antidifferentiation of a series whose constant term is not zero."""


class IncompatibleLattice(ValueError):
    """Lattice change that is not an integer refinement."""


class UnknownCoefficient(LookupError):
    """Access to a coefficient beyond the trusted window."""


_SCALARS = (int, Fraction)

# The block length of ``_convolve_blocks`` (lengths 16 to 32 ran within
# a few percent of each other from (12, 240) to (200, 402)) and the share
# of the denominator its first block must carry before a product takes
# that path (``_padded``).
_BLOCK = 24
_PADDING_BITS = 512


def format_rational(c: Fraction) -> str:
    """Canonical string form: plain integer, or ``num/den`` in lowest terms."""
    return _format_ratio(c.numerator, c.denominator)


def _format_ratio(num: int, den: int) -> str:
    """``format_rational(Fraction(num, den))`` for ``den > 0``, with one
    ``gcd`` and no ``Fraction``."""
    c = gcd(num, den)
    if c != 1:
        num //= c
        den //= c
    if den == 1:
        return _decimal(num)
    return f"{_decimal(num)}/{_decimal(den)}"


def parse_rational(text: str) -> Fraction:
    """The value ``format_rational`` printed, whatever its size."""
    num, slash, den = text.partition("/")
    return Fraction(_parse_decimal(num), _parse_decimal(den) if slash else 1)


def _decimal(n: int) -> str:
    """``str(n)`` for an int of any size.

    ``str`` refuses ints of more than ``sys.get_int_max_str_digits()``
    digits (4300 by default), and R's numerators pass that near MAX_R.
    ``decimal.Decimal`` converts ints of any size without that limit.
    """
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def _parse_decimal(text: str) -> int:
    """``int(text)`` for a decimal of any size, read as ``_decimal`` prints.

    Past the digit limit only an optional minus and ASCII digits are read
    (no exponent, underscore, whitespace or ``Infinity``), by
    ``_parse_digits``.
    """
    try:
        return int(text)
    except ValueError:
        digits = text.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise
    value = _parse_digits(digits, sys.get_int_max_str_digits())
    return -value if text.startswith("-") else value


def _parse_digits(digits: str, limit: int) -> int:
    """The int of a string of ASCII digits longer than ``limit``: split at
    a power of ten, ``high * 10**k + low``, until each part is within the
    limit ``int`` reads.  Reading a decimal string is quadratic in its
    length and the product is not, so reading halves costs less."""
    if len(digits) <= limit:
        return int(digits)
    k = len(digits) // 2
    return _parse_digits(digits[:-k], limit) * 10**k + _parse_digits(digits[-k:], limit)


def _clear_denominators(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _even_halves(n: int, *lists: Sequence[int]) -> list[Sequence[int]] | None:
    """The even-index entries of each list, if n > 1 and every list is
    zero at every odd index (else None): a kernel then runs on the halves
    at length ``(n + 1) // 2`` and ``_spread``s its result."""
    if n > 1 and not any(any(xs[1::2]) for xs in lists):
        return [xs[::2] for xs in lists]
    return None


def _spread(half: Sequence[int], n: int, start: int = 0) -> list[int]:
    """Entries ``start..n-1`` of the list of n with ``half`` at its even
    indices and zeros between."""
    out = [0] * (n - start)
    out[start % 2 :: 2] = half
    return out


def _convolve(a: Sequence[int], b: Sequence[int], n: int, start: int = 0) -> list[int]:
    """Coefficients ``start..n-1`` of the product of integer lists a and
    b, each one dot product of a with b reversed; on ``_even_halves``, a
    quarter of the products and none of the zeros."""
    halves = _even_halves(n, a, b)
    if halves:
        return _spread(_convolve(*halves, (n + 1) // 2, (start + 1) // 2), n, start)
    rb = [0] * (n - len(b)) + list(b[n - 1::-1])  # b[:n] reversed, 0-padded
    # a[i] pairs with b[k-i] = rb[n-1-k+i]: map stops at the shorter list.
    return [sum(map(mul, a, rb[i:])) for i in range(n - 1 - start, -1, -1)]


def _pack_width(x_bits: int, e_bits: int, terms: int) -> int:
    """The width W at which integers x_i and y_i travel as one
    ``z_i = x_i + (y_i << W)`` through dot products with integers e_j.

    Lemma: if |x_i| < 2^x_bits, |e_j| < 2^e_bits and a dot product has at
    most ``terms`` terms, then |sum x_i e_j| < 2^(x_bits + e_bits +
    bits(terms)) <= 2^(W - 1).  So sum z_i e_j = X + (Y << W) with
    |X| < 2^(W - 1), and ``_unpack`` reads X as the remainder mod 2^W
    centred on 0 and Y as the rest shifted down by W, each exactly,
    whatever the size and sign of Y.  The same holds for each z_i.
    """
    return x_bits + e_bits + terms.bit_length() + 1


def _pack(xs: Sequence[int], ys: Sequence[int], W: int) -> list[int]:
    """``x + (y << W)`` for each pair of a list of x and one of y."""
    return [x + (y << W) for x, y in zip(xs, ys)]


def _unpack(zs: Sequence[int], W: int) -> tuple[list[int], list[int]]:
    """``(xs, ys)`` with ``zs[i] = xs[i] + (ys[i] << W)`` and every
    ``-2^(W-1) <= xs[i] < 2^(W-1)``: the lists that ``_pack`` packed."""
    ys = [(z + (1 << (W - 1))) >> W for z in zs]
    return [z - (y << W) for z, y in zip(zs, ys)], ys


def _mul_pair(
    x: LaurentSeries, y: LaurentSeries, e: LaurentSeries, start: int | None = None
) -> tuple[LaurentSeries, LaurentSeries]:
    """``(x * e, y * e)``, each ``==`` what ``__mul__`` gives, from one
    ``_convolve`` of the numerators of x and y packed as one list from
    the lower of their first exponents.  Against a small e, such as E4, a
    product of twice the bits costs little more than one, and the
    interpreter's cost per term is paid once.  With ``start``, each
    product holds, and the kernel forms, only its rows from ``p**start``
    on (``start`` must not pass the end of either product).
    """
    m = max(x.m, y.m, e.m)
    x, y, e = x.align(m), y.align(m), e.align(m)
    lo, hi = min(x.n_min, y.n_min), max(x.N, y.N)
    base = lo + e.n_min  # the exponent of the packed product's index 0
    first = 0 if start is None else max(start - base, 0)
    tops = [min(s.N + e.n_min, e.N + s.n_min) for s in (x, y)]  # as in __mul__
    (cx, X), (cy, Y), (ce, E) = (_primitive(s.nums) for s in (x, y, e))
    X, Y = ([0] * (s.n_min - lo) + list(v) + [0] * (hi - s.N) for s, v in ((x, X), (y, Y)))
    bits = max(map(abs, X)).bit_length(), max(map(abs, E)).bit_length()
    W = _pack_width(*bits, len(E))
    halves = _unpack(_convolve(_pack(X, Y, W), E, max(tops) - base + 1, first), W)
    out = []
    for s, c, top, nums in zip((x, y), (cx, cy), tops, halves):
        f = Fraction(c * ce, s.den * e.den)
        i = max(s.n_min - lo, first)  # the first row of this product
        nums = _scaled(nums[i - first : top - base + 1 - first], f.numerator)
        out.append(LaurentSeries.from_numerators(m, base + i, nums, f.denominator))
    return out[0], out[1]


def _constant_term(a: LaurentSeries, b: LaurentSeries) -> Fraction:
    """The coefficient of ``p**0`` in ``a * b``: one integer dot product
    over the n with a known at ``p**n`` and b at ``p**-n``.  Raises
    ``UnknownCoefficient`` where ``a * b`` is not known at ``p**0``."""
    a, b = _aligned(a, b)
    known = min(a.N + b.n_min, b.N + a.n_min)
    if known < 0:
        raise UnknownCoefficient(f"constant term of a product known through p^{known}")
    lo, hi = max(a.n_min, -b.N), min(a.N, -b.n_min)
    if hi < lo:  # a * b starts above p^0
        return Fraction(0)
    B = b.nums[-hi - b.n_min : -lo - b.n_min + 1]  # b at p^-hi..p^-lo
    return Fraction(sum(map(mul, a.nums[lo - a.n_min :], reversed(B))), a.den * b.den)


def _primitive(nums: Sequence[int]) -> tuple[int, Sequence[int]]:
    """``(c, nums / c)`` with c the content ``gcd(*nums)``, read last-first;
    1 if all are zero."""
    c = gcd(*reversed(nums)) or 1
    return c, (nums if c == 1 else [x // c for x in nums])


def _padded(x: Sequence[int], den: int) -> bool:
    """Do the first ``_BLOCK`` numerators of x, over den, share more than
    ``_PADDING_BITS`` bits with den?  Then ``_convolve_blocks`` pays for
    its extra calls.

    The padding a block removes saves in every product it takes part in,
    and the extra calls cost the same per block and output coefficient,
    so both grow with the square of the length and the share of the first
    block decides.  Kernel time of R*S, blocks over plain (min of 9, one
    process, 2-CPU VM), by the bits the first 24 numerators share with
    den: 29-308 bits (r = 6..12 at orders 60 and 90) 1.02-1.22; 419-496
    bits ((12, 120), (30, 62), (47, 96), (24, 100)) 0.89-0.96; 526-863
    bits ((20, 120), (36, 74), (64, 66), (12, 240)) 0.79-0.88; 2176 bits
    (96, 98) 0.61; 3582 bits (120, 122) 0.52.  The threshold sits above
    the band where the gain is within the noise of a solve.
    """
    return (
        den.bit_length() > _PADDING_BITS
        and gcd(den, *x[:_BLOCK]).bit_length() > _PADDING_BITS
    )


def _convolve_blocks(
    x: Sequence[int], y: Sequence[int], n: int, den: int, start: int = 0
) -> tuple[list[int], int]:
    """``(nums, G)`` with ``nums * G`` the coefficients ``start..n-1`` of
    the product of x and y, the same as ``_convolve(x, y, n, start)``, for
    x whose numerators over den carry a factor of den that shrinks along x.

    Cut x into blocks of ``_BLOCK``; block k ends at e_k, and
    ``G_k = gcd(den, x_0..x_(e_k - 1))``, so each G_k divides the one
    before; each is found from the one before and block k read
    last-first.  Coefficient j is ``sum_k G_k*dot_k``, with dot_k the dot
    product of block k divided by G_k against y reversed, one
    ``_convolve`` per block.  Horner over the blocks,
    ``acc = acc*(G_(k-1)/G_k) + dot_k``, keeps coefficient j over the G
    of the block that holds j; each goes over the last G once, at the
    end, and that G is returned for the caller's rational factor.
    """
    halves = _even_halves(n, x, y)
    if halves:
        nums, G = _convolve_blocks(*halves, (n + 1) // 2, den, (start + 1) // 2)
        return _spread(nums, n, start), G
    x = x[:n]
    out = [0] * (n - start)  # out[j - start] is coefficient j
    G = den
    chain = []
    for s in range(0, len(x), _BLOCK):
        block = x[s:s + _BLOCK]
        g = gcd(G, *reversed(block))
        step, G = G // g, g
        chain.append(G)
        i = max(s - start, 0)  # the first row block k reaches
        dots = _convolve(block if G == 1 else [v // G for v in block], y, n - s, start + i - s)
        out[i:] = [v * step + d for v, d in zip(out[i:], dots)]
    for s, Gk in zip(range(0, len(x), _BLOCK), chain):
        i, end = max(s - start, 0), s + _BLOCK - start
        if Gk != G and end > 0:
            out[i:end] = [v * (Gk // G) for v in out[i:end]]
    return out, G


def _product(a: LaurentSeries, b: LaurentSeries, start: int = 0) -> tuple[list[int], Fraction]:
    """``(nums, c)`` with ``nums * c`` the coefficients of ``a * b`` (on
    one lattice) from its index ``start`` on, through the last that a and b
    determine.  The numerators of each side are divided by their content
    first, and a side whose numerators are padded over its den (the larger
    of the two) takes the block path."""
    n = min(a.N + b.n_min, b.N + a.n_min) - (a.n_min + b.n_min) + 1
    ca, A = _primitive(a.nums)
    cb, B = _primitive(b.nums)
    x, y, den = (A, B, a.den) if a.den >= b.den else (B, A, b.den)
    if _padded(x, den):
        nums, G = _convolve_blocks(x, y, n, den, start)
    else:
        nums, G = _convolve(A, B, n, start), 1
    return nums, Fraction(ca * cb * G, a.den * b.den)


def _scaled(nums: Sequence[int], c: int) -> Sequence[int]:
    """``nums`` times the integer c."""
    return nums if c == 1 else [x * c for x in nums]


def _quotient(
    A: Sequence[int], U: Sequence[int], n: int, q: Sequence[int] = (), D: int = 1
) -> tuple[list[int], int]:
    """Integers Q over one D > 0 with ``Q/D = A/U`` through ``p**(n-1)``.

    Needs ``U[0] != 0`` and ``len(U) >= n``; A may be shorter (its missing
    terms are 0).  Forward substitution with lazy scaling: coefficient j
    of the quotient is ``q[j] / D_j``, with
        num = A[j]*D_(j-1) - sum_(i<j) q[i]*(D_(j-1)/D_i)*U[j-i],
    ``q[j] = num / c`` and ``D_j = D_(j-1)*s_j`` for ``c = gcd(num, U[0])``
    (signed as U[0]) and the step ``s_j = U[0] / c``.  The sum is one dot
    product over the indices before the first step above 1, and Horner,
    ``acc = acc*s_i + q[i]*U[j-i]``, over the rest; at the end every q[i]
    is scaled to the last D once.  So the n terms cost about ``n**2 / 2``
    products of a q[i] at its own size by a U[j-i], plus as many products
    of the running sum by a step, which is no bigger than U[0]; no
    earlier q[i] is rescaled at each step.  The last D is the quotient's
    own denominator in every case measured.

    Given the quotient's first ``len(q)`` coefficients as ``q`` over one
    ``D`` (from A and U through a lower order), the substitution keeps
    them, as if each step after the first were 1, and finds only the
    later coefficients.

    When A and U vanish at every odd index, so does Q, and each odd step
    finds num = 0 and keeps D: the ``_even_halves`` give the same Q and D.
    """
    halves = _even_halves(n, A, U, q)
    if halves:
        Q, D = _quotient(*halves[:2], (n + 1) // 2, halves[2], D)
        return _spread(Q, n), D
    u0 = U[0]
    q = list(q)
    steps = [D] + [1] * (len(q) - 1) if q else []  # D is 1 when q is empty
    plain = n  # the first index above 0 with a step above 1; n while none
    for j in range(len(q), n):
        p = min(plain, j)  # q[:p] share one denominator; Horner takes q[p:]
        acc = sum(map(mul, q, U[j:j - p:-1]))
        for i in range(p, j):
            acc = acc * steps[i] + q[i] * U[j - i]
        num = (A[j] * D if j < len(A) else 0) - acc
        c = gcd(num, u0) if u0 > 0 else -gcd(num, u0)
        s = u0 // c  # > 0
        if s != 1 and j and plain == n:
            plain = j
        D *= s
        q.append(num // c)
        steps.append(s)
    if plain < n:
        scale = 1
        for i in range(n - 1, 0, -1):
            scale *= steps[i]
            q[i - 1] *= scale
    return q, D


class LaurentSeries:
    """A truncated Laurent series in ``p = q**(1/m)`` over the rationals.

    ``LaurentSeries(m, n_min, coeffs)`` takes the coefficients of
    ``p**n_min, ..., p**N`` as ints or ``Fraction``s; ``from_numerators``
    takes integer numerators over one denominator.  Both canonicalise
    (see the module docstring), dropping leading zeros, which the window
    semantics already imply.

    ``==``, ``hash``, ``repr``, the frozen fields and pickling are written
    out, not generated by ``dataclass``: its ``exec``'d methods and its
    ``inspect`` import would lengthen the import that every CLI process pays.
    """

    __slots__ = ("m", "n_min", "nums", "den")
    m: int
    n_min: int
    nums: tuple[int, ...]
    den: int

    def __init__(self, m: int, n_min: int, coeffs: Sequence[int | Fraction]) -> None:
        if not coeffs:
            raise ValueError("a series needs at least one stored coefficient")
        for c in coeffs:
            if not isinstance(c, _SCALARS):
                raise TypeError(f"coefficients must be int or Fraction, got {c!r}")
        self._set(m, n_min, *_clear_denominators(coeffs))

    def _set(self, m: int, n_min: int, nums: Sequence[int], den: int) -> None:
        """Store ``nums / den`` in canonical form; needs ``den > 0``."""
        if m not in (1, 2):
            raise ValueError(f"lattice must be 1 or 2, got {m}")
        start = 0
        while start < len(nums) - 1 and not nums[start]:
            start += 1
        if start:
            nums = nums[start:]
            n_min += start
        g = gcd(den, *reversed(nums))
        if g != 1:
            den //= g
            nums = [x // g for x in nums]
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n_min", n_min)
        object.__setattr__(self, "nums", tuple(nums))
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"LaurentSeries is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"LaurentSeries is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return LaurentSeries.from_numerators, (self.m, self.n_min, self.nums, self.den)

    def __eq__(self, other):
        if other.__class__ is not LaurentSeries:
            return NotImplemented
        return (self.m, self.n_min, self.nums, self.den) == (
            other.m, other.n_min, other.nums, other.den
        )

    def __hash__(self) -> int:
        return hash((self.m, self.n_min, self.nums, self.den))

    def __repr__(self) -> str:
        return (
            f"LaurentSeries(m={self.m!r}, n_min={self.n_min!r}, "
            f"nums={self.nums!r}, den={self.den!r})"
        )

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_numerators(
        cls, m: int, n_min: int, nums: Sequence[int], den: int = 1
    ) -> "LaurentSeries":
        """The series ``sum nums[i]/den * p**(n_min + i)``, canonicalised."""
        if not nums:
            raise ValueError("a series needs at least one stored coefficient")
        if den < 0:
            nums, den = [-x for x in nums], -den
        elif den == 0:
            raise ZeroDivisionError("a series needs a nonzero denominator")
        series = object.__new__(cls)
        series._set(m, n_min, nums, den)
        return series

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
        return cls(m, n_min, tuple(terms.get(n, 0) for n in range(n_min, N + 1)))

    @classmethod
    def zero(cls, m: int, N: int) -> "LaurentSeries":
        return cls.from_numerators(m, N, (0,))

    @classmethod
    def one(cls, m: int, N: int) -> "LaurentSeries":
        return cls.from_terms(m, {0: 1}, N, n_min=0)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------

    @property
    def N(self) -> int:
        """Largest exponent whose coefficient is known."""
        return self.n_min + len(self.nums) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients of ``p**n_min, ..., p**N`` as ``Fraction``s."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def coeff(self, n: int) -> Fraction:
        """Coefficient of ``p**n``; zero below the window, error above it."""
        if n < self.n_min:
            return Fraction(0)
        if n > self.N:
            raise UnknownCoefficient(
                f"coefficient of p^{n} is beyond the trusted order {self.N}"
            )
        return Fraction(self.nums[n - self.n_min], self.den)

    @property
    def order(self) -> int | None:
        """Exponent of the first nonzero coefficient, or None if zero throughout."""
        return self.n_min if self.nums[0] else None

    @property
    def leading_coefficient(self) -> Fraction:
        if not self.nums[0]:
            raise ZeroLeadingCoefficient("series is zero on its known window")
        return Fraction(self.nums[0], self.den)

    def is_zero(self) -> bool:
        return not self.nums[0]

    def items(self) -> Iterator[tuple[int, Fraction]]:
        """Nonzero (exponent, coefficient) pairs in ascending exponent order."""
        for i, x in enumerate(self.nums):
            if x:
                yield self.n_min + i, Fraction(x, self.den)

    def _numerators(self, lo: int, hi: int, scale: int) -> list[int]:
        """Numerators of ``p**lo..p**hi`` times scale; needs hi <= N."""
        top = hi - self.n_min + 1
        pad = [0] * (min(self.n_min, hi + 1) - lo)
        if top <= 0:
            return pad
        body = self.nums[max(lo - self.n_min, 0) : top]
        return pad + (list(body) if scale == 1 else [x * scale for x in body])

    def matches(self, other: "LaurentSeries", *, min_overlap: int) -> bool:
        """Do the two series agree on every exponent both know about?

        Raises if the common window holds fewer than ``min_overlap``
        coefficients, so a vacuous comparison cannot pass silently; the
        overlap has no default, so every caller states it.  It counts
        stored coefficients from the lower stored ``n_min``, not the known
        window: two series known to be zero far below their first term
        (leading zeros are not stored) get a short count.
        """
        a, b = _aligned(self, other)
        lo = min(a.n_min, b.n_min)
        hi = min(a.N, b.N)
        if hi - lo + 1 < min_overlap:
            raise ValueError(
                f"common window [{lo}, {hi}] is shorter than min_overlap={min_overlap}"
            )
        return a._numerators(lo, hi, b.den) == b._numerators(lo, hi, a.den)

    # ------------------------------------------------------------------
    # ring operations
    # ------------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            return self._add_scalar(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        a, b = _aligned(self, other)
        lo = min(a.n_min, b.n_min)
        hi = min(a.N, b.N)
        den = lcm(a.den, b.den)
        nums = map(
            add,
            a._numerators(lo, hi, den // a.den),
            b._numerators(lo, hi, den // b.den),
        )
        return LaurentSeries.from_numerators(a.m, lo, list(nums), den)

    __radd__ = __add__

    def _add_scalar(self, c: int | Fraction) -> "LaurentSeries":
        if c == 0 or self.N < 0:
            # A constant sits at exponent 0; if the window ends below that,
            # the sum is indistinguishable from self on the known range.
            return self
        den = lcm(self.den, c.denominator)
        lo = min(self.n_min, 0)
        nums = self._numerators(lo, self.N, den // self.den)
        nums[-lo] += c.numerator * (den // c.denominator)
        return LaurentSeries.from_numerators(self.m, lo, nums, den)

    def __neg__(self):
        return LaurentSeries.from_numerators(
            self.m, self.n_min, [-x for x in self.nums], self.den
        )

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            return self._add_scalar(-other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            c = other.numerator
            nums = [x * c for x in self.nums]
            return LaurentSeries.from_numerators(
                self.m, self.n_min, nums, self.den * other.denominator
            )
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        a, b = _aligned(self, other)
        nums, c = _product(a, b)
        return LaurentSeries.from_numerators(
            a.m, a.n_min + b.n_min, _scaled(nums, c.numerator), c.denominator
        )

    __rmul__ = __mul__

    def inverse(self, numerator=1, known: "LaurentSeries | None" = None) -> "LaurentSeries":
        """``numerator / self``: the multiplicative inverse by default, and
        the quotient behind ``a / b``, which calls ``b.inverse(a)``.

        For a divisor of order ``v`` known through ``N`` the inverse is
        trusted through ``N - 2v`` (the unit part carries ``N - v``
        relative coefficients and the pole flips sign).  A series
        numerator ``a`` gives exactly the window of ``a * self.inverse()``:
        it starts at ``a.n_min - v`` and holds ``min(len(a.nums),
        len(self.nums))`` terms (after aligning the lattices).  An int or
        ``Fraction`` numerator keeps the window of the inverse.

        The numerators of both sides are divided by their content before
        ``_quotient`` divides them by forward substitution (the inverse is
        the same loop with numerator 1), and the contents and denominators
        go back into the result as one rational factor.  ``known``, the
        same quotient through a lower order (of a numerator and a divisor
        that agree with these on its window), gives the coefficients that
        the substitution resumes after, so only the later ones are found.
        """
        if isinstance(numerator, LaurentSeries):
            a, b = _aligned(numerator, self)
            n = min(len(a.nums), len(b.nums))
            start, A, a_den = a.n_min, a.nums[:n], a.den
        elif isinstance(numerator, _SCALARS):
            b = self
            n = len(b.nums)
            start, A, a_den = 0, [numerator.numerator], numerator.denominator
        else:
            raise TypeError(f"cannot divide {numerator!r} by a series")
        v = b.order
        if v is None:
            raise ZeroLeadingCoefficient(
                f"cannot divide by a series that is zero through order {b.N}, "
                f"its whole known window"
            )
        cA, A = _primitive(A)
        cU, U = _primitive(b.nums[:n])
        c = Fraction(cA * b.den, cU * a_den)
        q, D = (), 1
        if known is not None:
            if known.m != b.m or known.n_min < start - v or known.N >= start - v + n:
                raise ValueError("the known quotient is not inside this one's window")
            # known = c*Q/D on its window: Q there, over one D, in lowest terms.
            q = known._numerators(start - v, known.N, c.denominator)
            D = known.den * c.numerator
            G = gcd(D, *reversed(q))  # c > 0: contents and dens are positive
            q, D = [x // G for x in q], D // G
        Q, D = _quotient(A, U, n, q, D)
        return LaurentSeries.from_numerators(
            b.m, start - v, _scaled(Q, c.numerator), D * c.denominator
        )

    def __truediv__(self, other):
        if isinstance(other, _SCALARS):
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, LaurentSeries):
            return other.inverse(self)
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
        nums = map(mul, self.nums, range(self.n_min, self.N + 1))
        return LaurentSeries.from_numerators(self.m, self.n_min, list(nums), self.den)

    def theta_antider(self) -> "LaurentSeries":
        """Termwise antiderivative of ``theta``; integration constant 0.

        The input must have zero constant term (otherwise it is not the
        theta-image of anything single-valued in p).  The numerators go
        over ``den * L`` with L the lcm of the exponents that carry a
        nonzero coefficient.
        """
        if self.n_min <= 0 <= self.N and self.coeff(0) != 0:
            raise NonzeroConstantTerm(
                f"constant term {self.coeff(0)} blocks antidifferentiation"
            )
        terms = list(zip(range(self.n_min, self.N + 1), self.nums))
        L = lcm(*(n for n, x in terms if x))
        nums = [x * (L // n) if x else 0 for n, x in terms]
        return LaurentSeries.from_numerators(self.m, self.n_min, nums, self.den * L)

    # ------------------------------------------------------------------
    # lattice handling
    # ------------------------------------------------------------------

    def align(self, m_target: int) -> "LaurentSeries":
        """Re-express on a finer lattice; exponents scale by m_target/m."""
        if m_target == self.m:
            return self
        if m_target % self.m != 0 or m_target not in (1, 2):
            raise IncompatibleLattice(f"cannot align lattice {self.m} to {m_target}")
        # Only 1 -> 2 gets here.  Exponents between stored multiples are
        # known-zero, so the trust bound tightens to 2*(N+1) - 1.
        return _on_lattice(self.nums, self.den, 2, 2 * self.n_min, 2 * self.N + 1)

    def truncate(self, N: int) -> "LaurentSeries":
        """Restrict the window to end at N (a no-op if already tighter)."""
        if N >= self.N:
            return self
        if N < self.n_min:
            return LaurentSeries.zero(self.m, N)
        nums = self.nums[: N - self.n_min + 1]
        return LaurentSeries.from_numerators(self.m, self.n_min, nums, self.den)

    # ------------------------------------------------------------------
    # serialization / rendering
    # ------------------------------------------------------------------

    def _formatted_items(self) -> Iterator[tuple[int, str]]:
        """``(n, format_rational(c))`` for ``items``, with no ``Fraction``."""
        for i, x in enumerate(self.nums):
            if x:
                yield self.n_min + i, _format_ratio(x, self.den)

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "n_min": self.n_min,
            "N": self.N,
            "coeffs": {str(n): cs for n, cs in self._formatted_items()},
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "LaurentSeries":
        terms = {int(n): parse_rational(v) for n, v in d["coeffs"].items()}
        return cls.from_terms(int(d["m"]), terms, int(d["N"]), n_min=int(d["n_min"]))

    def __str__(self) -> str:
        parts = []
        for n, cs in self._formatted_items():
            if n == 0:
                parts.append(cs)
            elif n == 1:
                parts.append(f"{cs}*p")
            else:
                parts.append(f"{cs}*p^{n}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(p^{self.N + 1})"


def _on_lattice(nums: Sequence[int], den: int, m: int, start: int, N: int) -> LaurentSeries:
    """``nums[k] / den`` at ``p**(start + m*k)`` on lattice m, known zeros
    between, on the window ``start..N`` (the zero window at N if N < start).
    Every generator and recurrence lays out its q-steps here.  ``nums``
    must hold every step through N: a short list would silently shorten
    the window for m = 1."""
    if N < start:
        start, nums = N, [0]
    out = [0] * (N - start + 1)
    out[::m] = nums[: (N - start) // m + 1]
    return LaurentSeries.from_numerators(m, start, out, den)


def _aligned(a: LaurentSeries, b: LaurentSeries) -> tuple[LaurentSeries, LaurentSeries]:
    if a.m == b.m:
        return a, b
    m = max(a.m, b.m)
    return a.align(m), b.align(m)
