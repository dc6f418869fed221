"""Classical q-expansions and the residuals of exact identities among them.

Generators return series on their natural lattice, truncated to exactly
the requested order N (counted in the lattice variable p).  Everything is
exact rational arithmetic.

``eisenstein``, ``eta_power``, ``hauptmodul``, ``seed_t0`` and
``theta_fourth`` have a prefix cache: for every value of their other
arguments they keep one entry, the longest expansion built so far.  A call
at an order that entry covers returns its truncation, which is exactly
the series a fresh call gives; a longer call builds afresh and replaces
the entry.  So memory stays bounded by one series per generator and key, the
store is guarded by a lock, and since all values are immutable the cache
is transparent.

Delta, Delta^(1/2) and their inverses all come from one integer
recurrence for the coefficients of prod (1 - x^n)^k (``eta_power``), so
no generator divides by Delta.  Each generator is one formula: the seed is
-theta(t)/E4 on both groups, theta2^4 is Legendre's divisor sum, and the
theta log-derivatives are read off theta_j^4.
"""

from __future__ import annotations

import functools
import threading
from enum import Enum
from fractions import Fraction
from operator import mul

from .series import LaurentSeries, _on_lattice


class Group(Enum):
    """Which group the computation lives on.

    FULL is SL(2,Z) (lattice m=1, used for even r); SQUARES is its unique
    index-2 normal subgroup of squares (lattice m=2, p = q**(1/2), odd r).
    """

    FULL = "full"
    SQUARES = "squares"

    @property
    def lattice(self) -> int:
        return 1 if self is Group.FULL else 2

    @classmethod
    def for_r(cls, r: int) -> "Group":
        return cls.FULL if r % 2 == 0 else cls.SQUARES


def sigma(k: int, n: int) -> int:
    """Sum of the k-th powers of the positive divisors of n."""
    if n < 1:
        raise ValueError("sigma is defined for n >= 1")
    total = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            total += d**k
            e = n // d
            if e != d:
                total += e**k
        d += 1
    return total


def _prefix_cached(build):
    """Serve ``build(..., N)`` from the longest expansion built so far.

    One entry per value of the arguments other than ``N``.  A call at an
    order N <= entry.N returns ``entry.truncate(N)``: the coefficients of
    a fresh build, on the window that ends at N (the zero window, when N
    is below the entry's first term).  A miss builds through ``max(N, 0)``
    and returns that build truncated to N, so a call below order 0 gives
    the same series whether or not an entry covers it: a build at a
    negative order multiplies windows that end below their first terms,
    and their products end below N or ask for an unknown constant term.
    A build runs outside the lock; its result replaces the entry only if
    it is longer, so a reader never sees a partial series.

    The parameters, ``N`` among them, are read off ``build``'s code object
    and defaults, not ``inspect.signature``, to keep ``inspect`` out of
    the package's import; so ``build`` takes positional-or-keyword
    parameters only, no ``*args``, ``**kwargs`` or keyword-only ones.
    """
    code = build.__code__
    names = code.co_varnames[: code.co_argcount]
    at = names.index("N")
    defaults = dict(zip(names[::-1], (build.__defaults__ or ())[::-1]))
    store: dict[tuple, LaurentSeries] = {}
    lock = threading.Lock()

    def bind(args, kwargs) -> list:
        """The arguments in parameter order, defaults filled in; raises
        ``TypeError`` where calling ``build`` itself would."""
        given = dict(zip(names, args))
        if len(args) > len(names) or not kwargs.keys() <= set(names) - given.keys():
            raise TypeError(f"{build.__name__}() got unexpected arguments {args!r}, {kwargs!r}")
        bound = {**defaults, **given, **kwargs}
        try:
            return [bound[name] for name in names]
        except KeyError as missing:
            raise TypeError(f"{build.__name__}() missing required argument {missing}") from None

    @functools.wraps(build)
    def cached(*args, **kwargs):
        values = bind(args, kwargs)
        N = values[at]
        key = (*values[:at], *values[at + 1 :])
        with lock:
            entry = store.get(key)
        if entry is not None and N <= entry.N:
            return entry.truncate(N)
        values[at] = max(N, 0)
        fresh = build(*values)
        with lock:
            entry = store.get(key)
            if entry is None or fresh.N > entry.N:
                store[key] = fresh
        return fresh.truncate(N)

    return _with_store(cached, store, lock)


def _with_store(fn, store: dict, lock: threading.Lock):
    """Give ``fn`` the ``cache_entries()`` (a snapshot of ``store``) and
    ``cache_clear()`` of its store, both under ``lock``."""

    def cache_entries() -> dict:
        with lock:
            return dict(store)

    def cache_clear() -> None:
        with lock:
            store.clear()

    fn.cache_entries = cache_entries
    fn.cache_clear = cache_clear
    return fn


@_prefix_cached
def eisenstein(k: int, N: int, m: int = 1) -> LaurentSeries:
    """E2, E4 or E6: 1 + c_k * sum sigma_{k-1}(n) q^n on lattice m."""
    factor = {2: -24, 4: 240, 6: -504}.get(k)
    if factor is None:
        raise ValueError(f"Eisenstein series have weight k = 2, 4 or 6, got k={k!r}")
    steps = [1] + [factor * sigma(k - 1, n) for n in range(1, N // m + 1)]
    return _on_lattice(steps, 1, m, 0, N)


@_prefix_cached
def eta_power(exponent: int, N: int) -> LaurentSeries:
    """eta^24 = Delta = q prod (1-q^n)^24 on lattice 1,
    eta^12 = Delta^(1/2) = p prod (1-p^(2n))^12 on lattice 2,
    and their inverses eta^-24 = 1/Delta and eta^-12 = 1/Delta^(1/2).

    With x = q or p^2 and k the exponent, prod (1-x^n)^k = sum f_n x^n
    has f_0 = 1 and n*f_n = -k * sum_{j=1..n} sigma_1(j) f_(n-j) (take
    x d/dx of its logarithm); every f_n is an integer, so the division by
    n is exact.  The windows are those of the Euler product (and of its
    inverse from Delta(N+2)): lead..N.
    """
    if exponent not in (24, 12, -24, -12):
        raise ValueError("supported eta powers are 24, 12, -24 and -12")
    m = 1 if abs(exponent) == 24 else 2
    lead = 1 if exponent > 0 else -1
    K = (N - lead) // m
    sigma1 = [sigma(1, j) for j in range(1, K + 1)]
    f = [1]
    for n in range(1, K + 1):
        f.append(-exponent * sum(map(mul, sigma1[:n], reversed(f))) // n)
    return _on_lattice(f, 1, m, lead, N)


def delta(N: int) -> LaurentSeries:
    return eta_power(24, N)


def delta_half(N: int) -> LaurentSeries:
    return eta_power(12, N)


def delta_from_eisenstein(N: int) -> LaurentSeries:
    """(E4^3 - E6^2)/1728 — the standing cross-check for the eta product."""
    e4 = eisenstein(4, N)
    e6 = eisenstein(6, N)
    return (e4**3 - e6**2) / 1728


def j1728(N: int) -> LaurentSeries:
    """E4^3 / Delta = 1/q + 744 + 196884 q + ..."""
    return eisenstein(4, N + 1) ** 3 * eta_power(-24, N)


@_prefix_cached
def hauptmodul(group: Group, N: int) -> LaurentSeries:
    """The normalised Hauptmodul t = 1/p + O(p) (constant term zero)."""
    if not isinstance(group, Group):
        raise TypeError(f"group must be Group.FULL or Group.SQUARES, got {group!r}")
    if group is Group.FULL:
        t = j1728(N)
        return t - t.coeff(0)
    return eisenstein(6, N + 1, 2) * eta_power(-12, N)


@_prefix_cached
def seed_t0(group: Group, N: int) -> LaurentSeries:
    """The weight -2 seed -theta(t)/E4: E4*E6/Delta or E4/Delta^(1/2)."""
    t = hauptmodul(group, N)
    return -t.theta() / eisenstein(4, N + 1, t.m)


def theta_series(j: int, N: int) -> LaurentSeries:
    """theta3 or theta4 on lattice 2 (exponent of p is n^2)."""
    if j not in (3, 4):
        raise ValueError("direct p-expansions exist for theta3 and theta4 only")
    if N < 0:
        return LaurentSeries.zero(2, N)
    terms = {0: 1}
    n = 1
    while n * n <= N:
        terms[n * n] = 2 if j == 3 or n % 2 == 0 else -2
        n += 1
    return LaurentSeries.from_terms(2, terms, N, n_min=0)


@_prefix_cached
def theta_fourth(j: int, N: int) -> LaurentSeries:
    """theta_j^4 on lattice 2.  theta2^4 = 16 p psi(p^2)^4 with Legendre's
    psi(q)^4 = sum sigma_1(2n+1) q^n, psi = sum q^(n(n+1)/2)."""
    if j not in (2, 3, 4):
        raise ValueError(f"theta_fourth is defined for j = 2, 3 or 4, got j={j!r}")
    if j == 2:
        steps = [16 * sigma(1, 2 * k + 1) for k in range((N + 1) // 2)]
        return _on_lattice(steps, 1, 2, 1, N)
    return theta_series(j, N) ** 4


def theta_logderiv(j: int, N: int) -> tuple[Fraction, LaurentSeries]:
    """q d/dq log theta_j = theta(F)/(8F), F = theta_j^4, split as (offset,
    body) with body(0) = 0 on lattice 2: the offset is 1/8 for j=2 (the
    q^(1/8) prefactor; F starts at p^1) and 0 otherwise."""
    offset = Fraction(1, 8) if j == 2 else Fraction(0)
    F = theta_fourth(j, N + 1 if j == 2 else N)
    return offset, F.theta() / F / 8 - offset


def ramanujan_residuals(N: int) -> dict[str, LaurentSeries]:
    """Residuals of the four Ramanujan identities with theta = q d/dq:
    theta(Delta) = E2*Delta, theta(E2) = (E2^2 - E4)/12,
    theta(E4) = (E2*E4 - E6)/3, theta(E6) = (E2*E6 - E4^2)/2."""
    e2 = eisenstein(2, N)
    e4 = eisenstein(4, N)
    e6 = eisenstein(6, N)
    dl = delta(N)
    return {
        "theta(Delta)-E2*Delta": dl.theta() - e2 * dl,
        "theta(E2)-(E2^2-E4)/12": e2.theta() - (e2 * e2 - e4) / 12,
        "theta(E4)-(E2*E4-E6)/3": e4.theta() - (e2 * e4 - e6) / 3,
        "theta(E6)-(E2*E6-E4^2)/2": e6.theta() - (e2 * e6 - e4 * e4) / 2,
    }


def jacobi_residual(N: int) -> LaurentSeries:
    """Residual of Jacobi's identity theta2^4 + theta4^4 = theta3^4."""
    return theta_fourth(2, N) + theta_fourth(4, N) - theta_fourth(3, N)


# Name -> (weight, builder of the series to order N); ``cli series`` prints these.
CATALOG = {
    "e2": (2, lambda N: eisenstein(2, N)),
    "e4": (4, lambda N: eisenstein(4, N)),
    "e6": (6, lambda N: eisenstein(6, N)),
    "eta12": (6, delta_half),
    "delta-half": (6, delta_half),
    "eta24": (12, delta),
    "delta": (12, delta),
    "j1728": (0, j1728),
    "hauptmodul-full": (0, lambda N: hauptmodul(Group.FULL, N)),
    "hauptmodul-squares": (0, lambda N: hauptmodul(Group.SQUARES, N)),
    "t0-full": (-2, lambda N: seed_t0(Group.FULL, N)),
    "t0-squares": (-2, lambda N: seed_t0(Group.SQUARES, N)),
}
