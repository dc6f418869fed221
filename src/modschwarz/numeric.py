"""Floating-point evaluation of the exact series and numeric verification
of equivariance under the group generators.

Equivariance h(g.tau) = g.h(tau) is the one property the exact layer
cannot check coefficient-wise (apart from translations), so it is checked
here numerically on a fixed deterministic set of sample points in the
upper half-plane.  Double precision suffices: at the default points
|p| <= exp(-0.8*pi), so for r <= 4 sixty exact coefficients leave tails
far below the 1e-6 tolerance.  For r >= 5 the poles of R in H push the
tails at the generator images past the guard, and the equivariance check
refuses with ``TailTooLarge``.  Tails are estimated by geometric
extrapolation of the last kept terms with a conservative safety factor.

The checks evaluate few series many times over: one solve's checks
evaluate R 20 times, E4 5 times, and h', h'', h''' 5 times each.
``eval_series`` reads the doubles ``x / den`` of a series' numerators
from one cache, ``_doubles``, which keeps the tables of the last six
series by value.  The Schwarzian check builds no series for h', h'' and
h''': ``_h_derivatives`` reads their tables off R's numerators once per
check, ``((a*n)**k * x) / den`` at p^n of the k-th, and 1.0 at p^0 of h'.
Integer true division is correctly rounded, so each double is that of
the canonical coefficient, whatever factor the unreduced numerator
shares with den.  Both sum their tables with one loop, ``_sum``, which
forms ``p**n`` per term and adds the terms left to right, in the same
order as term by term, so no value, tail estimate or message changes by
a bit.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple

from .modforms import Group, eisenstein
from .series import LaurentSeries
from .solver import SolveResult

U = 1j * math.pi
TAIL_FACTOR = 10.0  # safety factor on the geometric tail estimate
_TAIL_TERMS = 5  # the last nonzero terms the tail estimate extrapolates


class TailTooLarge(ArithmeticError):
    """The truncation-tail estimate exceeds the requested tolerance."""


class PointOutsideDomain(ValueError):
    """Evaluation requested at a point the series cannot reach."""


class DerivativeVanishes(ArithmeticError):
    """h' vanishes at a sample point; the Schwarzian is undefined there."""


class Moebius(namedtuple("Moebius", "a b c d")):
    """An integer matrix of determinant one acting by (a*z+b)/(c*z+d)."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int) -> "Moebius":
        if not all(isinstance(x, int) for x in (a, b, c, d)):
            raise TypeError(f"entries must be integers, got {(a, b, c, d)!r}")
        if a * d - b * c != 1:
            raise ValueError("determinant must be 1")
        return super().__new__(cls, a, b, c, d)

    # ``_replace`` builds through ``_make``, which would skip the checks.
    _make = classmethod(lambda cls, entries: cls(*entries))

    def apply(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    def entries(self) -> list[int]:
        return [self.a, self.b, self.c, self.d]


T_GEN = Moebius(1, 1, 0, 1)
S_GEN = Moebius(0, -1, 1, 0)
P_GEN = Moebius(0, -1, 1, 1)   # S*T, order 6
Q_GEN = Moebius(1, -1, 1, 0)   # S^-1 * P * S, order 6


def generators_for(group: Group) -> tuple[tuple[str, Moebius], ...]:
    """The generators a check of h uses: S, T for the full group; P, Q,
    which generate the squares subgroup, for it.  For odd r, h commutes
    with S and T too: R is a q-series, and the character of eta^12 that g
    and S carry cancels in h = F2/F1 (ROADMAP item 22).  P and Q stay, so
    ``verify --numeric`` keeps its bytes.
    """
    if group is Group.FULL:
        return (("S", S_GEN), ("T", T_GEN))
    return (("P", P_GEN), ("Q", Q_GEN))


# The equivariant maps have poles in the upper half-plane (their series
# converge only for Im tau above roughly 0.65), so the sample points are
# clustered near Re = -1/2 where every generator image S.tau, T.tau,
# P.tau, Q.tau also keeps Im >= 0.72.
DEFAULT_POINTS = (
    -0.5 + 0.9j,
    -0.45 + 0.95j,
    -0.55 + 1.0j,
    -0.5 + 1.05j,
    -0.48 + 1.1j,
)


def eval_series(
    series: LaurentSeries,
    tau: complex,
    e: int = 0,
    *,
    tolerance: float | None = None,
) -> tuple[complex, float]:
    """Evaluate u^e * series at tau; returns (value, tail estimate).

    The series is rational; the transcendental unit u = i*pi enters only
    through the stated power e.  The tail estimate extrapolates the decay
    of the last kept nonzero terms geometrically, scaled by the
    conservative TAIL_FACTOR; if a tolerance is given and the estimate
    exceeds it, TailTooLarge is raised.
    """
    p = _p(tau, series.m)
    value, tail = _sum(_doubles(series), p)
    if tolerance is not None and tail > tolerance:
        raise TailTooLarge(f"tail estimate {tail:.3e} exceeds {tolerance:.3e}")
    return U**e * value, tail


def _double(x: int, den: int) -> float | None:
    """``x / den``, or None past a double.  int / int is correctly
    rounded, so this is the double of Fraction(x, den), whatever factor
    x and den share."""
    try:
        return x / den
    except OverflowError:
        return None


@functools.lru_cache(maxsize=6)
def _doubles(series: LaurentSeries) -> tuple:
    """The table of a series: its lattice m, its order N, ``(n, x /
    den)`` for each nonzero coefficient ``x / den`` of ``p**n`` (None past
    a double), and ``exact()``, which gives the series in canonical form."""
    den = series.den
    doubles = [(n, _double(x, den)) for n, x in enumerate(series.nums, series.n_min) if x]
    return series.m, series.N, doubles, lambda: series


def _p(tau: complex, m: int) -> complex:
    """p = exp(2*pi*i*tau/m), for tau in the upper half-plane with |p|
    below 1.0 as a double.  Where |p| rounds to 1.0 (Im tau below about
    1.8e-17*m) no term decays, and a series whose terms all underflow
    would read a tail of 0.0 and pass any tolerance; such a tau is
    refused like one outside the half-plane."""
    if tau.imag <= 0:
        raise PointOutsideDomain(f"Im tau must be positive, got {tau}")
    p = cmath.exp(2j * math.pi * tau / m)
    if abs(p) >= 1.0:
        raise PointOutsideDomain(f"|p| rounds to 1.0 at tau = {tau} on lattice {m}")
    return p


def _sum(table: tuple, p: complex) -> tuple[complex, float]:
    """The terms ``f * p**n`` of a table, added left to right, and the
    tail estimate from the last _TAIL_TERMS of them.  A term that
    ``f * p**n`` cannot form comes from ``_scaled_term`` on the numerator
    and denominator of ``exact()``."""
    _, N, doubles, exact = table
    last = doubles[-_TAIL_TERMS][0] if len(doubles) >= _TAIL_TERMS else -math.inf
    value = 0j
    terms: list[tuple[int, float]] = []
    for n, f in doubles:
        if f is not None:
            try:
                t = f * p**n
            except OverflowError:
                f = None
        if f is None:
            series = exact()
            t = _scaled_term(series.nums[n - series.n_min], series.den, p, n)
        value += t
        if n >= last:
            terms.append((n, abs(t)))
    return value, _tail_estimate(terms, N, abs(p))


def _scaled_term(x: int, den: int, p: complex, n: int) -> complex:
    """x/den * p**n when x/den or p**n alone exceeds a double.

    With k = x.bit_length() - den.bit_length() the mantissa x/(den*2^k)
    lies in (1/2, 2), and 2^k joins p**n in one exponential.  Raises
    OverflowError only if the term itself exceeds a double.
    """
    k = x.bit_length() - den.bit_length()
    mantissa = x / (den << k) if k >= 0 else (x << -k) / den
    return mantissa * cmath.exp(n * cmath.log(p) + k * math.log(2))


def _tail_estimate(terms: list[tuple[int, float]], N: int, ap: float) -> float:
    """The tail from the ``(n, |term|)`` of the last _TAIL_TERMS nonzero
    terms (all of them, if fewer)."""
    window = [t for t in terms if t[1] > 0.0]
    if not window:
        return 0.0
    n1, m1 = window[-1]
    if len(window) >= 2:
        n0, m0 = window[0]
        ratio = (m1 / m0) ** (1.0 / (n1 - n0))
    else:
        # Single observable term: assume coefficients keep the observed
        # scale and only |p| provides decay (mildly conservative).
        ratio = ap
    if ratio >= 1.0:
        raise TailTooLarge(f"terms are not decaying (ratio {ratio:.3f})")
    return TAIL_FACTOR * m1 * ratio ** (N + 1 - n1) / (1.0 - ratio)


def h_value(result: SolveResult, tau: complex, *, tolerance: float | None = None) -> complex:
    """h(tau) = tau + u^(-1) * R(tau)."""
    v, _ = eval_series(result.R, tau, e=-1, tolerance=tolerance)
    return tau + v


def _sample(result: SolveResult, check: str, residual, tolerance: float) -> dict:
    """Max over ``DEFAULT_POINTS`` of |residual(tau)|, as a report; a
    TailTooLarge, PointOutsideDomain, DerivativeVanishes or OverflowError
    (a term that exceeds a double) is re-raised as the same class, naming
    the check, r and the order."""
    worst = 0.0
    for tau in DEFAULT_POINTS:
        try:
            worst = max(worst, abs(residual(tau)))
        except (
            TailTooLarge, PointOutsideDomain, DerivativeVanishes, OverflowError
        ) as exc:
            raise type(exc)(
                f"{check} for r={result.r} at order {result.N}: {exc}"
            ) from exc
    return {
        "r": result.r,
        "points": [[z.real, z.imag] for z in DEFAULT_POINTS],
        "max_residual": worst,
        "tolerance": tolerance,
        "pass": worst < tolerance,
    }


def check_equivariance(
    result: SolveResult, gamma: Moebius, tolerance: float = 1e-6
) -> dict:
    """Max over the sample points of |h(gamma.tau) - gamma.h(tau)|.

    Both sides evaluate the same exact series; gamma.tau is evaluated
    directly (the default points keep Im(gamma.tau) high enough for the
    tails to stay negligible, which the tail guard enforces).

    For T on the full group the check tests nothing about R: q is the
    same at tau and tau + 1, so h(tau + 1) = h(tau) + 1 holds exactly for
    any q-series.  Its residual is only the rounding of exp(2*pi*i*tau)
    at tau + 1, an absolute error that grows with |h|, so for large even
    r it can exceed the tolerance from roundoff alone.
    """
    guard = tolerance * 1e-2

    def residual(tau: complex) -> complex:
        gt = gamma.apply(tau)
        if gt.imag <= 0.1:
            raise PointOutsideDomain(
                f"gamma moves {tau} to {gt}, too close to the real line"
            )
        lhs = h_value(result, gt, tolerance=guard)
        return lhs - gamma.apply(h_value(result, tau, tolerance=guard))

    check = f"equivariance under {gamma.entries()}"
    return {"gamma": gamma.entries(), **_sample(result, check, residual, tolerance)}


def _h_derivatives(result: SolveResult) -> tuple:
    """The tables of h', h'' and h'''.  The k-th derivative is u^(k-1)
    times the series a^k*theta^k(R), plus 1 for h'.  Its term at p^n is
    read off R's numerator x as ``(a*n)**k * x / den``, which rounds to the
    double of the canonical coefficient, and h' has 1.0 at p^0.  So no
    series is built, unless a term needs ``_scaled_term``: that reads the
    canonical numerators of the theta image, built once per table."""
    R = result.R
    a = 2 // result.m
    den = R.den
    rows: tuple[list, list, list] = ([], [], [])
    if R.n_min > 0:
        rows[0].append((0, 1.0))
    for n, x in enumerate(R.nums, R.n_min):
        if not n:
            rows[0].append((0, 1.0))
        elif x:
            for row in rows:
                x *= a * n
                row.append((n, _double(x, den)))
    return tuple(
        (R.m, R.N, row, functools.lru_cache(1)(functools.partial(_theta_image, R, a, k)))
        for k, row in enumerate(rows, 1)
    )


def _theta_image(R: LaurentSeries, a: int, k: int) -> LaurentSeries:
    """a^k*theta^k(R): the series of h^(k)/u^(k-1), but for the 1 of h'."""
    image = R
    for _ in range(k):
        image = image.theta()
    return image * a**k


def _schwarzian_at(derivatives: tuple, tau: complex) -> complex:
    """{h, tau} at one point, from the tables ``_h_derivatives`` returns."""
    h1, h2, h3 = derivatives
    p = _p(tau, h1[0])
    v1, _ = _sum(h1, p)
    if abs(v1) < 1e-12:
        raise DerivativeVanishes(f"h' vanishes at {tau}")
    v2 = U * _sum(h2, p)[0]
    v3 = U**2 * _sum(h3, p)[0]
    return v3 / v1 - 1.5 * (v2 / v1) ** 2


def check_schwarz_numeric(result: SolveResult, tolerance: float = 1e-6) -> dict:
    """Evaluate {h, tau} - 2 pi^2 r^2 E4(tau) at the sample points.

    h', h'' and h''' are theta images of R with the right u-powers; their
    tables of doubles are read off R once per check (``_h_derivatives``)
    and summed at every point.  This is
    the only check in the package that evaluates {h, tau} from R itself:
    the exact layer certifies it through the ODE and delta residuals and
    R*S = -2g instead (see ``solver.solve_ode``).
    """
    e4 = eisenstein(4, max(result.R.N, 4), result.m)
    derivatives = _h_derivatives(result)
    scale = 2 * math.pi**2 * result.r**2

    def residual(tau: complex) -> complex:
        return _schwarzian_at(derivatives, tau) - scale * eval_series(e4, tau)[0]

    return _sample(result, "schwarzian", residual, tolerance)
