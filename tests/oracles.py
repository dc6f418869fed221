"""Independent references for what a solve reads off the coefficient
relation or certifies without forming: the first solution integrated
from g, the Schwarzian residual expanded directly from R, as
``solve_ode`` computed it before the certificate replaced it, the
Wronskian series, which the certificate proves constant from the ODE and
delta parts, the Schwarzian of a callable by finite differences, and the
numeric evaluator as it ran before its factors were cached, and the
product routes to the generators that ``modforms`` builds by one formula
each: the seed as the paper's eta quotient, theta2^4 from the triangular
series, and the theta log-derivatives from theta_3, theta_4 and psi
themselves, and the cross-ratio [tau, h_f2, h_f3, h_f4] through three
offsets h_f - tau by division and their quotient, the route the solver's
cross-ratio checks cancel, and the series route of the closed-form
claims, which compares each literal's expansion with the solve's output on
its window, as ``examples`` did before the ring decided them, and the
coefficient relation's pass with g and S as two lists, as a solve ran it
before it packed them into one.  Kept here only as oracles."""

import cmath
import math
from fractions import Fraction
from math import gcd
from operator import mul

from modschwarz.closed_forms import expand
from modschwarz.modforms import Group, eisenstein, eta_power, theta_series
from modschwarz.numeric import (
    TAIL_FACTOR,
    U,
    PointOutsideDomain,
    TailTooLarge,
    _scaled_term,
)
from modschwarz.series import LaurentSeries, _on_lattice
from modschwarz.solver import _difference, _theta_of, n0_for


def first_solution(
    g: LaurentSeries, e4: LaurentSeries, r: int
) -> tuple[LaurentSeries, Fraction]:
    """S with F1 = u*S, and the cusp value c/u removed from it.

    S = a*theta(g) - (r^2/a)*theta_antider(g*E4), so that
    a*theta(S) = a^2*theta^2(g) - r^2*g*E4 holds term by term.  A solve
    reads the same S off ``relation_series``; this integration is its
    reference.  c/u is 0 for every r: theta(g) and theta_antider(g*E4)
    both vanish at p^0.
    """
    a = 2 // g.m
    product = g * e4  # weight 2, so its constant term must vanish
    s_tilde = g.theta() * a - product.theta_antider() * Fraction(r * r, a)
    c_over_u = s_tilde.coeff(0)
    return s_tilde - c_over_u, c_over_u


def reference_relation_series(
    r: int, e4: LaurentSeries, M: int, g_size: int | Fraction = 0
) -> tuple[LaurentSeries, LaurentSeries]:
    """``solver.relation_series`` with g and S as two lists over one D and
    two dot products per step, one for the sum of the g_i b_(k-i) and
    one for that of the S_i b_(k-i); the packed pass must return ``==``
    series.  Each new coefficient, S_k and then g_k, is one rescale of
    both lists and D by what 4k(k - r), or the denominator of ``g_size``,
    leaves after cancelling.
    """
    size = -n0_for(r)
    m = e4.m
    rr = r * r
    b = e4.nums[::m]  # q-coefficients b_0..b_K of E4
    A, D = [1], 1  # g_0..g_(k-1) over D
    T: list[int] = []  # S_r..S_(k-1) over D

    def over_D(num: int, den: int) -> int:
        nonlocal A, T, D
        c = gcd(num, den) if den > 0 else -gcd(num, den)
        s = den // c
        if s != 1:
            A = [x * s for x in A]
            T = [x * s for x in T]
            D *= s
        return num // c

    for k in range(1, (M + size) // m + 1):
        den = 4 * k * (k - r)
        sk = 0
        if k > r:
            # over_D rebinds T, so T is read only after it returns.
            sk = over_D(rr * sum(map(mul, T, b[k - r : 0 : -1])), den)
            T.append(sk)
        gsum = sum(map(mul, A, b[k:0:-1]))
        if k == r:
            T.append(-r * gsum)
            gk = over_D(g_size.numerator * D, g_size.denominator)
        else:
            gk = over_D(rr * gsum + (2 * k - r) * sk, den)
        A.append(gk)
    return _on_lattice(A, D, m, -size, M), _on_lattice(T, D, m, size, M)


def separate_parts(res) -> tuple[LaurentSeries, LaurentSeries]:
    """The ODE and delta parts of a solve's certificate with S*E4 and
    g*E4 as two products of ``LaurentSeries.__mul__``, as a solve formed
    them before it packed g and S into one product."""
    r, a = res.r, 2 // res.m
    g, S = res.g, res.S
    e4 = eisenstein(4, g.N - res.n0, res.m)
    return (
        S.theta().theta() * (a * a) - S * e4 * (r * r),
        S.theta() * a - g.theta().theta() * (a * a) + g * e4 * (r * r),
    )


def direct_schwarz_residual(res):
    """{h,tau}/pi^2 - 2*r^2*E4 = W^2/2 - a*theta(W) - 2*r^2*E4 with
    W = a^2*theta^2(R)/h' and h' = 1 + a*theta(R), on its trusted window."""
    r, m = res.r, res.m
    a = 2 // m
    R = res.R
    e4 = eisenstein(4, res.g.N - res.n0, m)
    h_deriv = R.theta() * a + 1
    W = R.theta().theta() * (a * a) * h_deriv.inverse()
    return W * W * Fraction(1, 2) - W.theta() * a - e4 * (2 * r * r)


def wronskian(g, S):
    """w = S^2 - 2a*(S*theta(g) - g*theta(S)), the rational series of the
    Wronskian F1*F2' - F1'*F2 = u^2*w of F1 = u*S and F2 = -2g + tau*F1.

    When R*S = -2g this is S^2*(1 + a*theta(R)) = S^2*h', with no inverse.
    It is computed as S*(S - 2a*theta(g)) + 2a*g*theta(S): two products.
    """
    a = 2 // g.m
    return S * (S - g.theta() * (2 * a)) + g * S.theta() * (2 * a)


def schwarzian_via_differences(h, tau: complex, step: float = 5e-4) -> complex:
    """Finite-difference Schwarzian of a callable h; independent of any
    series reduction, used to cross-validate the exact derivation."""
    f = [h(tau + k * step) for k in (-2, -1, 0, 1, 2)]
    d1 = (f[0] - 8 * f[1] + 8 * f[3] - f[4]) / (12 * step)
    d2 = (-f[0] + 16 * f[1] - 30 * f[2] + 16 * f[3] - f[4]) / (12 * step**2)
    d3 = (f[4] - 2 * f[3] + 2 * f[1] - f[0]) / (2 * step**3)
    return d3 / d1 - 1.5 * (d2 / d1) ** 2


def equivariant_offset(form: LaurentSeries, weight) -> LaurentSeries:
    """The rational series o with h_f - tau = u^(-1) * o, where
    h_f = tau + k*f/f' is the equivariant map built from a weight-k form.

    On lattice m the derivative is f' = (2/m)*u*theta(f), so
    o = (k*m/2) * f / theta(f).  A zero theta(f) is refused by name.
    """
    return form / _theta_of(form, weight) * Fraction(weight * form.m, 2)


def cross_ratio(
    o1: LaurentSeries,
    o2: LaurentSeries,
    o3: LaurentSeries,
    o4: LaurentSeries,
) -> LaurentSeries:
    """Cross-ratio [z1,z2,z3,z4] of four points z_i = tau + u^(-1)*o_i.

    The u-powers cancel between numerator and denominator, so the result
    is again a rational Laurent series:
    ((o1-o2)(o4-o3)) / ((o1-o3)(o4-o2)).  Coinciding points are refused
    by name.
    """
    d12 = _difference("z1-z2", o1, o2)
    d43 = _difference("z4-z3", o4, o3)
    d13 = _difference("z1-z3", o1, o3)
    d42 = _difference("z4-z2", o4, o2)
    return (d12 * d43) / (d13 * d42)


def tau_cross_ratio(forms) -> LaurentSeries:
    """The cross-ratio [tau, h_f1, h_f2, h_f3] of three (form, weight)
    pairs: tau's offset is the zero series on the first form's window,
    and each h_f - tau is ``equivariant_offset`` of its form."""
    forms = list(forms)
    f = forms[0][0]
    offsets = (equivariant_offset(form, weight) for form, weight in forms)
    return cross_ratio(LaurentSeries.zero(f.m, f.N), *offsets)


def reference_eval_series(
    series: LaurentSeries, tau: complex, e: int = 0, *, tolerance: float | None = None
) -> tuple[complex, float]:
    """``numeric.eval_series`` term by term, with no cache: each term is
    ``x / den * p**n`` with both factors formed afresh (the evaluator
    reads ``x / den`` from its doubles cache and forms ``p**n`` in its
    loop), added left to right, and the tail is extrapolated from the last
    five nonzero terms of the list of all of them."""
    if tau.imag <= 0:
        raise PointOutsideDomain(f"Im tau must be positive, got {tau}")
    p = cmath.exp(2j * math.pi * tau / series.m)
    if abs(p) >= 1.0:
        raise PointOutsideDomain(f"|p| rounds to 1.0 at tau = {tau}")
    value = 0j
    terms = []
    for n, x in enumerate(series.nums, series.n_min):
        if x:
            try:
                t = x / series.den * p**n
            except OverflowError:
                t = _scaled_term(x, series.den, p, n)
            value += t
            terms.append((n, abs(t)))
    tail = _reference_tail(terms, series.N, abs(p))
    if tolerance is not None and tail > tolerance:
        raise TailTooLarge(f"tail estimate {tail:.3e} exceeds {tolerance:.3e}")
    return U**e * value, tail


def _reference_tail(terms: list[tuple[int, float]], N: int, ap: float) -> float:
    if not terms:
        return 0.0
    window = [t for t in terms[-5:] if t[1] > 0.0]
    if len(window) >= 2:
        (n0, m0), (n1, m1) = window[0], window[-1]
        ratio = (m1 / m0) ** (1.0 / (n1 - n0))
    else:
        n1, m1 = terms[-1] if not window else window[-1]
        ratio = ap
    if ratio >= 1.0:
        raise TailTooLarge(f"terms are not decaying (ratio {ratio:.3f})")
    return TAIL_FACTOR * m1 * ratio ** (N + 1 - n1) / (1.0 - ratio)


def reference_seed_t0(group, N: int) -> LaurentSeries:
    """The seed as the paper's product: E4*E6*eta^-24 on the full group,
    E4*eta^-12 on the squares; built at order 0 or above, then cut to N."""
    M = max(N, 0)
    if group is Group.FULL:
        seed = eisenstein(4, M + 1) * eisenstein(6, M + 1) * eta_power(-24, M)
    else:
        seed = eisenstein(4, M + 1, 2) * eta_power(-12, M)
    return seed.truncate(N)


def triangular_series(N: int) -> LaurentSeries:
    """psi = sum q^(n(n+1)/2) through q^N, with theta2 = 2 q^(1/8) psi."""
    if N < 0:
        return LaurentSeries.zero(1, N)
    terms = {}
    n = 0
    while n * (n + 1) // 2 <= N:
        terms[n * (n + 1) // 2] = 1
        n += 1
    return LaurentSeries.from_terms(1, terms, N, n_min=0)


def reference_theta2_fourth(N: int) -> LaurentSeries:
    """theta2^4 = 16*p*psi(p^2)^4, with psi raised to the fourth power."""
    psi4 = triangular_series(max((N - 1) // 2, 0)).align(2) ** 4
    times_p = LaurentSeries.from_numerators(2, psi4.n_min + 1, psi4.nums, psi4.den)
    return (times_p * 16).truncate(N)


def reference_theta_logderiv(j: int, N: int) -> tuple[Fraction, LaurentSeries]:
    """q d/dq log theta_j as (offset, body) from theta_j itself: half of
    p d/dp log theta_j for j = 3, 4, and for theta2 = 2 q^(1/8) psi the
    offset 1/8 and q d/dq log psi, taken on lattice 1 and aligned."""
    if j == 2:
        psi = triangular_series(max((N + 1) // 2, 1))
        return Fraction(1, 8), (psi.theta() / psi).align(2).truncate(N)
    t = theta_series(j, N)
    return Fraction(0), t.theta() / t * Fraction(1, 2)


def claim_matches_series(claim, result, overlap: int) -> bool:
    """True when a ``closed_forms.Claim`` comes out as stated on the
    series: its literal, expanded by ``closed_forms.expand`` at the
    output's order N on the output's lattice, matches the output on at
    least ``overlap`` coefficients, or, for a variant with ``holds``
    False, does not.  The output is X, g, S, R, or theta_antider(g*E4)."""
    if claim.output == "X":
        return (list(result.X) == list(claim.reference)) == claim.holds
    if claim.output == "antider":
        out = (result.g * eisenstein(4, result.g.N + 1, 2)).theta_antider()
    else:
        out = getattr(result, claim.output)
    reference = expand(claim.reference, out.N, out.m)
    return out.matches(reference, min_overlap=overlap) == claim.holds
