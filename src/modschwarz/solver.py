"""Quasi-modular solutions of y'' + pi^2 r^2 E4 y = 0 and equivariant
solutions of {h, tau} = 2 pi^2 r^2 E4, for every positive integer r.

One end-to-end run (``solve_ode``) does the following.  Write u = i*pi.
On the group's lattice (m = 1 for even r, m = 2 for odd r) the expansion
variable is p = q**(1/m) and d/dtau = a*u*theta with a = 2/m and
theta = p d/dp.

1. One pass of the ODE's coefficient relation, in integers, from the
   deepest pole p^n0 (size = -n0) to the full budget (``relation_series``)
   gives g and the first solution S.  Below p^0 it is B X = X: the
   principal part X of g is the eigenvalue-1 eigenvector of the
   upper-triangular matrix B (``build_B``, ``solve_eigen``) with deepest
   component 1.  At p^size it leaves g free.
2. Realise the weight -2 form with principal part X as P(t)*t0, with t
   the Hauptmodul and t0 the seed form, only through
   p^(size + CROSS_RATIO_MIN_OVERLAP): the coefficients of P are residue
   pairings (``build_g``), and P(t)*t0 is evaluated by Paterson-Stockmeyer.
   Its coefficient at p^size fixes the free multiple of S in g; the two
   must agree wherever both are known.
3. The first solution is F1 = u*S with
   S = a*theta(g) - (r^2/a)*theta_antider(g*E4); its constant term, the
   value of F1/u at the cusp, is 0 for every r.  The pass of step 1
   gives S alongside g; g*E4 is formed only to check it (step 5).
4. The second solution is F2 = -2g + tau*F1, so the Schwarzian solution is
   h = F2/F1 = tau + (1/u)*R with R = -2*g/S.  The quotient g/S is one
   pass of the series quotient kernel, forward substitution over one
   common denominator.
5. Verify exactly, each on its full trusted window:
       a^2*theta^2(S) - r^2*E4*S == 0                          (ODE)
       a*theta(S) - a^2*theta^2(g) + r^2*g*E4 == 0             (delta)
       R*S + 2*g == 0                                          (division)
   and the constant 4*r*lambda of the Wronskian is nonzero, with lambda
   the leading coefficient of S.  By Abel's identity these prove
   {h,tau}/pi^2 - 2*r^2*E4 == 0 on the window that R determines;
   ``solve_ode`` states the lemma.  R*S is the only product of two of
   g, S and R.

A second implementation of the recurrence for S (``frobenius_oracle``)
checks the bookkeeping of the pass of step 1; the ODE residual is the proof.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from operator import mul
from typing import NamedTuple

from .modforms import Group, eisenstein, hauptmodul, j1728, seed_t0, theta_fourth
from .series import (
    LaurentSeries, _clear_denominators, _constant_term, _on_lattice, format_rational
)


class MatchFailure(RuntimeError):
    """The coefficient relation's g differs from the short modular build
    at an exponent both know: a fault in the generators t, t0 and E4, in
    the residue pairings, or in the relation's pass, its principal part X
    included."""


class ResidualNonzero(RuntimeError):
    """A residual that is guaranteed to vanish did not (construction bug)."""


class ZeroDerivative(ArithmeticError):
    """Equivariant offset of a form with vanishing derivative."""


class DegenerateEntries(ValueError):
    """Cross-ratio of entries that are not pairwise distinct."""


# Largest r that solve_ode and the CLI accept.  Run time sets it, almost
# all of it in the series products and the one division.  The slowest case
# is even r = 200 at its minimum order 402, where R's numerators reach
# 14660 bits.  On a 2-CPU VM (CPU, three runs) ``solve --format json``
# took 3.2-4.1 s: R = -2g/S 1.2-1.3 s, R*S + 2g 1.2-1.4 s, the short
# modular build 0.17-0.23 s and the recurrence 0.15-0.23 s.  Odd r = 199
# lives on lattice 2, where the kernels skip the zero half: ``verify`` at
# its minimum order 400 took 0.96-1.18 s.
MAX_R = 200

# Largest --order the CLI accepts, for every command.  The slowest input
# it lets through is r = MAX_R at this order: ``solve --format json`` took
# 8.1-8.5 s CPU and 44 MiB peak RSS on a 2-CPU VM (two runs; 3.2-4.1 s at
# order 402), and prints 6.4 MB; r = 2 at this order took 0.4 s.
MAX_ORDER = 600

# Fewest coefficients an identity comparison may rest on; also how far past
# p^size a solve builds g as a modular form, to compare with the recurrence.
CROSS_RATIO_MIN_OVERLAP = 10


def n0_for(r: int) -> int:
    """Deepest pole exponent: -r/2 for even r, -r for odd r (in p-units)."""
    return -(r // 2) if r % 2 == 0 else -r


def build_B(r: int) -> tuple[tuple[Fraction, ...], ...]:
    """The upper-triangular matrix B of the system B X = X that kills the
    singular part.  A solve reads X off ``relation_series`` instead; B
    and ``solve_eigen`` are its reference.

    ``B[k-1][l-1]`` is B_{k,l} = r^2 * b_{l-k} / (a^2 k^2) for l >= k,
    where the b_j are the E4 coefficients on the group's lattice and
    a = 2/m.  The last diagonal entry is exactly 1; every other diagonal
    entry differs from 1, which makes the eigenvector unique once the last
    component is pinned to 1.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    m = Group.for_r(r).lattice
    a = 2 // m
    size = -n0_for(r)
    b = eisenstein(4, size - 1, m).nums  # integers b_0..b_(size-1)
    rows = []
    for k in range(1, size + 1):
        scale = Fraction(r * r, a * a * k * k)
        row = tuple(
            scale * b[l - k] if l >= k else Fraction(0)
            for l in range(1, size + 1)
        )
        rows.append(row)
    return tuple(rows)


def solve_eigen(B: tuple[tuple[Fraction, ...], ...]) -> tuple[Fraction, ...]:
    """Unique eigenvector X of B for eigenvalue 1 with last component 1.

    Component X[i] (0-based) is the principal-part coefficient a_{-(i+1)}.
    Back-substitution runs from the deepest pole upwards; the divisions by
    1 - B_{k,k} are safe because those diagonal entries are != 1.
    """
    size = len(B)
    X: list[Fraction] = [Fraction(0)] * size
    X[size - 1] = Fraction(1)
    for k in range(size - 1, 0, -1):
        s = sum(
            (B[k - 1][l - 1] * X[l - 1] for l in range(k + 1, size + 1)),
            Fraction(0),
        )
        X[k - 1] = s / (1 - B[k - 1][k - 1])
    return tuple(X)


def build_g(X: tuple[Fraction, ...], group: Group, N: int) -> LaurentSeries:
    """The weight -2 form with principal part x = sum X[i] * p^(-(i+1)).

    Built as G = P(t)*t0 where t is the Hauptmodul and t0 the seed form.
    The coefficients c_j of P are residue pairings.  On both groups
    ``seed_t0`` builds t0 as -theta(t)/E4, the paper's E4*E6/Delta or
    E4/Delta^(1/2), so G*E4 = -P(t)*theta(t), and t^n*theta(t) has
    constant term 0 for n != -1 (it is theta(t^(n+1))/(n+1)) and -1 for
    n = -1 (theta(log t)).  So c_j = CT(G*E4*t^(-(j+1))), and as
    t^(-(j+1)) = O(p^(j+1)) and E4 = 1 + O(p), only x*E4 through p^-1
    reaches it: c_j = CT(x*E4 * s^(j+1)), s = 1/t through p^len(X).  The
    powers go baby-step giant-step, L = isqrt(len(X)): the baby steps
    s^1..s^L, the giant steps x*E4*s^(i*L), each from the one before and
    cut to p^-1, and then c_j is one constant term of a giant step times a
    baby step.  So about 2*sqrt(len(X)) products build the powers, where
    one product per power made the pairings cubic in len(X): 40 against
    130 ms at r = 199 (len(X) = 199), 3 against 6 ms at r = 96 (CPU, one
    process, 2-CPU VM).

    P(t) is then evaluated through p^N by Paterson-Stockmeyer: with the
    coefficients over one integer denominator D and k = isqrt(deg P + 1),
    the blocks Q_i(t) are integer combinations of t, ..., t^(k-1), and
    Horner's rule in t^k joins them.  That is about 2*sqrt(deg P) products
    at the budget N + len(X) - 1 instead of deg P, then one product with
    t0 and one division by D.  t0 and t are asked for once each, at that
    budget; the pairings cut t to order len(X).  A solve asks for g only
    through p^(len(X) + CROSS_RATIO_MIN_OVERLAP).
    """
    size = len(X)
    budget = N + size - 1
    t0 = seed_t0(group, budget)
    t = hauptmodul(group, budget)
    h = LaurentSeries(t.m, -size, X[::-1]) * eisenstein(4, size - 1, t.m)
    s = t.truncate(size).inverse().truncate(size)  # p + ..., through p^size
    L = isqrt(size)
    baby = [s]  # s^b through p^size for b = 1..L, from s^(b-1) = O(p^(b-1))
    for b in range(2, L + 1):
        baby.append(baby[-1].truncate(size - 1) * s.truncate(size - b + 1))
    c, giant = [], h  # giant = h*s^(i*L) through p^-1, from p^(i*L - size)
    for i in range(0, size, L):
        if i:
            giant = giant * baby[-1].truncate(size - 1 - i + L)
        c += [_constant_term(giant, sb) for sb in baby[: size - i]]
    C, D = _clear_denominators(c)
    deg = max((j for j, cj in enumerate(C) if cj), default=0)
    k = isqrt(deg + 1)
    tp = [1, t]  # tp[l] = t^l
    for _ in range(k - 1):
        tp.append(tp[-1] * t)

    def block(i: int):
        """Q_i(t) = sum C[i*k + l] * t^l over l < k, an int when only l = 0."""
        top = min(i * k + k, deg + 1)
        return sum(C[j] * tp[j - i * k] for j in range(i * k, top) if C[j])

    P = block(deg // k)
    for i in range(deg // k - 1, -1, -1):
        P = P * tp[k] + block(i)
    return P * t0 / D


def relation_series(
    r: int, e4: LaurentSeries, M: int
) -> tuple[LaurentSeries, LaurentSeries]:
    """One pass of the ODE's coefficient relation from p^-size through
    p^M (size = -n0): the weight -2 form g with g_(-size) = 1 and 0 at
    p^size, and the first solution S with F1 = u*S.

    S = a*theta(g) - (r^2/a)*theta_antider(g*E4), which builds in
    a*theta(S) = a^2*theta^2(g) - r^2*g*E4.  On lattice m, g and S can be
    nonzero only at the exponents n = -size + m*k, one per q-step k >= 0,
    and E4 only at multiples of m, so the pass runs on k and reads b_j, the
    coefficient of q^j in E4 (``e4`` on lattice m, known through
    p^(M + size)).  With a = 2/m, a*n = 2k - r on both lattices, and
    coefficient by coefficient the relation reads
        4k(k - r) g_k = r^2 * sum_(i<k) g_i b_(k-i) + (2k - r)*S_k.
    The pass puts S_k = 0 for k < r, that is below p^size.  For k < r the
    relation is then B X = X row by row (``build_B``), with X[i] the
    coefficient of g at p^(-(i+1)), and the factor 4k(k - r) is negative,
    never 0.  At p^0 both theta(g) and theta_antider(g*E4) vanish, so S is
    0 there (the cusp value c/u, which ``solve`` prints, is 0 for every
    r), as at every exponent below p^size.  At k = r, n = size, the left
    side vanishes, so the relation fixes lambda = S_r = -r * sum_(i<r)
    g_i b_(r-i), and g_r is free: g + c*S has the same S.  For k > r,
    S_k comes from the ODE,
        4k(k - r) S_k = r^2 * sum_(r<=i<k) S_i b_(k-i),
    and then g_k from the relation.  The lattice only decides where the
    results land: step k is the coefficient of p^(-size + m*k) of g and of
    S, and the exponents in between are zero.

    Why g + (g_size/lambda)*S is the modular g = P(t)*t0 of ``build_g``
    to all orders, with g_size its coefficient at p^size.  Write Gamma for
    SL2(Z) or its index-2 subgroup of squares; both have genus 0, one cusp
    and no cusp forms of weight 2 or 4.
    1. The modular g is a weakly holomorphic form of weight -2 on Gamma.
    2. g*E4 has weight 2 and zero constant term, so its antiderivative is
       a modular function, and Sigma = S + E2*g/3 is weakly holomorphic of
       weight 0.
    3. By E2's law, (F2, F1) = (-2g + tau*F1, u*S) transforms as a vector
       of weight -1 for the standard representation; by Bol's identity,
       F'' + pi^2 r^2 E4 F then has weight 3.  This S makes
       L(F2) = tau*L(F1), so u^3*E = L(F1) is weakly holomorphic of weight
       4, where E = a^2*theta^2(S) - r^2*E4*S, with poles of order at
       most size.
    4. With X the eigenvector, S has no principal part, and its constant
       term is removed, so E is O(p): a weight-4 cusp form on Gamma,
       hence zero.
    5. So S solves the ODE to all orders: S_k = 0 for k < r and the S_k
       for k > r follow from S_r.  The modular g meets the relation above
       with these S_k, so by induction on k it has the coefficients of
       this pass below p^size, and those of g + (g_size/lambda)*S from
       p^size on.

    The g_k and S_k are kept as integers over one common denominator D,
    as in ``frobenius_oracle``: each step is an integer dot product with
    the b_j.  Each new coefficient, S_k and then g_k, is one rescale: A,
    the S numerators and D grow by what 4k(k - r) leaves after cancelling.
    """
    size = -n0_for(r)
    m = e4.m
    rr = r * r
    b = e4.nums[::m]  # q-coefficients b_0..b_K of E4
    A, D = [1], 1  # g_0..g_(k-1) over D
    T: list[int] = []  # S_r..S_(k-1) over D

    def over_D(num: int, den: int) -> int:
        """num/den, a new coefficient times D, as an integer over the new
        D; A, T and D are rescaled by what den leaves after cancelling."""
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
            gk = 0
        else:
            gk = over_D(rr * gsum + (2 * k - r) * sk, den)
        A.append(gk)
    return _on_lattice(A, D, m, -size, M), _on_lattice(T, D, m, size, M)


class SolveResult(NamedTuple):
    """Everything one run produces, plus the residuals that prove it."""

    r: int
    N: int  # the order solve_ode was asked for
    group: Group
    X: tuple[Fraction, ...]
    g: LaurentSeries
    S: LaurentSeries
    R: LaurentSeries
    ode_residual: LaurentSeries
    delta_residual: LaurentSeries
    division_residual: LaurentSeries
    wronskian: Fraction  # w(0) = 4*r*lambda*g_(-k), the constant of w (solve_ode)

    @property
    def m(self) -> int:
        return self.group.lattice

    @property
    def n0(self) -> int:
        return n0_for(self.r)

    @property
    def trusted_order(self) -> int:
        return self.R.N

    def certificate(self) -> tuple[tuple[str, LaurentSeries], ...]:
        """The three parts of the Schwarzian certificate, each a series that
        must be zero on its whole window; the Wronskian's constant must
        also be nonzero."""
        return (
            ("ODE", self.ode_residual),
            ("delta", self.delta_residual),
            ("division", self.division_residual),
        )

    def certificate_failure(self) -> str | None:
        """The first part of the certificate that fails, named with r, the
        order and its first nonzero coefficient; None if all three hold."""
        where = f"for r={self.r} at order {self.N}"
        for name, residual in self.certificate():
            v = residual.order
            if v is not None:
                return (
                    f"{name} residual nonzero {where}: "
                    f"coefficient {format_rational(residual.coeff(v))} at p^{v}"
                )
        if self.wronskian == 0:
            return f"Wronskian is zero {where}: coefficient 0 at p^0"
        return None

    @property
    def schwarz_residual_zero(self) -> bool:
        """{h,tau}/pi^2 - 2*r^2*E4 == 0 on the window of R, as certified by
        ``certificate`` (see ``solve_ode`` for the lemma)."""
        return self.certificate_failure() is None

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "group": self.group.value,
            "m": self.m,
            "n0": self.n0,
            "X": [format_rational(x) for x in self.X],
            "g": self.g.to_json_dict(),
            "S": self.S.to_json_dict(),
            "R": self.R.to_json_dict(),
            "c_over_u": "0",  # the cusp value, 0 for every r (relation_series)
            "ode_residual_zero": self.ode_residual.is_zero(),
            "schwarz_residual_zero": self.schwarz_residual_zero,
            "trusted_order": self.trusted_order,
        }


def minimum_order(r: int) -> int:
    """Smallest series order solve_ode accepts for this r."""
    return 2 * (-n0_for(r)) + 2


def solve_ode(r: int, N: int = 40) -> SolveResult:
    """Run the whole construction; S, R and g are trusted through at least N.

    Budgets are chosen from the exact trust propagation: division by S
    (order -n0) costs 3*(-n0) orders on R, so g is carried to
    M = N + 3*(-n0) + 4 and E4 to M - n0.  X, g and S come from one pass
    of the ODE's coefficient relation (``relation_series``), so a solve
    builds no matrix B, and forms g*E4 only to check the pass.  The
    Hauptmodul and the seed form are asked for only through
    2*(-n0) + CROSS_RATIO_MIN_OVERLAP, whatever N is, for the short
    modular build from X.  Its coefficient at p^(-n0), where the pass
    leaves g free, fixes the multiple of S added to g; on every other
    exponent it knows, g must equal it, or ``MatchFailure`` names the
    first that differs.  That compare also names a wrong X, since g from
    p^0 on follows the relation and not the X read off it, and so does
    the delta part below (delta starts at p^n0).  A changed g at p^(-n0)
    passes both (g + c*S gives the same S).

    R = g/S * (-2) is the one division of a solution series; the short build
    inverts only t.  ``g / S`` runs the quotient kernel of
    ``LaurentSeries.inverse``: it divides the numerators of g and of S by
    their contents (at r = 96 those of S share 795 of their 1964 bits), then
    finds the quotient one coefficient at a time by forward substitution.
    Each coefficient stays over the denominator of its own step, which grows
    only by the part of S's leading numerator that does not cancel, and all
    of them go over the last denominator once, at the end: at r = 96 that
    denominator grows at each of its 199 steps, to 2489 bits, and no earlier
    coefficient is rescaled on the way.  There is no inverse of S and no
    product after the division.  The price is paid in R*S: over R's last
    denominator its early numerators carry the factors only later steps
    brought in (37% of R's numerator bits at r = 96), so the division
    residual multiplies each block of R over its own share of that
    denominator (``series._convolve_blocks``), in 0.6 of the plain
    kernel's time at r = 96 and about half at r = 199 and 200.

    The Schwarzian equation is certified, not expanded.  Write k = -n0,
    E = a^2*theta^2(S) - r^2*E4*S (the ODE residual),
    delta = a*theta(S) - a^2*theta^2(g) + r^2*g*E4 and
    w = S^2 - 2a*(S*theta(g) - g*theta(S)), so that u^2*w is the
    Wronskian F1*F2' - F1'*F2 of F1 = u*S and F2 = -2g + tau*F1.  Take g,
    S and E4 as the Laurent polynomials stored and R as the exact
    quotient -2g/S.  Then (i), (ii) and (iii) hold as identities of formal
    Laurent series:

    (i)   h' = 1 + a*theta(R) = w/S^2, since theta(R)*S^2 =
          -2*(S*theta(g) - g*theta(S)).
    (ii)  theta(w) = (2/a)*(S*delta + g*E) (Abel's identity, with
          residuals): F2 has tau times the ODE residual of F1, and delta
          is what is left.  The recurrence builds delta == 0 in; the
          delta part checks its integer pass against the convolution
          kernel of ``LaurentSeries.__mul__``.
    (iii) With V = a*theta(w)/w, the field W = a^2*theta^2(R)/h' equals
          -2a*theta(S)/S + V, and
            {h,tau}/pi^2 - 2r^2*E4 = W^2/2 - a*theta(W) - 2r^2*E4
                                   = 2E/S + V*(V/2 - 2a*theta(S)/S) - a*theta(V).
          When w is a constant, V = 0 and this is 2E/S.

    Windows.  g and S are known through M, E and delta through M,
    R*S + 2g through M - 2k, and R through N_R = M - 3k.  The certificate
    is: E == 0 and delta == 0 through M, R*S + 2g == 0 through N_R + k,
    and w(0) != 0.  By (ii), theta(w) == 0 through M - k = N_R + 2k: S*delta
    vanishes through M + k (S has order k) and g*E through M - k (g has
    order -k).  So w == w(0) through N_R + 2k, and w(0) = 4*r*lambda*g_(-k)
    with lambda = S_k, since only S_k*g_(-k) reaches p^0 in S*theta(g)
    and g*theta(S), and a*k = r.  The division part fixes every
    coefficient of R (the one at p^j first enters R*S at p^(j+k)), so R
    is the exact quotient through N_R.  Through N_R + 2k, the direct
    residual reads R only through N_R, V vanishes (w - w(0) does, and w
    is a unit of order 0), theta(S)/S has order >= 0, and E/S vanishes
    (E is zero through M, S has order k), so (iii) is 2E/S = 0.  So the
    Schwarzian residual is zero through N_R + 2k, the whole window a
    direct expansion from R reaches.  Each part is checked on its own, so
    that two nonzero parts cannot cancel, and each failure raises
    ``ResidualNonzero`` naming it.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    if r > MAX_R:
        raise ValueError(f"r={r} is above the limit MAX_R={MAX_R}")
    if N < minimum_order(r):
        raise ValueError(
            f"order {N} is below the minimal budget {minimum_order(r)} for r={r}"
        )
    group = Group.for_r(r)
    m = group.lattice
    a = 2 // m
    size = -n0_for(r)
    where = f"for r={r} at order {N}"

    M = N + 3 * size + 4
    e4 = eisenstein(4, M + size, m)
    g, S = relation_series(r, e4, M)
    if S.order != size:
        raise ResidualNonzero(
            f"first solution has no term at p^{size} {where}: "
            f"S has order {S.order}, wanted {size}"
        )
    X = tuple(g.coeff(-i) for i in range(1, size + 1))
    short = build_g(X, group, size + CROSS_RATIO_MIN_OVERLAP)
    g = g + S * (short.coeff(size) / S.coeff(size))
    n = (g - short).order
    if n is not None:
        raise MatchFailure(
            f"g by the recurrence {where}: coefficient at p^{n} is "
            f"{format_rational(g.coeff(n))}, "
            f"the short modular build gives {format_rational(short.coeff(n))}"
        )

    R = g / S * (-2)
    res = SolveResult(
        r=r,
        N=N,
        group=group,
        X=X,
        g=g,
        S=S,
        R=R,
        ode_residual=S.theta().theta() * (a * a) - S * e4 * (r * r),
        delta_residual=S.theta() * a - g.theta().theta() * (a * a) + g * e4 * (r * r),
        division_residual=R * S + g * 2,
        wronskian=4 * r * S.coeff(size) * g.coeff(-size),
    )
    failure = res.certificate_failure()
    if failure is not None:
        raise ResidualNonzero(failure)
    return res


def frobenius_oracle(r: int, N: int) -> LaurentSeries:
    """The regular Frobenius solution S/lambda by direct recurrence: a
    second implementation that checks the bookkeeping of the pass in
    ``relation_series``; the ODE residual of a solve is the proof.

    y = sum_{n >= -n0} alpha_n p^n with alpha_{-n0} = 1.  As in
    ``relation_series``, only n = -n0 + m*k can carry a coefficient, and
    with b_j the q-coefficients of E4 and a*n = r + 2k,
    4k(k + r) alpha_k = r^2 * sum_{i < k} alpha_i b_{k-i} for k >= 1: the
    pass's 4k(k - r) S_k = r^2 * sum S_i b_(k-i) shifted by r steps, with
    a divisor that never vanishes.

    The b_j are integers, so the alphas are kept as integers A over one
    common denominator D: each step is an integer dot product, the part
    of the divisor that cancels against it is divided out, and A and D
    are rescaled only by what remains.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    m = Group.for_r(r).lattice
    lead = -n0_for(r)
    if N < lead:
        raise ValueError(f"order {N} cannot hold the leading exponent {lead}")
    b = eisenstein(4, N - lead, m).nums[::m]  # q-coefficients b_0..b_K
    A = [1]
    D = 1
    for k in range(1, (N - lead) // m + 1):
        num = r * r * sum(map(mul, A, b[k:0:-1]))
        den = 4 * k * (k + r)
        g = gcd(num, den)
        num //= g
        den //= g
        if den != 1:
            A = [x * den for x in A]
            D *= den
        A.append(num)
    return _on_lattice(A, D, m, lead, N)


def equivariant_offset(form: LaurentSeries, weight) -> LaurentSeries:
    """The rational series o with h_f - tau = u^(-1) * o, where
    h_f = tau + k*f/f' is the equivariant map built from a weight-k form.

    On lattice m the derivative is f' = (2/m)*u*theta(f), so
    o = (k*m/2) * f / theta(f).
    """
    tf = form.theta()
    if tf.is_zero():
        raise ZeroDerivative(
            f"the weight {weight} form has zero derivative on its known window, "
            f"through order {form.N}"
        )
    return form / tf * (Fraction(weight) * Fraction(form.m, 2))


def cross_ratio(
    o1: LaurentSeries,
    o2: LaurentSeries,
    o3: LaurentSeries,
    o4: LaurentSeries,
) -> LaurentSeries:
    """Cross-ratio [z1,z2,z3,z4] of four points z_i = tau + u^(-1)*o_i.

    The u-powers cancel between numerator and denominator, so the result
    is again a rational Laurent series:
    ((o1-o2)(o4-o3)) / ((o1-o3)(o4-o2)).
    """
    d12 = o1 - o2
    d43 = o4 - o3
    d13 = o1 - o3
    d42 = o4 - o2
    for name, d in (("z1-z2", d12), ("z4-z3", d43), ("z1-z3", d13), ("z4-z2", d42)):
        if d.is_zero():
            raise DegenerateEntries(f"difference {name} vanishes through order {d.N}")
    return (d12 * d43) / (d13 * d42)


def tau_cross_ratio(forms) -> LaurentSeries:
    """The cross-ratio [tau, h_f1, h_f2, h_f3] of three (form, weight)
    pairs, as a rational series (see ``cross_ratio``).

    tau is the point with offset 0, the zero series on the first form's
    window; each h_f - tau is ``equivariant_offset`` of its form.
    """
    forms = list(forms)
    f = forms[0][0]
    offsets = (equivariant_offset(form, weight) for form, weight in forms)
    return cross_ratio(LaurentSeries.zero(f.m, f.N), *offsets)


def j_cross_ratio_matches(
    e4: LaurentSeries, dl: LaurentSeries, e6: LaurentSeries, overlap: int
) -> bool:
    """Whether [tau, h_E4, h_Delta, h_E6] == E4^3/(1728*Delta) = j/1728
    on at least ``overlap`` coefficients (``matches`` refuses a shorter
    common window), for E4, Delta and E6 known through one order."""
    cross = tau_cross_ratio([(e4, 4), (dl, 12), (e6, 6)])
    return cross.matches(j1728(e4.N) / 1728, min_overlap=overlap)


def anharmonic_images(mu: LaurentSeries) -> dict[str, LaurentSeries]:
    """The six images of mu under the anharmonic group; with
    mu/(mu-1) = 1 - 1/(1-mu) and (mu-1)/mu = 1 - 1/mu they take two
    inverses."""
    one_minus = 1 - mu
    inv = mu.inverse()
    inv_one_minus = one_minus.inverse()
    return {
        "mu": mu,
        "1-mu": one_minus,
        "1/mu": inv,
        "1/(1-mu)": inv_one_minus,
        "mu/(mu-1)": 1 - inv_one_minus,
        "(mu-1)/mu": 1 - inv,
    }


def classify_theta_cross_ratio(N: int) -> tuple[str, LaurentSeries]:
    """Identify which anharmonic image of mu = theta2^4/theta3^4 equals the
    cross-ratio [tau, h_theta2, h_theta3, h_theta4]; exact comparison.

    Every image is compared on at least ``CROSS_RATIO_MIN_OVERLAP``
    coefficients, and exactly one image may match.  The cross-ratio and
    mu both start at p^1 and are known through N, so N must be at least
    ``CROSS_RATIO_MIN_OVERLAP``.
    """
    if N < CROSS_RATIO_MIN_OVERLAP:
        raise ValueError(
            f"order {N} is below the {CROSS_RATIO_MIN_OVERLAP} coefficients "
            f"the theta cross-ratio is compared on"
        )
    # theta2 has no integer p-expansion, but h_{f^n} = h_f for any form f,
    # so each h_theta_j comes from the weight-2 form theta_j^4.
    cross = tau_cross_ratio((theta_fourth(j, N), 2) for j in (2, 3, 4))
    mu = theta_fourth(2, N) / theta_fourth(3, N)
    labels = [
        label
        for label, image in anharmonic_images(mu).items()
        if cross.matches(image, min_overlap=CROSS_RATIO_MIN_OVERLAP)
    ]
    if len(labels) != 1:
        raise ResidualNonzero(
            f"theta cross-ratio at order {N} matches {len(labels)} anharmonic "
            f"images of theta2^4/theta3^4 ({', '.join(labels) or 'none'}), "
            f"wanted exactly 1"
        )
    return labels[0], cross
