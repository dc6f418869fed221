"""Quasi-modular solutions of y'' + pi^2 r^2 E4 y = 0 and equivariant
solutions of {h, tau} = 2 pi^2 r^2 E4, for every positive integer r.

One end-to-end run (``solve_ode``) does the following.  Write u = i*pi.
On the group's lattice (m = 1 for even r, m = 2 for odd r) the expansion
variable is p = q**(1/m) and d/dtau = a*u*theta with a = 2/m and
theta = p d/dp.

1. The ODE's coefficient relation, in integers, from the deepest pole
   p^n0 (size = -n0) through p^-1 (``relation_series``) gives the
   principal part X of g: this head pass is how a solve finds X.  Below
   p^0 the relation is B X = X, so X is also the eigenvalue-1
   eigenvector of the upper-triangular matrix B with deepest component
   1; ``build_B`` and ``solve_eigen`` build it that way as the reference
   for the head pass, and no solve calls them.
2. Realise the weight -2 form with principal part X as P(t)*t0, with t
   the Hauptmodul and t0 the seed form, only through
   p^(size + CROSS_RATIO_MIN_OVERLAP): the coefficients of P are residue
   pairings (``build_g``), and P(t)*t0 is evaluated by Paterson-Stockmeyer.
   At p^size the relation leaves g free.  One pass of it from p^n0 to the
   full budget, with g at p^size read off this short build, gives g and
   the first solution S; the two g must agree wherever both are known.
3. The first solution is F1 = u*S with
   S = a*theta(g) - (r^2/a)*theta_antider(g*E4); its constant term, the
   value of F1/u at the cusp, is 0 for every r.  The pass of step 2
   gives S alongside g: it carries both as one packed integer list,
   g_k + (S_k << W), so that one dot product with the coefficients of E4
   gives both sums of a step.  g*E4 is formed only to check it (step 5).
4. The second solution is F2 = -2g + tau*F1, so the Schwarzian solution is
   h = F2/F1 = tau + (1/u)*R with R = -2*g/S.  The quotient -2g/S is one
   pass of the series quotient kernel, forward substitution over one
   common denominator.
5. Verify exactly, each on its full trusted window:
       a^2*theta^2(S) - r^2*E4*S == 0                          (ODE)
       a*theta(S) - a^2*theta^2(g) + r^2*g*E4 == 0             (delta)
       R*S + 2*g == 0                                          (division)
   and the constant 4*r*lambda of the Wronskian is nonzero, with lambda
   the leading coefficient of S.  By Abel's identity these prove
   {h,tau}/pi^2 - 2*r^2*E4 == 0 on the window that R determines;
   ``solve_ode`` states the lemma.  g*E4 and S*E4 come from one
   product of g and S packed as in step 3 (``series._mul_pair``), formed
   before R; the ODE and delta parts stay two series, each checked on its
   own.  R*S, formed as integer rows, is the only product of two of g, S
   and R.

Every coefficient of g, S and R is fixed by the ones below it, so
``solve_ode`` keeps each solve that passed, one per r.  A later solve of r
at or below its order is the stored one cut to its windows; above it, the
solve continues it: the pass resumes from its g and S, the quotient from
R's numerators, and the three parts of step 5 are formed only on the added
exponents (``solve_ode`` has the lemma).  A cold solve is the same code
from an empty prefix.  Only a solve that passed every check replaces an
entry, and only by a longer one; past STORE_BYTES of numerators the least
recently used entry goes.  ``solve_ode.cache_entries()`` and
``cache_clear()`` read and empty the store.

A second implementation of the recurrence for S (``frobenius_oracle``)
checks the bookkeeping of the pass of step 2; the ODE residual is the proof.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import add, mul
from sys import getsizeof
from typing import NamedTuple

from .modforms import Group, _with_store, eisenstein, hauptmodul, seed_t0, theta_fourth
from .series import (
    LaurentSeries,
    _clear_denominators,
    _constant_term,
    _mul_pair,
    _on_lattice,
    _pack,
    _pack_width,
    _product,
    _scaled,
    _unpack,
    format_rational,
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
# took 3.5-4.3 s: R = -2g/S 1.3-1.4 s, R*S + 2g 1.4-1.8 s, the short
# modular build 0.16-0.18 s and the two relation passes 0.13-0.14 s.
# Odd r = 199 lives on lattice 2, where the kernels skip the zero half:
# ``verify`` at its minimum order 400 took 0.95-1.10 s.
MAX_R = 200

# Largest --order the CLI accepts, for every command.  The slowest input
# it lets through is r = MAX_R at this order: ``solve --format json`` took
# 8.1-8.5 s CPU and 44 MiB peak RSS on a 2-CPU VM (two runs; 3.2-4.1 s at
# order 402), and prints 6.4 MB; r = 2 at this order took 0.4 s.
MAX_ORDER = 600

# Fewest coefficients an identity comparison may rest on; also how far past
# p^size a solve builds g as a modular form, to compare with the recurrence.
CROSS_RATIO_MIN_OVERLAP = 10

# Bits that ``relation_series`` adds to the packing width W past what the
# lemma of ``series._pack_width`` needs, so that it repacks rarely: a
# full pass at (96, 98) repacked 30 times with 64 and took about 8.6 ms,
# 8 times with 256 and 8.3 ms; with 0 the passes took 2-4 times as long.
_PACK_SLACK = 256


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
    reaches it (``residue_pairings``).  Its baby-step giant-step powers
    of 1/t take about 2*sqrt(len(X)) products, where one product per
    power made the pairings cubic in len(X): 40 against 130 ms at
    r = 199 (len(X) = 199), 3 against 6 ms at r = 96 (CPU, one process,
    2-CPU VM).

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
    C, D = _clear_denominators(residue_pairings(h, t, size))
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


def residue_pairings(h: LaurentSeries, t: LaurentSeries, n: int) -> list[Fraction]:
    """CT(h * t^-(j+1)) for j = 0..n-1, with h known from p^-n through
    p^-1 and t = 1/p + ... the Hauptmodul, known through p^n.

    t^-(j+1) = s^(j+1) = O(p^(j+1)) with s = 1/t, so only h through p^-1
    reaches the constant term.  The powers go baby-step giant-step,
    L = isqrt(n): the baby steps s^1..s^L, the giant steps h*s^(i*L),
    each from the one before and cut to p^-1, and each pairing is one
    constant term of a giant step times a baby step
    (``series._constant_term``).  ``build_g`` reads the coefficients of P
    this way, and ``closed_forms`` those of P and Psi.
    """
    s = t.truncate(n).inverse().truncate(n)  # p + ..., through p^n
    L = isqrt(n)
    baby = [s]  # s^b through p^n for b = 1..L, from s^(b-1) = O(p^(b-1))
    for b in range(2, L + 1):
        baby.append(baby[-1].truncate(n - 1) * s.truncate(n - b + 1))
    c, giant = [], h  # giant = h*s^(i*L) through p^-1, from p^(i*L - n)
    for i in range(0, n, L):
        if i:
            giant = giant * baby[-1].truncate(n - 1 - i + L)
        c += [_constant_term(giant, sb) for sb in baby[: n - i]]
    return c


def relation_series(
    r: int,
    e4: LaurentSeries,
    M: int,
    g_size: int | Fraction = 0,
    start: tuple[LaurentSeries, LaurentSeries] | None = None,
) -> tuple[LaurentSeries, LaurentSeries]:
    """One pass of the ODE's coefficient relation from p^-size through
    p^M (size = -n0): the weight -2 form g with g_(-size) = 1 and
    ``g_size`` at p^size, and the first solution S with F1 = u*S.  A pass
    through p^-1 gives the principal part of g alone, and S as the zero
    window, in 2-3% of the time of a full pass at r = 47, 64 and 96.
    ``start``, the g and S of an earlier pass of r through p^size or
    beyond, resumes the pass after its last step: each step reads only
    the steps below it, so the steps it holds are the ones this pass would
    find again, and ``g_size`` is already among them.

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
    g_i b_(r-i), and g_r is free: g + c*S has the same S.  The pass puts
    g_r = ``g_size``.  For k > r, S_k comes from the ODE,
        4k(k - r) S_k = r^2 * sum_(r<=i<k) S_i b_(k-i),
    and then g_k from the relation, which is linear in g and S: with
    (g0, S0) the pass with 0, the pass with ``g_size`` = c gives
    g0 + (c/lambda)*S0 and S0.  The lattice only decides where the
    results land: step k is the coefficient of p^(-size + m*k) of g and of
    S, and the exponents in between are zero.

    Why g is the modular g = P(t)*t0 of ``build_g`` to all orders when
    ``g_size`` is that form's coefficient at p^size.  Write Gamma for
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
       with these S_k, and it has g_size at p^size, so by induction on k
       it has the coefficients of this pass.

    The g_k and S_k are kept as integers over one common denominator D,
    as in ``frobenius_oracle``, and packed into one list,
    Z_i = g_i + (S_i << W) with S_i = 0 for i < r, so that one integer dot
    product with the b_j gives both sums of a step:
        sum_(i<k) Z_i b_(k-i) = sum g_i b_(k-i) + (sum S_i b_(k-i) << W).
    ``series._unpack`` reads the two sums back exactly while W is as wide
    as the lemma of ``series._pack_width`` asks for the g bits, the b_j
    and the K steps of the pass; the pass keeps a bound on the g bits as
    rescales grow them and repacks Z, ``_PACK_SLACK`` bits wider than the
    lemma needs, before they would outgrow W.  Each new coefficient, S_k
    and then g_k, is one rescale: Z and D grow by what 4k(k - r), or the
    denominator of ``g_size``, leaves after cancelling, and a rescale in
    the S step multiplies the g sum, read before it, by the same
    factor.  Carrying the modular g keeps the numbers short: at r = 96 the
    pass with 0 gives g over 74 bits, the one with the modular ``g_size``
    over 28.  Against a b_j of one or two 30-bit digits, a product of
    twice the bits costs little more than one, and the interpreter's cost
    per term, most of a step's time while the numbers are short, is paid
    once: a full pass took 7.2 against 10.7 ms with two lists at
    (2, 360) and 4.9 against 5.9 ms at (12, 240); where the g numerators
    pass about 2000 bits the arithmetic dominates and the two layouts are
    within 10%: 8.1 against 7.8 ms at (96, 98), 132 against 122 ms at
    (200, 402) (best of 7, one process, 2-CPU VM).  ``tests/oracles.py``
    keeps the pass with two lists as its reference.
    """
    size = -n0_for(r)
    m = e4.m
    rr = r * r
    b = e4.nums[::m]  # q-coefficients b_0..b_K of E4
    K = (M + size) // m
    e_bits = max(map(abs, b[: K + 1])).bit_length()
    if start is None:
        A, T, D = [1], [0], 1
    else:  # the steps of the earlier pass over one D
        g, S = start
        D = lcm(g.den, S.den)
        A = g._numerators(-size, g.N, D // g.den)[::m]
        T = [0] * r + S._numerators(size, S.N, D // S.den)[::m]
    g_bits = max(map(abs, A)).bit_length()  # every |g_i| < 2^g_bits
    W = _pack_width(g_bits, e_bits, K) + _PACK_SLACK
    Z = _pack(A, T, W)  # g_i + (S_i << W) for i < k, over D

    def widen(bits: int) -> None:
        """Let the g numerators reach 2^bits: repack Z, with slack, where
        the lemma of ``_pack_width`` needs a wider W."""
        nonlocal Z, W, g_bits
        g_bits = max(g_bits, bits)
        need = _pack_width(g_bits, e_bits, K)
        if need > W:
            Z = _pack(*_unpack(Z, W), need + _PACK_SLACK)
            W = need + _PACK_SLACK

    def over_D(num: int, den: int) -> tuple[int, int]:
        """num/den, a new coefficient times D, as an integer over the new
        D, and the step s: Z and D are rescaled by what den leaves after
        cancelling."""
        nonlocal Z, D
        c = gcd(num, den) if den > 0 else -gcd(num, den)
        s = den // c
        if s != 1:
            widen(g_bits + s.bit_length())
            Z = [z * s for z in Z]
            D *= s
        return num // c, s

    for k in range(len(Z), K + 1):
        den = 4 * k * (k - r)
        (gsum,), (ssum,) = _unpack([sum(map(mul, Z, b[k:0:-1]))], W)
        # A rescale in the S step leaves gsum over the old D: times s.
        sk, s = over_D(rr * ssum, den) if k > r else (0, 1)
        if k == r:
            gk, s = over_D(g_size.numerator * D, g_size.denominator)
            sk = -r * gsum * s
        else:
            gk, s = over_D(rr * gsum * s + (2 * k - r) * sk, den)
            sk *= s
        widen(gk.bit_length())
        Z.append(gk + (sk << W))
    A, T = _unpack(Z, W)
    return _on_lattice(A, D, m, -size, M), _on_lattice(T[r:], D, m, size, M)


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


# r -> (the longest solve of r that passed, the bytes of its g, S and R
# numerators), least recently used first (``solve_ode``).
_solves: dict[int, tuple[SolveResult, int]] = {}
_solves_lock = threading.Lock()

# Bytes of g, S and R numerators (``_footprint``) the store keeps before it
# drops its least recently used entry.  At the second orders of
# ``qa/manifest.py``, minimum_order(r) + 10, the entries take 7.6 MiB for
# r = 1..100, 7.3 MiB for the nine largest (r = 190..200) and 56.6 MiB for
# all of r = 1..200.
STORE_BYTES = 8 * 2**20


def _footprint(res: SolveResult) -> int:
    """Bytes of the numerators of g, S and R of ``res``."""
    return sum(sum(map(getsizeof, s.nums)) for s in (res.g, res.S, res.R))


def _stored(r: int) -> SolveResult | None:
    """The stored solve of r, now the most recently used, or None."""
    with _solves_lock:
        entry = _solves.pop(r, None)
        if entry is None:
            return None
        _solves[r] = entry
    return entry[0]


def _publish(res: SolveResult) -> None:
    """Store ``res``, a solve that has passed every check, unless the store
    holds a solve of its r at its order or above; then drop the least
    recently used entries, never ``res``, while the store is over
    ``STORE_BYTES``."""
    nbytes = _footprint(res)
    with _solves_lock:
        entry = _solves.get(res.r)
        if entry is not None and entry[0].N >= res.N:
            return
        _solves.pop(res.r, None)
        _solves[res.r] = res, nbytes
        total = sum(n for _, n in _solves.values())
        for r in list(_solves)[:-1]:
            if total <= STORE_BYTES:
                break
            total -= _solves.pop(r)[1]


def minimum_order(r: int) -> int:
    """Smallest series order solve_ode accepts for this r."""
    return 2 * (-n0_for(r)) + 2


def solve_ode(r: int, N: int = 40) -> SolveResult:
    """Run the whole construction; S, R and g are trusted through at least N.

    Budgets are chosen from the exact trust propagation: division by S
    (order -n0) costs 3*(-n0) orders on R, so g is carried to
    M = N + 3*(-n0) + 4 and E4 to M - n0.  X comes from a pass of the
    ODE's coefficient relation through p^-1, and g and S from one pass
    through M (``relation_series``), so a solve builds no matrix B, and
    forms g*E4, packed with S*E4 into one product, only to check the
    pass.  The Hauptmodul and the seed form
    are asked for only through 2*(-n0) + CROSS_RATIO_MIN_OVERLAP, whatever
    N is, for the short modular build from X.  Its coefficient at
    p^(-n0), where the relation leaves g free, goes into the full pass,
    so that pass carries the modular g and no multiple of S is added
    after it.  On every other exponent it knows, g must equal the short
    build, or ``MatchFailure`` names the first that differs.  That compare
    also names a wrong X, since g from p^0 on follows the relation and not
    the X read off the head pass, and so does the delta part below (delta
    starts at p^n0).  A changed g at p^(-n0) passes both (g + c*S gives
    the same S).

    A solve of r at or below the order of the stored solve of r is that
    solve cut to its windows.  Above it, the solve continues it: the pass
    resumes after the stored g and S, the division after R's coefficients,
    and each part of the certificate starts past the stored windows; the
    head pass, the short build and the compare do not run again (the
    compare's window lies in every stored g).  Only a solve that has passed
    every check below is stored (the module docstring has the store).

    R = -2g/S is the one division of a solution series; the short build
    inverts only t.  ``S.inverse(-2g)`` runs the quotient kernel of
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
          delta part checks its integer pass, one running dot product
          per step, against the convolution kernel ``series._convolve``
          of the pair product.
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
    ``ResidualNonzero`` naming it.  No part reads R past N_R, so the
    windows are checked too: g and S must end at M and R at N_R, or
    ``_ends_at`` names the series.

    Inheritance.  Each part's coefficient at p^j reads g, S, R and E4 only
    within a fixed offset of j: E reads S through p^j and E4 through
    p^(j - k); delta reads g and S through p^j and E4 through p^(j + k);
    R*S + 2g reads R through p^(j - k), S through p^(j + 2k) and g at p^j.
    g, S, R and E4 are the same numbers at every order, each coefficient
    fixed by the ones below it.  So a solve of r that passed with M0 for M
    leaves E and delta zero through M0 and R*S + 2g through M0 - 2k for
    every longer solve of r, which checks each part exactly on the rows
    past those, and w(0), and inherits the rest.
    """
    for name, value in (("r", r), ("N", N)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise TypeError(f"solve_ode: {name} must be an int, got {value!r}")
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
    size = -n0_for(r)
    where = f"for r={r} at order {N}"

    M = N + 3 * size + 4
    prev = _stored(r)
    if prev is not None and N <= prev.N:
        return _cut(prev, N)
    e4 = eisenstein(4, M + size, m)
    if prev is None:
        head, _ = relation_series(r, e4, -1)
        X = tuple(head.coeff(-i) for i in range(1, size + 1))
        short = build_g(X, group, size + CROSS_RATIO_MIN_OVERLAP)
        g, S = relation_series(r, e4, M, short.coeff(size))
        n = (g - short).order
        if n is not None:
            raise MatchFailure(
                f"g by the recurrence {where}: coefficient at p^{n} is "
                f"{format_rational(g.coeff(n))}, "
                f"the short modular build gives {format_rational(short.coeff(n))}"
            )
        done = -size - 1  # the last row of E and delta a prefix certified: none
    else:
        X, done = prev.X, prev.S.N
        g, S = relation_series(r, e4, M, start=(prev.g, prev.S))
    _ends_at(where, M, g=g, S=S)
    if S.order != size:
        raise ResidualNonzero(
            f"first solution has no term at p^{size} {where}: "
            f"S has order {S.order}, wanted {size}"
        )

    ode, delta = _ode_and_delta(r, g, S, e4, done + 1)
    R = S.inverse(g * -2, known=None if prev is None else prev.R)
    _ends_at(where, M - 3 * size, R=R)
    res = SolveResult(
        r=r,
        N=N,
        group=group,
        X=X,
        g=g,
        S=S,
        R=R,
        ode_residual=ode,
        delta_residual=delta,
        division_residual=_division_part(R, S, g, done - 2 * size + 1),
        wronskian=4 * r * S.coeff(size) * g.coeff(-size),
    )
    failure = res.certificate_failure()
    if failure is not None:
        raise ResidualNonzero(failure)
    _publish(res)
    return res


_with_store(solve_ode, _solves, _solves_lock)


def _ends_at(where: str, N: int, **series: LaurentSeries) -> None:
    """Refuse a series of a solve whose window ends anywhere but at p^N."""
    for name, x in series.items():
        if x.N != N:
            raise ResidualNonzero(
                f"{name} has window p^{x.n_min}..p^{x.N} {where}, wanted p^{x.n_min}..p^{N}"
            )


def _cut(res: SolveResult, N: int) -> SolveResult:
    """The passed solve ``res`` on the windows of a solve of ``res.r`` at
    order N <= res.N: every coefficient is the same at every order, so
    each series is its truncation."""
    size = -res.n0
    M = N + 3 * size + 4
    return res._replace(
        N=N,
        g=res.g.truncate(M),
        S=res.S.truncate(M),
        R=res.R.truncate(M - 3 * size),
        ode_residual=res.ode_residual.truncate(M),
        delta_residual=res.delta_residual.truncate(M),
        division_residual=res.division_residual.truncate(M - 2 * size),
    )


def _rows(x: LaurentSeries, lo: int) -> LaurentSeries:
    """The coefficients of x from p^lo on (x itself if it starts there or later)."""
    if lo <= x.n_min:
        return x
    return LaurentSeries.from_numerators(x.m, lo, x.nums[lo - x.n_min :], x.den)


def _ode_and_delta(
    r: int, g: LaurentSeries, S: LaurentSeries, e4: LaurentSeries, lo: int
) -> tuple[LaurentSeries, LaurentSeries]:
    """The ODE and delta parts of the certificate (``solve_ode``) from
    p^lo on, each its own series, with g*E4 and S*E4 from one packed
    product (``series._mul_pair``) formed only on those rows.  A solve
    forms them before R, so that the two products are freed before the
    division: held through it, they raised the peak RSS of a process that
    solves (47, 96), (64, 66) and (96, 98) in turn by 0.13 MiB.
    """
    a = 2 // g.m
    gE4, SE4 = _mul_pair(g, S, e4, lo)
    g, S = _rows(g, lo), _rows(S, lo)
    return (
        S.theta().theta() * (a * a) - SE4 * (r * r),
        S.theta() * a - g.theta().theta() * (a * a) + gE4 * (r * r),
    )


def _division_part(
    R: LaurentSeries, S: LaurentSeries, g: LaurentSeries, lo: int
) -> LaurentSeries:
    """The division part R*S + 2g of the certificate from p^lo on, on the
    window of ``R * S + g * 2``.  With Rn, Sn and gn the numerators of R,
    S and g over D_R, D_S and D_g, row j is the integer
    (Rn*Sn)_j*D_g + 2*gn_j*D_R*D_S over D_R*D_S*D_g, less one gcd of the
    scalar factors (``series._product`` takes the contents of R and S out
    first), so a zero part is zero rows, and no gcd runs over the
    numerators of R*S: over D_R*D_S they carry R's padding, which
    ``__mul__`` found and divided out again (about 1 + 1 ms at (96, 98)).
    """
    start = R.n_min + S.n_min
    lo = max(lo, start)
    conv, c = _product(R, S, lo - start)
    top = lo + len(conv) - 1
    k, t = c.numerator * g.den, 2 * c.denominator
    h = gcd(k, t)
    rows = list(map(add, _scaled(conv, k // h), g._numerators(lo, top, t // h)))
    f = Fraction(h, c.denominator * g.den)
    return LaurentSeries.from_numerators(R.m, lo, _scaled(rows, f.numerator), f.denominator)


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


def _theta_of(form: LaurentSeries, weight) -> LaurentSeries:
    """theta(form), refused when it is zero on its known window."""
    tf = form.theta()
    if tf.is_zero():
        raise ZeroDerivative(
            f"the weight {weight} form has zero derivative on its known window, "
            f"through order {form.N}"
        )
    return tf


def _difference(name: str, a: LaurentSeries, b: LaurentSeries) -> LaurentSeries:
    """a - b, refused when it is zero on its known window: then two of
    the four points of a cross-ratio coincide."""
    d = a - b
    if d.is_zero():
        raise DegenerateEntries(f"difference {name} vanishes through order {d.N}")
    return d


def _cross_ratio_parts(forms) -> tuple[Fraction, LaurentSeries, Fraction, LaurentSeries]:
    """(c2, d43, c3, d42) for three (name, form, weight) triples
    (f2, f3, f4), with the cross-ratio [tau, h_f2, h_f3, h_f4] equal to
    num/den, num = c2*f2*d43 and den = c3*f3*d42.

    h_f = tau + k*f/f' is the equivariant map built from a weight-k form;
    on lattice m, f' = (2/m)*u*theta(f), so h_f - tau = u^(-1)*o with
    o = c*f/theta(f), c = k*m/2.  With tau's offset 0 the cross-ratio is
    (o2*(o4 - o3)) / (o3*(o4 - o2)): the u-powers cancel, and so do the
    factors theta(f_i) of the offsets' denominators, leaving

        d43 = c4*f4*theta(f3) - c3*f3*theta(f4),
        d42 = c4*f4*theta(f2) - c2*f2*theta(f4),

    which are z4-z3 and z4-z2 times theta(f_i)*theta(f4).  A zero
    theta(f) and a vanishing d43 or d42 are refused by name.
    """
    (n2, f2, t2, c2), (n3, f3, t3, c3), (n4, f4, t4, c4) = (
        (name, form, _theta_of(form, weight), Fraction(weight * form.m, 2))
        for name, form, weight in forms
    )
    d43 = _difference(f"z4-z3 times theta({n3})*theta({n4})", f4 * t3 * c4, f3 * t4 * c3)
    d42 = _difference(f"z4-z2 times theta({n2})*theta({n4})", f4 * t2 * c4, f2 * t4 * c2)
    return c2, d43, c3, d42


def j_cross_ratio_matches(
    e4: LaurentSeries, dl: LaurentSeries, e6: LaurentSeries, overlap: int
) -> bool:
    """Whether [tau, h_E4, h_Delta, h_E6] == E4^3/(1728*Delta) = j/1728
    on at least ``overlap`` coefficients (``matches`` refuses a shorter
    common window), for E4, Delta and E6 known through one order.

    The cross-ratio is num/den of ``_cross_ratio_parts``, so the identity
    is 1728*Delta*num == E4^3*den, with j/1728 read off the same E4 and
    Delta.  As E4*Delta is a factor of both sides, the check compares
    1728*c2*d43 with c3*E4^2*d42: six products of series with integer
    numerators, and no division.  Both sides start at p^1 where num/den
    starts at p^-1 (E4*Delta*den starts at p^3), so they agree through
    p^K exactly when the cross-ratio agrees with j/1728 through
    p^(K - 2), and for the catalog forms the common window has the
    length of the cross-ratio's quotient compared with
    ``j1728(N)/1728``.
    """
    c2, d43, c3, d42 = _cross_ratio_parts(
        (("E4", e4, 4), ("Delta", dl, 12), ("E6", e6, 6))
    )
    return (d43 * (1728 * c2)).matches(e4 * e4 * d42 * c3, min_overlap=overlap)


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
    The cross-ratio is num/den of ``_cross_ratio_parts``: one division.

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
    f2, f3, f4 = (theta_fourth(j, N) for j in (2, 3, 4))
    c2, d43, c3, d42 = _cross_ratio_parts(
        (("theta2^4", f2, 2), ("theta3^4", f3, 2), ("theta4^4", f4, 2))
    )
    cross = (f2 * d43 * c2) / (f3 * d42 * c3)
    mu = f2 / f3
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
