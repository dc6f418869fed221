"""Reference closed forms for small r, typed from the paper as literals,
and decided exactly in the ring of quasi-modular forms.

A literal is a tuple of terms.  A term is a string, a rational multiple
of E2^a E4^b E6^c Delta^(d/2) such as ``"-1/3 E2 E4 Delta^-1/2"``, or a
pair of literals, a numerator and its divisor, by ``ring``'s grammar.

``examples`` decides each claim in ``ring``, Q[E2, E4, E6, Delta^(+-1/2)]
(``verdicts``).  The paper's abstract says the solutions are
quasi-modular, and the solve makes that concrete: with t the Hauptmodul
and t0 the seed (``HAUPTMODUL``, ``SEED``), g = P(t)*t0 for a polynomial
P, which ``solver.solve_ode`` checks against its short modular build and
``solver.relation_series`` proves to all orders, and
Sigma = S + E2*g/3 is weakly holomorphic of weight 0 on a group of genus
0 with one cusp, so Sigma = Psi(t) for a polynomial Psi of degree at
most size.  ``pairings`` reads the coefficients of P and Psi off the
solve by residue pairings, one constant term each, and ``ring_solution``
builds g and Sigma as ring elements.  Each row is then one identity in
the ring, decided by comparing cross products (a literal is a quotient
n/d, see ``ring.parse``), exactly and to all orders, with no expansion
and no overlap window:
    g:        n == g*d;
    S = F1/u: n == (Sigma - E2*g/3)*d;
    R:        R = -2g/S = 6g/(E2*g - 3*Sigma), so the paper's
              h-denominators are E2 - 3*Psi(t)/(P(t)*t0), and the row is
              n*(E2*g - 3*Sigma) == 6*g*d;
    antider:  theta_antider(g*E4) == n/d.  On lattice 2, theta = 2D, so
              2*D(n/d) == g*E4, that is 2*(D(n)*d - n*D(d)) == g*E4*d^2,
              fixes n/d up to a constant.  The constant term is fixed by
              parity: P is even and t and t0 carry odd powers of
              Delta^(1/2), so g*E4 carries only odd powers of p, and so
              does theta_antider(g*E4), whose constant term is 0.  With
              sigma the map Delta^(1/2) -> -Delta^(1/2) (p -> -p), n/d is
              that series exactly when it is also odd, n*sigma(d) +
              sigma(n)*d == 0; if 2D(n/d) == g*E4, then n/d + sigma(n/d)
              has D = 0 and is twice its constant term.  Lattice 1 has no
              such parity, and no row needs it.
The literals are typed from the paper and the ring elements come from
the solve; no builder is shared.

``expand(literal, N, m)`` is the series reference: it gives the
literal's q-expansion on lattice m exactly through p^N from the catalog
generators, and the tests compare it with the solve's output on its
window, beside the ring's verdict.  It alone sizes the expansions.  A
string of order w = m*d/2 takes its Eisenstein series through N - w and
its k-th power of Delta^(1/m) (order 1 in p) through N - k + 1, or
N + k - 1 for a (-k)-th power.  A pair whose divisor has order v takes
its numerator through N + v and, with u the numerator's order, its
divisor through N - u + 2v, the window of ``LaurentSeries.inverse``.  v
and u are read off expansions, not off the terms, since terms cancel:
E2 - E6/E4 starts at q, but E2 - E6/E4 - 720*Delta/(E4*E6) at q^2.
The ring reads each term (``ring.read_term``) and decides whether a
divisor is zero, so v is probed only where it exists.

Known misprint: the g_3 combination is sometimes quoted with coefficient
1226 instead of 1266.  The 1226 variant has principal part
p^-3 - 230 p^-1, which contradicts the eigenvector requirement -270, so
1266 is the correct coefficient; the f_1 closed form for r = 3 is only
consistent with 1266 as well.  So ``g3`` stays a function of the
coefficient, and the mismatch is demonstrated rather than patched
silently; the benchmark's tracer also times ``g3`` by name.

``CLAIMS`` is the one table of these claims: the ``examples`` command
prints its rows, and the acceptance and golden tests check them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul
from typing import NamedTuple

from .modforms import Group, eisenstein, eta_power, hauptmodul, seed_t0
from .ring import E2, E4, Element, parse, polynomial, read_term
from .series import LaurentSeries, ZeroLeadingCoefficient
from .solver import residue_pairings

G3_COEFFICIENT = 1266
G3_MISPRINT = 1226
G4_COEFFICIENT = 824
F1_4_CONSTANT = 1115232

G1 = ("1 E4 Delta^-1/2",)
G2 = ("1 E4 E6 Delta^-1",)
G4 = ("1 E4^4 E6 Delta^-2", f"-{G4_COEFFICIENT} E4 E6 Delta^-1")
# F1/u for r = 1: -E4'/(2*Delta^(1/2)), as E4' = 2u*(E2*E4 - E6)/3.
S1 = ((("-1 E2 E4", "1 E6"), ("3 Delta^1/2",)),)
ANTIDER_IDENTITY_1 = ("-1 E6 Delta^-1/2",)  # theta_antider(g1 * E4), exactly
S2 = ((("6 E4^3", "-2 E2 E4 E6", "-4 E6^2"), ("6 Delta",)), "-1488")
F1_BODY_3 = ((
    ("9 E6^3", "-1 E2 E4^4", "-8 E4^3 E6", "15006 E6 Delta", "1266 E2 E4 Delta"),
    ("3 Delta^3/2",),
),)
F1_BODY_4 = ((
    ("219 E4^6", "-641 E4^3 E6^2", "113 E2 E4^4 E6", "103 E2 E4 E6^3", "206 E6^4"),
    ("-648 Delta^2",),
), f"{F1_4_CONSTANT}")
# h_r = tau + (6/u)/H_r, with H_r this table cut at depth r; at r = 1,
# 6/(E2 - E6/E4) = 2*E4/theta(E4), the body of h_1 = tau + 4*E4/E4'.
H_DENOMINATOR = (
    "1 E2",
    "-1 E6 E4^-1",
    "-720 Delta E4^-1 E6^-1",
    (("95800320 Delta^2",), ("77 E4^4 E6", "211 E4 E6^3")),
    (("-9146248151040 Delta^3 E4^-1 E6^-1",), ("8701 E4^6", "31774 E4^3 E6^2", "21733 E6^4")),
)
R_FROM_H_DENOMINATOR = {r: ((("6",), H_DENOMINATOR[: r + 1]),) for r in range(1, 5)}
# The Hauptmodul t and the seed t0 = -theta(t)/E4 of ``modforms`` on each
# lattice: j - 744 and E4*E6/Delta, or E6/Delta^(1/2) and E4/Delta^(1/2).
HAUPTMODUL = {1: ("1 E4^3 Delta^-1", "-744"), 2: ("1 E6 Delta^-1/2",)}
SEED = {1: ("1 E4 E6 Delta^-1",), 2: ("1 E4 Delta^-1/2",)}


def expand(literal: tuple, N: int, m: int) -> LaurentSeries:
    """The q-expansion of ``literal`` on lattice m, exactly through p^N,
    on the windows of the module docstring.  A zero divisor is refused
    with ZeroLeadingCoefficient; a term that starts above p^N is left out.
    """
    total = 0  # a sum of scalars until the first series term
    for term in literal:
        if not isinstance(term, str):
            numerator, divisor = term
            probe = expand(divisor, 6, m)
            if probe.order is None and not parse(divisor)[0]:
                raise ZeroLeadingCoefficient(f"divisor {divisor!r} is the zero element")
            while probe.order is None:
                probe = expand(divisor, 2 * probe.N + 2, m)
            v = probe.order
            num = expand(numerator, N + v, m)
            if num.order is not None and num.order - v <= N:
                total = total + expand(divisor, N - num.order + 2 * v, m).inverse(num)
            continue
        coefficient, (*ks, c) = read_term(term)
        w, half = divmod(c * m, 2)
        if half:
            raise ValueError(f"{term!r} has a half-integral power of Delta on lattice 1")
        if N < w:
            continue
        forms = [(k, eisenstein(weight, N - w, m)) for weight, k in zip((2, 4, 6), ks) if k]
        ups = [form**k for k, form in forms if k > 0]
        if w:
            sign = 1 if w > 0 else -1
            ups.append(eta_power(sign * 24 // m, N - w + sign) ** abs(w))
        value = reduce(mul, ups, coefficient)
        downs = [form**-k for k, form in forms if k < 0]
        total = total + (reduce(mul, downs).inverse(value) if downs else value)
    return total if isinstance(total, LaurentSeries) else LaurentSeries.zero(m, N) + total


def _g3_terms(coefficient: int) -> tuple:
    return ("1 E4^4 Delta^-3/2", f"{-coefficient} E4 Delta^-1/2")


def g3(N: int, coefficient: int = G3_COEFFICIENT) -> LaurentSeries:
    """E4^4 / Delta^(3/2) - coefficient * E4 / Delta^(1/2), lattice 2."""
    return expand(_g3_terms(coefficient), N, 2)


class Solution(NamedTuple):
    """A solve as ring elements: its eigenvector X, g = P(t)*t0 and
    Sigma = S + E2*g/3 = Psi(t), with t and t0 those of ``HAUPTMODUL``
    and ``SEED`` on the lattice of r."""

    r: int
    X: tuple
    g: Element
    sigma: Element


def ring_solution(r: int, X: tuple, P, Psi) -> Solution:
    """The ``Solution`` with coefficients P and Psi of the polynomials in t."""
    m = Group.for_r(r).lattice
    t, t0 = parse(HAUPTMODUL[m])[0], parse(SEED[m])[0]
    return Solution(r, X, polynomial(P, t) * t0, polynomial(Psi, t))


def pairings(result) -> tuple[list[Fraction], list[Fraction]]:
    """The coefficients of P and Psi, read off a solve by residue
    pairings (``solver.residue_pairings``): c_j = CT(g*E4*t^-(j+1)) and
    psi_j = CT(Sigma*t0*E4*t^-(j+1)) for j = 0..size (one fewer for P),
    since E4*t0 = -theta(t) (see ``solver.build_g``).  Both products are
    read only through p^-1, so Sigma only through p^0, where it is
    E2*g/3: S = O(p^size) does not reach it."""
    m, size, group = result.m, -result.n0, result.group
    t = hauptmodul(group, size + 1)
    e4 = eisenstein(4, size + 1, m)
    g = result.g.truncate(0)
    P = residue_pairings(g.truncate(-1) * e4, t, size)
    sigma = g * eisenstein(2, size, m) / 3
    Psi = residue_pairings(sigma * seed_t0(group, size) * e4, t, size + 1)
    return P, Psi


class Claim(NamedTuple):
    """One closed-form claim, printed by ``examples`` as a PASS/FAIL line.

    ``output`` names the solve output the claim reads: ``"X"``, ``"g"``,
    ``"S"``, ``"R"``, or ``"antider"`` for theta_antider(g * E4).  For
    ``"X"``, ``reference`` is the expected eigenvector; otherwise it is a
    literal for the output, on the lattice of r (``expand(reference, N,
    m)`` is its q-expansion).  ``holds`` is False for a quoted variant
    that must *not* match.  ``note``, if set, is printed after the row as
    a NOTE line.
    """

    r: int
    label: str
    output: str
    reference: tuple
    holds: bool = True
    note: str = ""

    def check(self, sol: Solution) -> bool:
        """True when the claim comes out as stated for ``sol``, decided
        exactly in the ring (see the module docstring)."""
        if self.output == "X":
            return (list(sol.X) == list(self.reference)) == self.holds
        n, d = parse(self.reference)
        g = sol.g
        if self.output == "g":
            same = n == g * d
        elif self.output == "S":
            same = n == (sol.sigma - E2 * g * Fraction(1, 3)) * d
        elif self.output == "R":
            same = n * (E2 * g - sol.sigma * 3) == g * d * 6
        elif self.output == "antider" and Group.for_r(self.r) is Group.SQUARES:
            # theta = 2D on lattice 2, and the odd part fixes the constant.
            same = (n.derivative() * d - n * d.derivative()) * 2 == g * E4 * d * d and not (
                n * d.conjugate() + n.conjugate() * d
            )
        else:
            raise ValueError(f"no ring decision for output {self.output!r} at r={self.r}")
        return same == self.holds


def verdicts(result) -> list[tuple[Claim, bool]]:
    """Each ``CLAIMS`` row for the r of a solve, with whether it comes out
    as stated, decided in the ring from P and Psi read off the solve."""
    sol = ring_solution(result.r, result.X, *pairings(result))
    return [(claim, claim.check(sol)) for claim in CLAIMS if claim.r == result.r]


CLAIMS = (
    Claim(1, "g1 == E4/Delta^(1/2)", "g", G1),
    Claim(1, "F1 == -E4'/(2*Delta^(1/2))", "S", S1),
    Claim(1, "theta_antider(g1*E4) == -E6/Delta^(1/2)", "antider", ANTIDER_IDENTITY_1),
    Claim(1, "h1 == tau + 4*E4/E4'", "R", R_FROM_H_DENOMINATOR[1]),
    Claim(2, "g2 == E4*E6/Delta", "g", G2),
    Claim(2, "F1 == (6E4^3-2E2E4E6-4E6^2)/(6*Delta) - 1488", "S", S2),
    Claim(2, "h2 == tau + (6/u)/(E2 - E6/E4 - 720*Delta/(E4*E6))", "R",
          R_FROM_H_DENOMINATOR[2]),
    Claim(3, "X == (-270, 0, 1)", "X", (-270, 0, 1)),
    Claim(3, f"g3 == E4^4/Delta^(3/2) - {G3_COEFFICIENT}*E4/Delta^(1/2)", "g",
          _g3_terms(G3_COEFFICIENT)),
    Claim(3, f"g3 coefficient {G3_MISPRINT} variant rejected", "g",
          _g3_terms(G3_MISPRINT), holds=False,
          note=f"the {G3_MISPRINT} variant has principal part p^-3 - 230*p^-1, "
               f"but the eigenvector requires -270; {G3_COEFFICIENT} is the "
               "consistent coefficient."),
    Claim(3, "F1 == (9E6^3-E2E4^4-8E4^3E6+15006E6D+1266E2E4D)/(3*Delta^(3/2))", "S",
          F1_BODY_3),
    Claim(3, "h3 == tau + (6/u)/(E2 - ... + 95800320*Delta^2/(77E4^4E6+211E4E6^3))",
          "R", R_FROM_H_DENOMINATOR[3]),
    Claim(4, "X == (-320, 1)", "X", (-320, 1)),
    Claim(4, f"g4 == E4^4*E6/Delta^2 - {G4_COEFFICIENT}*E4*E6/Delta", "g", G4),
    Claim(4, "F1 == -(219E4^6-641E4^3E6^2+113E2E4^4E6+103E2E4E6^3+206E6^4)"
             f"/(648*Delta^2) + {F1_4_CONSTANT}", "S", F1_BODY_4,
          note="the reference f1 for r=4 needs denominator Delta^2 (weight "
               "bookkeeping) and carries integration constant "
               f"-{F1_4_CONSTANT}; the corrected form above is the "
               "zero-constant solution."),
    Claim(4, "h4 == tau + (6/u)/(E2 - ... - 9146248151040*Delta^3/(...))", "R",
          R_FROM_H_DENOMINATOR[4]),
)
