"""Reference closed forms for small r, typed from the paper as literals.

A literal is a tuple of terms.  A term is a string, a rational multiple
of E2^a E4^b E6^c Delta^(d/2) such as ``"-1/3 E2 E4 Delta^-1/2"``, or a
pair of literals, a numerator and its divisor.  ``expand(literal, N, m)``
gives its q-expansion on lattice m exactly through p^N from the catalog
generators, so every comparison is computed-vs-computed, and it alone
sizes the expansions.  A string of order w = m*d/2 takes its Eisenstein
series through N - w and its k-th power of Delta^(1/m) (order 1 in p)
through N - k + 1, or N + k - 1 for a (-k)-th power.  A pair whose divisor
has order v takes its numerator through N + v and, with u the numerator's
order, its divisor through N - u + 2v, the window of
``LaurentSeries.inverse``.  v and u are read off expansions, not off the
terms, since terms cancel: E2 - E6/E4 starts at q, but
E2 - E6/E4 - 720*Delta/(E4*E6) at q^2.

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
from typing import Callable, NamedTuple

from .modforms import eisenstein, eta_power
from .series import LaurentSeries

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


def expand(literal: tuple, N: int, m: int) -> LaurentSeries:
    """The q-expansion of ``literal`` on lattice m, exactly through p^N.

    The windows are those of the module docstring.  A divisor's order is
    read off its expansion through p^6, or p^14, p^30, ... until one shows
    a coefficient: one small probe for every divisor in the tables.  A
    term that starts above p^N is left out.
    """
    total = 0  # a sum of scalars until the first series term
    for term in literal:
        if not isinstance(term, str):
            numerator, divisor = term
            probe = expand(divisor, 6, m)
            while probe.order is None:
                probe = expand(divisor, 2 * probe.N + 2, m)
            v = probe.order
            num = expand(numerator, N + v, m)
            if num.order is not None and num.order - v <= N:
                total = total + expand(divisor, N - num.order + 2 * v, m).inverse(num)
            continue
        coefficient, *factors = term.split()
        powers = dict(factor.partition("^")[::2] for factor in factors)
        d, _, two = powers.pop("Delta", "0").partition("/")
        w, half = divmod(int(d or 1) * m, int(two or 1))
        if half:
            raise ValueError(f"{term!r} has a half-integral power of Delta on lattice 1")
        if N < w:
            continue
        forms = [(int(p or 1), eisenstein(int(E[1]), N - w, m)) for E, p in powers.items()]
        ups = [form**p for p, form in forms if p > 0]
        if w:
            sign = 1 if w > 0 else -1
            ups.append(eta_power(sign * 24 // m, N - w + sign) ** abs(w))
        value = reduce(mul, ups, Fraction(coefficient) if "/" in coefficient else int(coefficient))
        downs = [form**-p for p, form in forms if p < 0]
        total = total + (reduce(mul, downs).inverse(value) if downs else value)
    return total if isinstance(total, LaurentSeries) else LaurentSeries.zero(m, N) + total


def g3(N: int, coefficient: int = G3_COEFFICIENT) -> LaurentSeries:
    """E4^4 / Delta^(3/2) - coefficient * E4 / Delta^(1/2), lattice 2."""
    return expand(("1 E4^4 Delta^-3/2", f"{-coefficient} E4 Delta^-1/2"), N, 2)


class Claim(NamedTuple):
    """One closed-form claim, printed by ``examples`` as a PASS/FAIL line.

    ``output`` names the solve output the claim reads: ``"X"``, ``"g"``,
    ``"S"``, ``"R"``, or ``"antider"`` for theta_antider(g * E4).  For
    ``"X"``, ``reference`` is the expected eigenvector; otherwise it
    expands a literal at the output's order N on the output's lattice.
    ``holds`` is False for a quoted variant that must *not* match.
    ``note``, if set, is printed after the row as a NOTE line.
    """

    r: int
    label: str
    output: str
    reference: tuple | Callable[[int], LaurentSeries]
    holds: bool = True
    note: str = ""

    def check(self, result, overlap: int) -> bool:
        """True when the claim comes out as stated for a solve result: its
        reference matches the output (a series on at least ``overlap``
        coefficients), or, for a variant with ``holds`` False, does not."""
        if self.output == "X":
            return (list(result.X) == list(self.reference)) == self.holds
        if self.output == "antider":
            out = (result.g * eisenstein(4, result.g.N + 1, 2)).theta_antider()
        else:
            out = getattr(result, self.output)
        return out.matches(self.reference(out.N), min_overlap=overlap) == self.holds


# The references are lambdas over this module's globals, so that a caller
# that rebinds ``expand`` or ``g3`` (a tracer, say) sees every call.
CLAIMS = (
    Claim(1, "g1 == E4/Delta^(1/2)", "g", lambda N: expand(G1, N, 2)),
    Claim(1, "F1 == -E4'/(2*Delta^(1/2))", "S", lambda N: expand(S1, N, 2)),
    Claim(1, "theta_antider(g1*E4) == -E6/Delta^(1/2)", "antider",
          lambda N: expand(ANTIDER_IDENTITY_1, N, 2)),
    Claim(1, "h1 == tau + 4*E4/E4'", "R", lambda N: expand(R_FROM_H_DENOMINATOR[1], N, 2)),
    Claim(2, "g2 == E4*E6/Delta", "g", lambda N: expand(G2, N, 1)),
    Claim(2, "F1 == (6E4^3-2E2E4E6-4E6^2)/(6*Delta) - 1488", "S", lambda N: expand(S2, N, 1)),
    Claim(2, "h2 == tau + (6/u)/(E2 - E6/E4 - 720*Delta/(E4*E6))", "R",
          lambda N: expand(R_FROM_H_DENOMINATOR[2], N, 1)),
    Claim(3, "X == (-270, 0, 1)", "X", (-270, 0, 1)),
    Claim(3, f"g3 == E4^4/Delta^(3/2) - {G3_COEFFICIENT}*E4/Delta^(1/2)", "g", lambda N: g3(N)),
    Claim(3, f"g3 coefficient {G3_MISPRINT} variant rejected", "g",
          lambda N: g3(N, G3_MISPRINT), holds=False,
          note=f"the {G3_MISPRINT} variant has principal part p^-3 - 230*p^-1, "
               f"but the eigenvector requires -270; {G3_COEFFICIENT} is the "
               "consistent coefficient."),
    Claim(3, "F1 == (9E6^3-E2E4^4-8E4^3E6+15006E6D+1266E2E4D)/(3*Delta^(3/2))", "S",
          lambda N: expand(F1_BODY_3, N, 2)),
    Claim(3, "h3 == tau + (6/u)/(E2 - ... + 95800320*Delta^2/(77E4^4E6+211E4E6^3))",
          "R", lambda N: expand(R_FROM_H_DENOMINATOR[3], N, 2)),
    Claim(4, "X == (-320, 1)", "X", (-320, 1)),
    Claim(4, f"g4 == E4^4*E6/Delta^2 - {G4_COEFFICIENT}*E4*E6/Delta", "g",
          lambda N: expand(G4, N, 1)),
    Claim(4, "F1 == -(219E4^6-641E4^3E6^2+113E2E4^4E6+103E2E4E6^3+206E6^4)"
             f"/(648*Delta^2) + {F1_4_CONSTANT}", "S", lambda N: expand(F1_BODY_4, N, 1),
          note="the reference f1 for r=4 needs denominator Delta^2 (weight "
               "bookkeeping) and carries integration constant "
               f"-{F1_4_CONSTANT}; the corrected form above is the "
               "zero-constant solution."),
    Claim(4, "h4 == tau + (6/u)/(E2 - ... - 9146248151040*Delta^3/(...))", "R",
          lambda N: expand(R_FROM_H_DENOMINATOR[4], N, 1)),
)
