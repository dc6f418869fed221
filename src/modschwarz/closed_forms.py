"""Reference closed forms for small r, expressed in catalog generators.

These are the right-hand sides the golden tests and the ``examples``
command compare pipeline output against.  They are computed from the
generators (never typed in as coefficient lists), so every comparison is
computed-vs-computed.

Known misprint: the g_3 combination is sometimes quoted with coefficient
1226 instead of 1266.  The 1226 variant has principal part
p^-3 - 230 p^-1, which contradicts the eigenvector requirement -270, so
1266 is the correct coefficient; the f_1 closed form for r = 3 is only
consistent with 1266 as well.  ``g3`` takes the coefficient as a
parameter so the mismatch can be demonstrated rather than patched
silently.

``CLAIMS`` is the one table of these claims: the ``examples`` command
prints its rows, and the acceptance and golden tests check them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .modforms import delta, eisenstein, eta_power
from .series import LaurentSeries

G3_COEFFICIENT = 1266
G3_MISPRINT = 1226
G4_COEFFICIENT = 824


def g1(N: int) -> LaurentSeries:
    """E4 / Delta^(1/2) on lattice 2."""
    return eisenstein(4, N + 1, 2) * eta_power(-12, N)


def g2(N: int) -> LaurentSeries:
    """E4*E6 / Delta on lattice 1."""
    return eisenstein(4, N + 1) * eisenstein(6, N + 1) * eta_power(-24, N)


def g3(N: int, coefficient: int = G3_COEFFICIENT) -> LaurentSeries:
    """E4^4 / Delta^(3/2) - coefficient * E4 / Delta^(1/2), lattice 2."""
    pad = N + 8
    e4 = eisenstein(4, pad, 2)
    lead = e4**4 * eta_power(-12, pad - 2) ** 3
    return (lead - g1(pad) * coefficient).truncate(N)


def g4(N: int) -> LaurentSeries:
    """E4^4*E6 / Delta^2 - G4_COEFFICIENT * E4*E6 / Delta, lattice 1."""
    pad = N + 8
    e4 = eisenstein(4, pad)
    e6 = eisenstein(6, pad)
    lead = e4**4 * e6 * eta_power(-24, pad - 2) ** 2
    return (lead - g2(pad) * G4_COEFFICIENT).truncate(N)


def s1(N: int) -> LaurentSeries:
    """F1/u for r=1 from the closed form -E4'/(2*Delta^(1/2)).

    With E4' = 2u * theta(E4) this is -theta(E4)/Delta^(1/2), the
    theta image taken on lattice 1 and aligned to lattice 2.
    """
    te4 = eisenstein(4, N // 2 + 2).theta().align(2)
    return (-te4 * eta_power(-12, N + 2)).truncate(N)


def antider_identity_1(N: int) -> LaurentSeries:
    """-E6/Delta^(1/2): the exact value of theta_antider(g1 * E4)."""
    return (-eisenstein(6, N + 2, 2) * eta_power(-12, N + 2)).truncate(N)


def r1(N: int) -> LaurentSeries:
    """R for r=1 from h_1 = tau + 4*E4/E4': body 2*E4/theta(E4), aligned."""
    e4 = eisenstein(4, N // 2 + 3)
    return (e4 / e4.theta() * 2).align(2).truncate(N)


def _h_denominator_tail(N: int, depth: int) -> LaurentSeries:
    """E2 - E6/E4 - 720*Delta/(E4*E6) [+ deeper correction terms].

    depth 2 stops there (r=2); depth 3 adds the Delta^2 term (r=3);
    depth 4 also subtracts the Delta^3 term (r=4).
    """
    pad = N + 2 * depth
    e2 = eisenstein(2, pad)
    e4 = eisenstein(4, pad)
    e6 = eisenstein(6, pad)
    dl = delta(pad)
    out = e2 - e6 / e4 - dl / (e4 * e6) * 720
    if depth >= 3:
        den = e4**4 * e6 * 77 + e4 * e6**3 * 211
        out = out + dl**2 / den * 95800320
    if depth >= 4:
        den = e4 * e6 * (e4**6 * 8701 + e4**3 * e6**2 * 31774 + e6**4 * 21733)
        out = out - dl**3 / den * 9146248151040
    return out


def r_from_h_denominator(r: int, N: int) -> LaurentSeries:
    """R = 6 / (E2 + correction terms) for r in 2..4, on the group lattice."""
    if r not in (2, 3, 4):
        raise ValueError("closed h-denominator forms exist for r = 2, 3, 4")
    if r % 2:
        return _h_denominator_tail(N // 2, depth=r).inverse(6).align(2).truncate(N)
    return _h_denominator_tail(N, depth=r).inverse(6).truncate(N)


def s2(N: int) -> LaurentSeries:
    """F1/u for r=2: (6E4^3 - 2E2E4E6 - 4E6^2)/(6*Delta) - 1488."""
    pad = N + 6
    e2 = eisenstein(2, pad)
    e4 = eisenstein(4, pad)
    e6 = eisenstein(6, pad)
    num = e4**3 * 6 - e2 * e4 * e6 * 2 - e6**2 * 4
    return (num * eta_power(-24, pad - 2) * Fraction(1, 6) - 1488).truncate(N)


def f1_body_3(N: int) -> LaurentSeries:
    """F1/u for r=3:
    (9E6^3 - E2E4^4 - 8E4^3E6 + 15006*E6*Delta + 1266*E2E4*Delta) / (3 Delta^(3/2))."""
    pad = N // 2 + 2
    e2 = eisenstein(2, pad)
    e4 = eisenstein(4, pad)
    e6 = eisenstein(6, pad)
    dl = delta(pad)
    num = (
        e6**3 * 9
        - e2 * e4**4
        - e4**3 * e6 * 8
        + e6 * dl * 15006
        + e2 * e4 * dl * 1266
    )
    body = num.align(2) * eta_power(-12, N + 2) ** 3 * Fraction(1, 3)
    return body.truncate(N)


F1_4_CONSTANT = 1115232


def f1_body_4(N: int) -> LaurentSeries:
    """F1/u for r=4 in the weight-24 basis:
    -(219E4^6 - 641E4^3E6^2 + 113E2E4^4E6 + 103E2E4E6^3 + 206E6^4)/(648 Delta^2)
    plus the constant 1115232.

    The combination is sometimes quoted with denominator Delta (weight
    bookkeeping forces Delta^2) and without the constant; as printed it is
    the basepoint-dependent f_1, which misses the zero-constant solution by
    exactly F1_4_CONSTANT: that variant is ``f1_body_4(N) - F1_4_CONSTANT``.
    """
    pad = N + 8
    e2 = eisenstein(2, pad)
    e4 = eisenstein(4, pad)
    e6 = eisenstein(6, pad)
    num = (
        e4**6 * 219
        - e4**3 * e6**2 * 641
        + e2 * e4**4 * e6 * 113
        + e2 * e4 * e6**3 * 103
        + e6**4 * 206
    )
    body = num * eta_power(-24, pad - 2) ** 2 * Fraction(-1, 648)
    return (body + F1_4_CONSTANT).truncate(N)


class Claim(NamedTuple):
    """One closed-form claim, printed by ``examples`` as a PASS/FAIL line.

    ``output`` names the solve output the claim reads: ``"X"``, ``"g"``,
    ``"S"``, ``"R"``, or ``"antider"`` for theta_antider(g * E4).  For
    ``"X"``, ``reference`` is the expected eigenvector; otherwise it builds
    the closed form at the output's order N.  ``holds`` is False for a
    quoted variant that must *not* match.  ``note``, if set, is printed
    after the row as a NOTE line.
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
# that rebinds the builders (a tracer, say) sees every call.
CLAIMS = (
    Claim(1, "g1 == E4/Delta^(1/2)", "g", lambda N: g1(N)),
    Claim(1, "F1 == -E4'/(2*Delta^(1/2))", "S", lambda N: s1(N)),
    Claim(1, "theta_antider(g1*E4) == -E6/Delta^(1/2)", "antider",
          lambda N: antider_identity_1(N)),
    Claim(1, "h1 == tau + 4*E4/E4'", "R", lambda N: r1(N)),
    Claim(2, "g2 == E4*E6/Delta", "g", lambda N: g2(N)),
    Claim(2, "F1 == (6E4^3-2E2E4E6-4E6^2)/(6*Delta) - 1488", "S", lambda N: s2(N)),
    Claim(2, "h2 == tau + (6/u)/(E2 - E6/E4 - 720*Delta/(E4*E6))", "R",
          lambda N: r_from_h_denominator(2, N)),
    Claim(3, "X == (-270, 0, 1)", "X", (-270, 0, 1)),
    Claim(3, f"g3 == E4^4/Delta^(3/2) - {G3_COEFFICIENT}*E4/Delta^(1/2)", "g",
          lambda N: g3(N)),
    Claim(3, f"g3 coefficient {G3_MISPRINT} variant rejected", "g",
          lambda N: g3(N, G3_MISPRINT), holds=False,
          note=f"the {G3_MISPRINT} variant has principal part p^-3 - 230*p^-1, "
               f"but the eigenvector requires -270; {G3_COEFFICIENT} is the "
               "consistent coefficient."),
    Claim(3, "F1 == (9E6^3-E2E4^4-8E4^3E6+15006E6D+1266E2E4D)/(3*Delta^(3/2))", "S",
          lambda N: f1_body_3(N)),
    Claim(3, "h3 == tau + (6/u)/(E2 - ... + 95800320*Delta^2/(77E4^4E6+211E4E6^3))",
          "R", lambda N: r_from_h_denominator(3, N)),
    Claim(4, "X == (-320, 1)", "X", (-320, 1)),
    Claim(4, f"g4 == E4^4*E6/Delta^2 - {G4_COEFFICIENT}*E4*E6/Delta", "g",
          lambda N: g4(N)),
    Claim(4, "F1 == -(219E4^6-641E4^3E6^2+113E2E4^4E6+103E2E4E6^3+206E6^4)"
             f"/(648*Delta^2) + {F1_4_CONSTANT}", "S", lambda N: f1_body_4(N),
          note="the reference f1 for r=4 needs denominator Delta^2 (weight "
               "bookkeeping) and carries integration constant "
               f"-{F1_4_CONSTANT}; the corrected form above is the "
               "zero-constant solution."),
    Claim(4, "h4 == tau + (6/u)/(E2 - ... - 9146248151040*Delta^3/(...))", "R",
          lambda N: r_from_h_denominator(4, N)),
)
