"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
from fractions import Fraction

from modschwarz import closed_forms
from modschwarz.cli import run as cli_run
from modschwarz.modforms import (
    delta,
    eisenstein,
    jacobi_residual,
    ramanujan_residuals,
)
from modschwarz.numeric import S_GEN, T_GEN, check_equivariance, generators_for
from modschwarz.solver import (
    build_B,
    frobenius_oracle,
    j_cross_ratio_matches,
    solve_eigen,
    solve_ode,
)

from oracles import claim_matches_series, direct_schwarz_residual

ORDER = 60  # the order of the shared ``solved`` fixture (conftest.py)


def report(number: int, ok: bool, description: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {number}: {description}"


def test_criterion_1_b_matrix_goldens():
    b3 = build_B(3)
    b4 = build_B(4)
    ok = b3 == (
        (Fraction(9), Fraction(0), Fraction(2160)),
        (Fraction(0), Fraction(9, 4), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    ) and b4 == (
        (Fraction(4), Fraction(960)),
        (Fraction(0), Fraction(1)),
    )
    report(1, ok, "B(3) and B(4) equal the reference matrices exactly")


def test_criterion_2_eigenvector_goldens():
    x3 = [int(x) for x in solve_eigen(build_B(3))]
    x4 = [int(x) for x in solve_eigen(build_B(4))]
    ok = x3 == [-270, 0, 1] and x4 == [-320, 1]
    report(2, ok, "eigenvectors are (-270, 0, 1) and (-320, 1) exactly")


def test_criterion_3_ode_exactness(solved):
    ok = all(solved[r].ode_residual.is_zero() for r in range(1, 13))
    report(
        3,
        ok,
        f"a^2*theta^2(S) - r^2*E4*S == 0 exactly for r=1..12 at order {ORDER} "
        f"(exact rational, no tolerance; all 12 solves took "
        f"{solved['elapsed']:.2f}s)",
    )


def test_criterion_4_schwarzian_exactness(solved):
    # The direct expansion from R, checked on the certificate's window.
    ok = True
    for r in range(1, 9):
        res = solved[r]
        direct = direct_schwarz_residual(res)
        ok = ok and res.schwarz_residual_zero and direct.is_zero()
        ok = ok and direct.N == res.R.N + 2 * (-res.n0)
    report(
        4,
        ok,
        f"W^2/2 - a*theta(W) - 2*r^2*E4 == 0 exactly for r=1..8 at order {ORDER}",
    )


def test_criterion_5_oracle_equivalence(solved):
    ok = True
    for r in range(1, 13):
        S = solved[r].S
        oracle = frobenius_oracle(r, S.N)
        ok = ok and (S * (1 / S.leading_coefficient)).matches(
            oracle, min_overlap=ORDER
        )
    report(
        5,
        ok,
        "normalised S equals the independent Frobenius recurrence "
        "coefficient-for-coefficient for r=1..12",
    )


def test_criterion_6_closed_form_goldens(solved):
    overlap = 40
    # Each row on the series route, on a window of 40, and in the ring.
    ring = {
        claim: ok for r in (1, 2, 3, 4) for claim, ok in closed_forms.verdicts(solved[r])
    }
    failed = [
        claim.label
        for claim in closed_forms.CLAIMS
        if not (claim_matches_series(claim, solved[claim.r], overlap) and ring[claim])
    ]
    residual_authority = all(
        solved[r].ode_residual.is_zero() and solved[r].schwarz_residual_zero
        for r in (1, 2, 3, 4)
    )

    print(
        "ACCEPTANCE 6 note: the g3 coefficient is 1266 (the quoted 1226 "
        "variant has principal part -230/p and must not match); the r=3 F1 "
        "closed form matches with coefficients 15006/1266; pipeline residuals "
        f"stay the authority (zero={residual_authority}); claims that do not "
        f"come out as stated: {failed or 'none'}."
    )
    report(
        6,
        not failed and residual_authority,
        f"all {len(closed_forms.CLAIMS)} rows of closed_forms.CLAIMS come out as "
        f"stated for r=1..4 at overlap {overlap} and exactly in the ring "
        "(the 1226 g3 variant rejected)",
    )


def test_criterion_7_identity_suite():
    N = 40
    residuals = ramanujan_residuals(N)
    ramanujan_ok = all(res.is_zero() for res in residuals.values())
    jacobi_ok = jacobi_residual(N).is_zero()

    pad = N + 6
    cross_ok = j_cross_ratio_matches(eisenstein(4, pad), delta(pad), eisenstein(6, pad), N)

    ok = ramanujan_ok and jacobi_ok and cross_ok
    report(
        7,
        ok,
        f"four Ramanujan identities (E2^2 form), Jacobi, and "
        f"[tau,h_E4,h_Delta,h_E6] == E4^3/(1728*Delta) hold exactly to N={N}",
    )


def test_criterion_8_numeric_equivariance(solved):
    worst = 0.0
    ok = True
    for r in (1, 2, 3, 4):
        res = solved[r]
        for _, gamma in generators_for(res.group):
            rep = check_equivariance(res, gamma, 1e-6)
            worst = max(worst, rep["max_residual"])
            ok = ok and rep["pass"]
    report(
        8,
        ok,
        f"max |h(g.tau) - g.h(tau)| over the 5-point set and group "
        f"generators for r=1..4 is {worst:.3e} < 1e-6 at order {ORDER}",
    )


def test_criterion_9_determinism():
    def run_once() -> bytes:
        out = io.StringIO()
        code = cli_run(
            ["solve", "--r", "6", "--order", "50", "--format", "json"], out=out
        )
        assert code == 0
        return out.getvalue().encode()

    ok = run_once() == run_once()
    report(
        9,
        ok,
        "solve --r 6 --order 50 --format json twice yields byte-identical output",
    )


def test_criterion_10_odd_r_equivariance_for_all_of_sl2z(solved):
    # For odd r, R is a series in q and h commutes with S and T, not only
    # with the generators of the squares subgroup (``generators_for``).
    odd = range(1, 13, 2)
    results = [solved[r] for r in odd] + [solve_ode(r, 90) for r in odd]
    parity = all(n % 2 == 0 for res in results for n, _ in res.R.items())
    worst = 0.0
    ok = parity
    for r in (1, 3):
        for gamma in (S_GEN, T_GEN):
            rep = check_equivariance(solved[r], gamma, 1e-6)
            worst = max(worst, rep["max_residual"])
            ok = ok and rep["pass"]
    report(
        10,
        ok,
        f"R has no odd exponent of p for odd r=1..11 at orders {ORDER} and 90, "
        f"and max |h(g.tau) - g.h(tau)| under S and T for r=1,3 is "
        f"{worst:.3e} < 1e-6 at order {ORDER}",
    )
