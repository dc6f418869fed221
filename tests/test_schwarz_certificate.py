"""The certificate behind ``schwarz_residual_zero``: the direct Schwarzian
residual as its oracle, one break per part, and the one division a solve
makes."""

import io
import json

import pytest

from modschwarz import cli, modforms, solver
from modschwarz.series import LaurentSeries
from modschwarz.solver import minimum_order, solve_ode

from schwarz_oracle import direct_schwarz_residual
from test_output_digests import DIGESTS

CASES = sorted(
    {(r, N) for r in range(1, 25) for N in (minimum_order(r), 60)} | set(DIGESTS)
)


@pytest.mark.parametrize("r, N", CASES)
def test_direct_residual_is_zero_on_the_certificate_window(r, N):
    res = solve_ode(r, N)
    k = -res.n0
    direct = direct_schwarz_residual(res)
    assert res.schwarz_residual_zero
    assert direct.is_zero()
    assert direct.N == res.wronskian.N == res.R.N + 2 * k
    assert res.division_residual.N == res.R.N + k


# ---------------------------------------------------------------------------
# one break per part: verify exits 1 and names the broken part
# ---------------------------------------------------------------------------

R, ORDER = 3, 40


def verify_broken(monkeypatch):
    """Run ``verify`` for r=3 at order 40; return its exit code, the error
    message and the SolveResult that solve_ode built before checking it."""
    built = []
    real = solver.SolveResult

    def record(**fields):
        built.append(real(**fields))
        return built[-1]

    monkeypatch.setattr(solver, "SolveResult", record)
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["verify", "--r", str(R), "--order", str(ORDER)], out=out, err=err)
    assert out.getvalue() == ""
    error = json.loads(err.getvalue())["error"]
    assert error["type"] == "ResidualNonzero"
    return code, error["message"], built[0]


def nonzero_parts(res):
    return [name for name, residual in res.certificate() if not residual.is_zero()]


def test_s_off_at_its_last_coefficient_breaks_the_ode_part(monkeypatch):
    # No S that pairs with g can break the ODE part alone: theta(w) =
    # (2/a)*(S*delta + g*E), and a change at p^M moves delta only at p^M,
    # past w's window, so the break shows in the Wronskian through g*E,
    # one |n0| lower.  The ODE part is checked first and names itself.
    real = solver.relation_series

    def off_at_the_end(r, e4, M):
        g, S = real(r, e4, M)
        return g, S + LaurentSeries.from_terms(S.m, {S.N: 1}, S.N)

    monkeypatch.setattr(solver, "relation_series", off_at_the_end)
    code, message, res = verify_broken(monkeypatch)
    assert code == 1
    assert nonzero_parts(res) == ["ODE", "Wronskian"]
    M = res.S.N  # a = 1 and r = 3 on the squares lattice
    assert message == (
        f"ODE residual nonzero for r=3 at order 40: coefficient {M * M - 9} at p^{M}"
    )
    assert res.wronskian.theta().matches(res.g * res.ode_residual * 2)


def test_rescaled_s_breaks_only_the_wronskian_part(monkeypatch):
    # 2S still solves the ODE and R = -2g/(2S) still divides, but
    # F2 = -2g + tau*F1 is no longer a solution: w = 2w_0 + 2S^2.
    real = solver.relation_series

    def rescaled(r, e4, M):
        g, S = real(r, e4, M)
        return g, S * 2

    monkeypatch.setattr(solver, "relation_series", rescaled)
    code, message, res = verify_broken(monkeypatch)
    assert code == 1
    assert nonzero_parts(res) == ["Wronskian"]
    assert message == (
        f"Wronskian residual nonzero for r=3 at order 40: "
        f"coefficient {res.S.leading_coefficient ** 2 / 2} at p^6"
    )


def test_r_off_at_its_last_coefficient_breaks_only_the_division_part(monkeypatch):
    # R = g/S * (-2) comes out of one division kernel, so the break is put
    # on the quotient g/S at its last coefficient.
    real = LaurentSeries.inverse

    def off_at_the_end(self, numerator=1):
        q = real(self, numerator)
        return q + LaurentSeries.from_terms(q.m, {q.N: 1}, q.N)

    monkeypatch.setattr(LaurentSeries, "inverse", off_at_the_end)
    code, message, res = verify_broken(monkeypatch)
    assert code == 1
    assert nonzero_parts(res) == ["division"]
    # R is off by -2 at p^N_R, so R*S + 2g is off by -2*s0 at p^(N_R+3).
    assert message == (
        f"division residual nonzero for r=3 at order 40: "
        f"coefficient {-2 * res.S.leading_coefficient} at p^{res.R.N + 3}"
    )


def test_a_zero_wronskian_is_reported(monkeypatch):
    real = solver.wronskian
    monkeypatch.setattr(solver, "wronskian", lambda g, S: real(g, S) * 0)
    code, message, res = verify_broken(monkeypatch)
    assert code == 1
    assert nonzero_parts(res) == []
    assert message == "Wronskian is zero for r=3 at order 40: coefficient 0 at p^0"


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [1, 2, 3, 12])
def test_a_solve_inverts_only_s(r, monkeypatch):
    for gen in vars(modforms).values():
        if hasattr(gen, "cache_clear"):
            gen.cache_clear()
    divided = []
    real = LaurentSeries.inverse

    def spy(self, numerator=1):
        divided.append((self, numerator))
        return real(self, numerator)

    monkeypatch.setattr(LaurentSeries, "inverse", spy)
    res = solve_ode(r, minimum_order(r))
    assert len(divided) == 1
    divisor, numerator = divided[0]
    assert divisor is res.S
    assert numerator is res.g
