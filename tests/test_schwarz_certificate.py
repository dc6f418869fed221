"""The certificate behind ``schwarz_residual_zero``: the direct Schwarzian
residual and the Wronskian series as its oracles, one break per part, and
the one division, the one product of R and S and the one packed pair
product a solve makes."""

import io
import json
from fractions import Fraction

import pytest

from modschwarz import cli, modforms, series, solver
from modschwarz.modforms import eisenstein, hauptmodul
from modschwarz.series import LaurentSeries, format_rational
from modschwarz.solver import CROSS_RATIO_MIN_OVERLAP, minimum_order, n0_for, solve_ode

from oracles import direct_schwarz_residual, separate_parts, wronskian
from test_output_digests import DIGESTS

CASES = sorted(
    {(r, N) for r in range(1, 25) for N in (minimum_order(r), 60)} | set(DIGESTS)
)


@pytest.mark.parametrize("r, N", CASES)
def test_direct_residual_is_zero_on_the_certificate_window(r, N):
    res = solve_ode(r, N)
    k = -res.n0
    direct = direct_schwarz_residual(res)
    w = wronskian(res.g, res.S)
    assert res.schwarz_residual_zero
    assert direct.is_zero()
    assert (w - res.wronskian).is_zero()
    assert direct.N == w.N == res.R.N + 2 * k
    assert res.delta_residual.N == res.ode_residual.N == res.S.N
    assert res.division_residual.N == res.R.N + k


# ---------------------------------------------------------------------------
# one break per part: verify exits 1 and names the broken part
# ---------------------------------------------------------------------------

R, ORDER = 3, 40


def verify_broken(monkeypatch, case=(R, ORDER), **override):
    """Run ``verify`` for ``case = (r, order)``, r=3 at order 40 unless
    given; return its exit code, the error message and the SolveResult
    that solve_ode built before checking it, with the fields in
    ``override`` put in place of the solved ones."""
    built = []
    real = solver.SolveResult

    def record(**fields):
        built.append(real(**{**fields, **override}))
        return built[-1]

    monkeypatch.setattr(solver, "SolveResult", record)
    r, order = case
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["verify", "--r", str(r), "--order", str(order)], out=out, err=err)
    assert out.getvalue() == ""
    error = json.loads(err.getvalue())["error"]
    assert error["type"] == "ResidualNonzero"
    return code, error["message"], built[0]


def nonzero_parts(res):
    return [name for name, residual in res.certificate() if not residual.is_zero()]


def test_s_off_at_its_last_coefficient_breaks_the_ode_part(monkeypatch):
    # A change at p^M moves E and delta there, so both parts are nonzero;
    # the ODE part is checked first and names itself.  The Wronskian
    # series shows the break through g*E, one |n0| lower, since
    # theta(w) = (2/a)*(S*delta + g*E) and S*delta starts past p^M.
    real = solver.relation_series

    def off_at_the_end(r, e4, M, g_size=0):
        g, S = real(r, e4, M, g_size)
        return g, S + LaurentSeries.from_terms(S.m, {S.N: 1}, S.N)

    monkeypatch.setattr(solver, "relation_series", off_at_the_end)
    code, message, res = verify_broken(monkeypatch)
    assert code == 1
    assert nonzero_parts(res) == ["ODE", "delta"]
    assert (res.ode_residual, res.delta_residual) == separate_parts(res)
    M = res.S.N  # a = 1 and r = 3 on the squares lattice
    assert message == (
        f"ODE residual nonzero for r=3 at order 40: coefficient {M * M - 9} at p^{M}"
    )
    # theta(w) = 2*g*E is zero below p^(M - k) and known through it, so
    # the two are compared as equal series, window included.
    k = -res.n0
    theta_w = wronskian(res.g, res.S).theta()
    assert theta_w == res.g * res.ode_residual * 2
    assert (theta_w.n_min, theta_w.N) == (M - k, M - k)


def test_rescaled_s_breaks_only_the_delta_part(monkeypatch):
    # 2S still solves the ODE and R = -2g/(2S) still divides, but
    # F2 = -2g + tau*F1 is no longer a solution: delta(g, cS) =
    # (c-1)*a*theta(S), and the Wronskian series is 2w_0 + 2S^2.
    real = solver.relation_series

    def rescaled(r, e4, M, g_size=0):
        g, S = real(r, e4, M, g_size)
        return g, S * 2

    monkeypatch.setattr(solver, "relation_series", rescaled)
    code, message, res = verify_broken(monkeypatch)
    assert code == 1
    assert nonzero_parts(res) == ["delta"]
    assert (res.ode_residual, res.delta_residual) == separate_parts(res)
    assert (res.delta_residual - res.S.theta() / 2).is_zero()
    assert message == (
        f"delta residual nonzero for r=3 at order 40: coefficient "
        f"{format_rational(3 * res.S.leading_coefficient / 2)} at p^3"
    )
    assert (wronskian(res.g, res.S) - res.wronskian).order == 6


@pytest.mark.parametrize("case", [(3, 40), (4, 40)])
@pytest.mark.parametrize(
    "which, where",
    [("S", "first"), ("S", "middle"), ("S", "last"), ("g", "past the overlap"), ("g", "last")],
)
def test_one_coefficient_off_breaks_the_parts_as_two_products_do(case, which, where, monkeypatch):
    # The ODE and delta parts take g*E4 and S*E4 from one packed product.
    # With S or g off by 1 at one coefficient, each part must still be the
    # series that two separate products give, so the message names the
    # same first exponent and value.  g is changed only past the short
    # build's window, where the compare with it cannot see the change.
    real = solver.relation_series

    def off_at_one(r, e4, M, g_size=0):
        g, S = real(r, e4, M, g_size)
        if M < 0:  # the head pass
            return g, S
        x = S if which == "S" else g
        e = {
            "first": x.n_min,
            "middle": x.n_min + (x.N - x.n_min) // 2 // x.m * x.m,
            "past the overlap": -n0_for(r) + CROSS_RATIO_MIN_OVERLAP + x.m,
            "last": x.N,
        }[where]
        x = x + LaurentSeries.from_terms(x.m, {e: 1}, x.N)
        return (g, x) if which == "S" else (x, S)

    monkeypatch.setattr(solver, "relation_series", off_at_one)
    code, message, res = verify_broken(monkeypatch, case)
    assert code == 1
    ode, delta = separate_parts(res)
    assert (res.ode_residual, res.delta_residual) == (ode, delta)
    name, part = next((n, p) for n, p in (("ODE", ode), ("delta", delta)) if not p.is_zero())
    v = part.order
    assert message == (
        f"{name} residual nonzero for r={case[0]} at order {case[1]}: "
        f"coefficient {format_rational(part.coeff(v))} at p^{v}"
    )


def block_calls(monkeypatch) -> list[int]:
    """The denominators of the products that take the block path of
    ``LaurentSeries.__mul__`` or of the division part from now on, one per
    call of its helper."""
    calls = []
    real = series._convolve_blocks

    def spy(x, y, n, den, start=0):
        calls.append(den)
        return real(x, y, n, den, start)

    monkeypatch.setattr(series, "_convolve_blocks", spy)
    return calls


@pytest.mark.parametrize(
    "r, order, where",
    [(3, 40, "last"), (64, 66, "first"), (64, 66, "block boundary"), (64, 66, "last")],
)
def test_r_off_at_one_coefficient_breaks_only_the_division_part(r, order, where, monkeypatch):
    # R = -2g/S comes out of one division kernel, so the break is put on
    # that quotient, the one division whose divisor has a positive order
    # (the short build divides by E4 and by the Hauptmodul).  At r = 64
    # the residual R*S takes the block path: its first coefficient carries
    # the most of the denominator, and the block boundary is where the
    # second block starts.  The part's rows are formed as integers without
    # ``__mul__``; a nonzero part is the series R*S + 2g that ``__mul__``
    # and ``__add__`` give, so the message names the same coefficient.
    real = LaurentSeries.inverse

    def off_at_one(self, numerator=1, known=None):
        q = real(self, numerator, known)
        if self.order <= 0:
            return q
        e = {"first": q.n_min, "block boundary": q.n_min + series._BLOCK, "last": q.N}[where]
        return q + LaurentSeries.from_terms(q.m, {e: 1}, q.N)

    monkeypatch.setattr(LaurentSeries, "inverse", off_at_one)
    calls = block_calls(monkeypatch)
    code, message, res = verify_broken(monkeypatch, (r, order))
    assert code == 1
    assert nonzero_parts(res) == ["division"]
    assert calls == ([res.R.den] if r == 64 else [])
    assert res.division_residual == res.R * res.S + res.g * 2
    # R is off by 1 at p^e, so R*S + 2g is off by s0 at p^(e + order of S).
    e = {"first": res.R.n_min, "block boundary": res.R.n_min + series._BLOCK, "last": res.R.N}[where]
    assert message == (
        f"division residual nonzero for r={r} at order {order}: coefficient "
        f"{format_rational(res.S.leading_coefficient)} at p^{e + res.S.order}"
    )


def test_a_zero_wronskian_is_reported(monkeypatch):
    code, message, res = verify_broken(monkeypatch, wronskian=Fraction(0))
    assert code == 1
    assert nonzero_parts(res) == []
    assert message == "Wronskian is zero for r=3 at order 40: coefficient 0 at p^0"


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [1, 2, 3, 12])
def test_a_solve_inverts_only_s(r, monkeypatch):
    # Outside the short modular build, the only division is -2g/S, no
    # ``__mul__`` takes two series, R*S is formed once, as the rows of the
    # division part (``solver._division_part``), and g and S meet E4
    # exactly once, as one packed pair for the ODE and delta parts
    # (``series._mul_pair``): no Wronskian series.  The short build divides
    # twice: -theta(t) by E4 for the seed t0, then 1 by the Hauptmodul cut
    # to p^size for its residue pairings.
    for gen in vars(modforms).values():
        if hasattr(gen, "cache_clear"):
            gen.cache_clear()
    divided, divided_in_build, multiplied, paired, parts, building = [], [], [], [], [], []
    real_inverse, real_mul = LaurentSeries.inverse, LaurentSeries.__mul__
    real_build_g, real_pair = solver.build_g, solver._mul_pair
    real_part = solver._division_part

    def inverse_spy(self, numerator=1, known=None):
        (divided_in_build if building else divided).append((self, numerator, known))
        return real_inverse(self, numerator, known)

    def mul_spy(self, other):
        if isinstance(other, LaurentSeries) and not building:
            multiplied.append((self, other))
        return real_mul(self, other)

    def pair_spy(x, y, e, start=None):
        paired.append((x, y, e))
        return real_pair(x, y, e, start)

    def part_spy(R, S, g, lo):
        parts.append((R, S, g))
        return real_part(R, S, g, lo)

    def build_g_spy(*args):
        building.append(True)
        try:
            return real_build_g(*args)
        finally:
            building.pop()

    monkeypatch.setattr(LaurentSeries, "inverse", inverse_spy)
    monkeypatch.setattr(LaurentSeries, "__mul__", mul_spy)
    monkeypatch.setattr(solver, "build_g", build_g_spy)
    monkeypatch.setattr(solver, "_mul_pair", pair_spy)
    monkeypatch.setattr(solver, "_division_part", part_spy)
    res = solve_ode(r, minimum_order(r))
    size = -res.n0
    (e4, seed_numerator, _), (t, one, _) = divided_in_build
    assert e4 == eisenstein(4, e4.N, res.m)
    assert seed_numerator == -hauptmodul(res.group, e4.N - 1).theta()
    assert (t.n_min, t.N, one) == (-1, size, 1)
    assert t == hauptmodul(res.group, size)
    assert len(divided) == 1
    divisor, numerator, known = divided[0]
    assert divisor is res.S
    assert numerator == res.g * -2
    assert known is None  # a cold solve

    def name(x):
        for label, y in (("g", res.g), ("S", res.S), ("R", res.R)):
            if x is y:
                return label
        return "E4" if x == eisenstein(4, x.N, res.m) else f"p^{x.n_min}..p^{x.N}"

    assert multiplied == []
    assert [tuple(map(name, args)) for args in parts] == [("R", "S", "g")]
    assert [tuple(map(name, args)) for args in paired] == [("g", "S", "E4")]


@pytest.mark.parametrize("r, N", [(64, 66), (96, 98)])
def test_the_division_residual_takes_the_block_path(r, N, monkeypatch):
    # R's numerators carry much of its denominator at their start: R*S
    # multiplies each block of R over its own share of it.
    calls = block_calls(monkeypatch)
    res = solve_ode(r, N)
    assert calls == [res.R.den]


def test_no_small_solve_takes_the_block_path(monkeypatch):
    # r = 1..12 at orders 60 and 90, and (2, 360): the blocks' extra calls
    # would cost more than the padding they take out, or there is none.
    calls = block_calls(monkeypatch)
    for r, N in [(r, N) for N in (60, 90) for r in range(1, 13)] + [(2, 360)]:
        solve_ode(r, N)
    assert calls == []
