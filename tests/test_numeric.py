"""Floating-point evaluation and the numeric equivariance/Schwarzian checks."""

import dataclasses
import math

import pytest

from modschwarz import numeric
from modschwarz.modforms import eisenstein
from modschwarz.numeric import (
    DEFAULT_POINTS,
    DerivativeVanishes,
    Moebius,
    P_GEN,
    PointOutsideDomain,
    Q_GEN,
    S_GEN,
    T_GEN,
    TailTooLarge,
    check_equivariance,
    check_schwarz_numeric,
    eval_series,
    generators_for,
    _h_derivatives,
    _schwarzian_at,
    h_value,
)
from modschwarz.series import LaurentSeries
from modschwarz.solver import solve_ode
from modschwarz.modforms import Group

from oracles import schwarzian_via_differences


@pytest.fixture(scope="module")
def solved():
    return {r: solve_ode(r, 60) for r in (1, 2, 3, 4)}


# ---------------------------------------------------------------------------
# Moebius matrices
# ---------------------------------------------------------------------------


def test_moebius_requires_unit_determinant():
    with pytest.raises(ValueError):
        Moebius(1, 1, 1, 1)


def test_generator_orders():
    def mat_mul(x, y):
        return Moebius(
            x.a * y.a + x.b * y.c,
            x.a * y.b + x.b * y.d,
            x.c * y.a + x.d * y.c,
            x.c * y.b + x.d * y.d,
        )

    def power(g, k):
        out = g
        for _ in range(k - 1):
            out = mat_mul(out, g)
        return out

    assert power(S_GEN, 2).entries() == [-1, 0, 0, -1]
    assert power(P_GEN, 6).entries() == [1, 0, 0, 1]
    assert power(Q_GEN, 6).entries() == [1, 0, 0, 1]


def test_generators_for_group():
    assert [name for name, _ in generators_for(Group.FULL)] == ["S", "T"]
    assert [name for name, _ in generators_for(Group.SQUARES)] == ["P", "Q"]


def test_default_points_leave_generator_images_high():
    for z in DEFAULT_POINTS:
        assert z.imag >= 0.8
        for gamma in (S_GEN, T_GEN, P_GEN, Q_GEN):
            assert gamma.apply(z).imag >= 0.7


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------


def test_eval_constant_series():
    one = LaurentSeries.one(1, 30)
    v, tail = eval_series(one, 0.3 + 1.7j)
    assert abs(v - 1) < 1e-15
    assert tail < 1e-12


def test_eval_e4_at_i_matches_gamma_closed_form():
    v, tail = eval_series(eisenstein(4, 40), 1j)
    closed = 3 * math.gamma(0.25) ** 8 / (2 * math.pi) ** 6
    assert abs(v - closed) < 1e-12
    assert tail < 1e-40


def test_eval_e6_vanishes_at_i():
    v, _ = eval_series(eisenstein(6, 40), 1j)
    assert abs(v) < 1e-12


def test_eval_series_applies_unit_power():
    series = eisenstein(4, 40)
    tau = -0.3 + 1.1j
    value, tail = eval_series(series, tau)
    for e in (-1, 0, 1, 2):
        assert eval_series(series, tau, e) == ((1j * math.pi) ** e * value, tail)


def test_eval_rejects_lower_half_plane():
    with pytest.raises(PointOutsideDomain):
        eval_series(LaurentSeries.one(1, 5), 0.5 - 1j)


def test_eval_tail_guard_raises_outside_convergence(solved):
    # h for r=3 has poles around Im tau ~ 0.62; close to that height the
    # R-series terms stop decaying and the guard must fire.
    with pytest.raises(TailTooLarge):
        eval_series(solved[3].R, 0.05 + 0.45j, e=-1, tolerance=1e-8)


def test_refusals_name_check_r_and_order(solved):
    # r=5 at order 80 is the smallest case whose tails refuse at the
    # default points; a non-decaying R makes the Schwarzian check refuse.
    with pytest.raises(
        TailTooLarge, match=r"^equivariance under \[0, -1, 1, 1\] for r=5 at order 80: "
    ):
        check_equivariance(solve_ode(5, 80), P_GEN)
    growing = LaurentSeries.from_numerators(2, 0, [100**n for n in range(41)], 1)
    with pytest.raises(TailTooLarge, match=r"^schwarzian for r=3 at order 60: terms"):
        check_schwarz_numeric(dataclasses.replace(solved[3], R=growing))


def test_eval_scales_a_term_whose_factor_exceeds_a_double():
    # 10**400 alone, and p**-200 at tau = i alone, exceed a double; each
    # term is near 1e-146 or 1e146.
    big = LaurentSeries.from_numerators(1, 200, [10**400], 1)
    v, _ = eval_series(big, 1j)
    assert v.real == pytest.approx(math.exp(400 * math.log(10) - 400 * math.pi), rel=1e-12)
    small = LaurentSeries.from_numerators(1, -200, [1], 10**400)
    v, _ = eval_series(small, 1j)
    assert v.real == pytest.approx(math.exp(400 * math.pi - 400 * math.log(10)), rel=1e-12)


def test_a_term_past_a_double_names_check_r_and_order(solved):
    # p**-400 on lattice 2 exceeds a double at every default point.
    deep_pole = LaurentSeries.from_numerators(2, -400, [1], 1)
    with pytest.raises(
        OverflowError, match=r"^equivariance under \[0, -1, 1, 1\] for r=3 at order 60: "
    ):
        check_equivariance(dataclasses.replace(solved[3], R=deep_pole), P_GEN)


def test_eval_is_monotone_improving(solved):
    # Increasing the order changes the value by less than the reported tail.
    R = solved[2].R
    tau = -0.5 + 0.9j
    coarse = R.truncate(30)
    v1, tail1 = eval_series(coarse, tau)
    v2, _ = eval_series(R, tau)
    assert abs(v2 - v1) < tail1


# ---------------------------------------------------------------------------
# equivariance
# ---------------------------------------------------------------------------


def test_translation_residual_is_machine_precision(solved):
    # Already proven coefficient-wise; numerically it is pure roundoff.
    rep = check_equivariance(solved[2], T_GEN)
    assert rep["max_residual"] < 1e-12
    rep3 = check_equivariance(solved[3], T_GEN)
    assert rep3["max_residual"] < 1e-12


@pytest.mark.parametrize("r", [1, 3])
def test_equivariance_odd_r_generators(r, solved):
    for _, gamma in generators_for(Group.SQUARES):
        rep = check_equivariance(solved[r], gamma)
        assert rep["pass"], rep
        assert rep["max_residual"] < 1e-6


@pytest.mark.parametrize("r", [2, 4])
def test_equivariance_even_r_generators(r, solved):
    for _, gamma in generators_for(Group.FULL):
        rep = check_equivariance(solved[r], gamma)
        assert rep["pass"], rep
        assert rep["max_residual"] < 1e-6


def test_equivariance_report_shape(solved):
    rep = check_equivariance(solved[1], P_GEN)
    assert set(rep) == {"r", "gamma", "points", "max_residual", "tolerance", "pass"}
    assert rep["gamma"] == [0, -1, 1, 1]
    assert len(rep["points"]) == len(DEFAULT_POINTS)


def test_equivariance_rejects_points_sent_too_low(solved):
    # tau -> tau/(10*tau + 1) sends -0.5+0.9j to Im ~ 0.009.
    with pytest.raises(
        PointOutsideDomain,
        match=r"^equivariance under \[1, 0, 10, 1\] for r=2 at order 60: gamma moves ",
    ):
        check_equivariance(solved[2], Moebius(1, 0, 10, 1))


def test_vanishing_derivative_names_check_r_and_order(solved, monkeypatch):
    zero = LaurentSeries.zero(solved[3].m, solved[3].R.N)
    monkeypatch.setattr(numeric, "_h_derivatives", lambda result: (zero, zero, zero))
    with pytest.raises(
        DerivativeVanishes,
        match=r"^schwarzian for r=3 at order 60: h' vanishes at ",
    ):
        check_schwarz_numeric(solved[3])


# ---------------------------------------------------------------------------
# numeric Schwarzian
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_schwarz_numeric_below_tolerance(r, solved):
    rep = check_schwarz_numeric(solved[r])
    assert rep["pass"], rep
    assert rep["max_residual"] < 1e-6


def test_schwarzian_of_moebius_map_is_zero(solved):
    # Forcing R to a constant makes h a translation; the same code path
    # must then produce a vanishing Schwarzian at every sample point.
    res = solved[1]
    forced = dataclasses.replace(res, R=LaurentSeries.one(2, 40) * 3)
    for tau in DEFAULT_POINTS:
        assert abs(_schwarzian_at(_h_derivatives(forced), tau)) < 1e-12


def test_schwarz_numeric_agrees_with_finite_differences(solved):
    res = solved[2]
    tau = -0.5 + 1.0j
    fd = schwarzian_via_differences(lambda z: h_value(res, z), tau)
    e4v, _ = eval_series(eisenstein(4, 60), tau)
    target = 2 * math.pi**2 * res.r**2 * e4v
    assert abs(fd - target) < 5e-3


def test_exact_and_numeric_residuals_agree(solved):
    # If the exact residual series is identically zero, the numeric residual
    # must sit at tail + roundoff level at every sample point.
    for r, res in solved.items():
        assert res.schwarz_residual_zero
        rep = check_schwarz_numeric(res)
        assert rep["max_residual"] < 1e-9, r


def reference_schwarzian(result, tau):
    """The per-point path: h', h'', h''' rebuilt at every sample point."""
    a = 2 // result.m
    R = result.R
    v1, _ = eval_series(R.theta() * a + 1, tau)
    v2, _ = eval_series(R.theta().theta() * (a * a), tau, 1)
    v3, _ = eval_series(R.theta().theta().theta() * a**3, tau, 2)
    return v3 / v1 - 1.5 * (v2 / v1) ** 2


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_schwarz_numeric_equals_the_per_point_path(r, solved):
    res = solved[r]
    e4 = eisenstein(4, max(res.R.N, 4), res.m)
    scale = 2 * math.pi**2 * r**2
    worst = 0.0
    for tau in DEFAULT_POINTS:
        want = reference_schwarzian(res, tau)
        assert _schwarzian_at(_h_derivatives(res), tau) == want
        worst = max(worst, abs(want - scale * eval_series(e4, tau)[0]))
    assert check_schwarz_numeric(res)["max_residual"].hex() == worst.hex()
