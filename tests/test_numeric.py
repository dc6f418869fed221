"""Floating-point evaluation and the numeric equivariance/Schwarzian checks."""

import ast
import copy
import inspect
import math
import os
import pickle
import sys
import threading
from fractions import Fraction

import pytest

from modschwarz import closed_forms, numeric
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
    _scaled_term,
    _schwarzian_at,
    h_value,
)
from modschwarz.series import LaurentSeries
from modschwarz.solver import solve_ode
from modschwarz.modforms import Group

from oracles import reference_eval_series, schwarzian_via_differences


@pytest.fixture(scope="module")
def solved():
    return {r: solve_ode(r, 60) for r in (1, 2, 3, 4)}


# ---------------------------------------------------------------------------
# Moebius matrices
# ---------------------------------------------------------------------------


def test_moebius_requires_unit_determinant():
    with pytest.raises(ValueError):
        Moebius(1, 1, 1, 1)


def test_moebius_requires_integer_entries():
    with pytest.raises(TypeError):
        Moebius(0.5, 0, 0, 2)
    with pytest.raises(TypeError):
        Moebius(Fraction(1), 0, 0, 1)
    with pytest.raises(ValueError):
        S_GEN._replace(b=1)


# Each record built twice: as the package builds it, and afresh (by keyword,
# or for SolveResult by a second solve).
RECORDS = {
    "SolveResult": (lambda: solve_ode(3, 20), lambda: solve_ode(3, 20), "g"),
    "Moebius": (lambda: S_GEN, lambda: Moebius(a=0, b=-1, c=1, d=0), "a"),
    "Claim": (
        lambda: next(c for c in closed_forms.CLAIMS if c.r == 3 and c.output == "X"),
        lambda: closed_forms.Claim(
            r=3, label="X == (-270, 0, 1)", output="X", reference=(-270, 0, 1), holds=True
        ),
        "holds",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_values_that_survive_pickle_and_copy(name):
    first, second, field = RECORDS[name]
    a, b = first(), second()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    for copied in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert copied == a
        assert hash(copied) == hash(a)


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


@pytest.mark.parametrize("m", (1, 2))
def test_eval_rejects_a_point_where_p_rounds_to_the_unit_circle(m):
    # Im tau = 1e-20 gives |p| == 1.0 as a double: a series whose every
    # term underflows would read a tail of 0.0 and pass any tolerance.
    tiny = LaurentSeries.from_numerators(m, 0, [1], 10**400)
    for series in (tiny, LaurentSeries.zero(m, 10)):
        with pytest.raises(PointOutsideDomain, match="rounds to 1.0"):
            eval_series(series, 0.3 + 1e-20j, tolerance=1e-6)


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
        check_schwarz_numeric(solved[3]._replace(R=growing))


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
        check_equivariance(solved[3]._replace(R=deep_pole), P_GEN)


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
    # Tables of the zero series in place of those of h', h'' and h'''
    # make h' vanish at every point.
    zero = numeric._doubles(LaurentSeries.zero(solved[3].m, solved[3].R.N))
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
    forced = res._replace(R=LaurentSeries.one(2, 40) * 3)
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


def h_series(result):
    """The series of h', h'' and h''' by series operations: a^k*theta^k(R),
    plus 1 for h'."""
    a = 2 // result.m
    R1 = result.R.theta()
    R2 = R1.theta()
    return R1 * a + 1, R2 * (a * a), R2.theta() * a**3


def reference_schwarzian(result, tau):
    """The series route: h', h'', h''' built as series at every sample
    point and evaluated term by term by the reference evaluator."""
    h1, h2, h3 = h_series(result)
    v1, _ = reference_eval_series(h1, tau)
    v2, _ = reference_eval_series(h2, tau, 1)
    v3, _ = reference_eval_series(h3, tau, 2)
    return v3 / v1 - 1.5 * (v2 / v1) ** 2


@pytest.mark.parametrize(
    "r, N, scaled",
    [(1, 60, 0), (2, 60, 0), (3, 60, 0), (4, 60, 0), (2, 200, 60), (8, 200, 775)],
    ids=["1", "2", "3", "4", "2-200", "8-200"],
)
def test_schwarz_numeric_equals_the_per_point_path(r, N, scaled, monkeypatch):
    # The tables read off R's numerators give the series route's value
    # and tail, table by table and point by point, and so the same
    # Schwarzian and the same max_residual bits.  At order 200, ``scaled`` terms over the five
    # points need _scaled_term, which reads the canonical numerators of
    # each theta image, built once per table.
    res = solve_ode(r, N)
    e4 = eisenstein(4, max(res.R.N, 4), res.m)
    scale = 2 * math.pi**2 * r**2
    want = [reference_schwarzian(res, tau) for tau in DEFAULT_POINTS]
    worst = max(abs(w - scale * eval_series(e4, tau)[0]) for w, tau in zip(want, DEFAULT_POINTS))
    series = h_series(res)
    sums = [[reference_eval_series(s, tau) for s in series] for tau in DEFAULT_POINTS]
    calls = []
    for name in ("_scaled_term", "_theta_image"):
        real = getattr(numeric, name)
        monkeypatch.setattr(
            numeric, name, lambda *args, name=name, real=real: calls.append(name) or real(*args)
        )
    derivatives = _h_derivatives(res)
    for tau, at_tau in zip(DEFAULT_POINTS, sums):
        p = numeric._p(tau, res.m)
        assert [numeric._sum(table, p) for table in derivatives] == at_tau, tau
    assert calls.count("_scaled_term") == scaled
    assert calls.count("_theta_image") == (3 if scaled else 0)
    assert [_schwarzian_at(derivatives, tau) for tau in DEFAULT_POINTS] == want
    monkeypatch.undo()
    assert check_schwarz_numeric(res)["max_residual"].hex() == worst.hex()


# ---------------------------------------------------------------------------
# the cached evaluator against the term-by-term reference
# ---------------------------------------------------------------------------


def outcome(evaluate, series, tau, e=0, tolerance=None):
    """The bits of (value, tail), or the exception's type and message."""
    try:
        value, tail = evaluate(series, tau, e, tolerance=tolerance)
    except (TailTooLarge, OverflowError, ZeroDivisionError, ValueError) as exc:
        return type(exc).__name__, str(exc)
    return value.real.hex(), value.imag.hex(), tail.hex()


def assert_bit_identical(series, points, e=0, tolerance=None):
    for tau in points:
        want = outcome(reference_eval_series, series, tau, e, tolerance)
        # The first call may build the tables, the second reads them.
        assert outcome(eval_series, series, tau, e, tolerance) == want, tau
        assert outcome(eval_series, series, tau, e, tolerance) == want, tau


SAMPLE_AND_IMAGES = DEFAULT_POINTS + tuple(
    gamma.apply(tau) for gamma in (S_GEN, T_GEN, P_GEN, Q_GEN) for tau in DEFAULT_POINTS
)


@pytest.mark.parametrize("r", range(1, 13))
def test_eval_series_is_bit_identical_to_the_reference(r):
    # R, its three theta images and E4 of one solve, at the sample points
    # and their images under every generator, with and without a tail
    # guard: values, tails and refusals (r >= 5 refuses) all agree.
    res = solve_ode(r, 60)
    R1 = res.R.theta()
    R2 = R1.theta()
    family = (res.R, R1, R2, R2.theta(), eisenstein(4, max(res.R.N, 4), res.m))
    for series in family:
        assert_bit_identical(series, SAMPLE_AND_IMAGES)
        assert_bit_identical(series, DEFAULT_POINTS, e=-1, tolerance=1e-8)
    for e, series in enumerate(family[1:4]):
        assert_bit_identical(series, DEFAULT_POINTS, e=e)


def test_eval_series_is_bit_identical_where_a_factor_exceeds_a_double(monkeypatch):
    # Each case of _scaled_term next to plain terms: x/den alone past a
    # double (10**400 at p^200) and p**n alone past one (p^-200 at tau =
    # i), both in one series, and a term past a double, which must still
    # raise OverflowError.
    scaled = []

    def counted(x, den, p, n):
        scaled.append(n)
        return _scaled_term(x, den, p, n)

    monkeypatch.setattr(numeric, "_scaled_term", counted)
    points = (1j, 0.25 + 1.5j, -0.5 + 0.9j)
    big_numerator = LaurentSeries.from_numerators(1, 198, [3, 0, 10**400, 5, 1], 7)
    deep_pole = LaurentSeries.from_numerators(1, -200, [1] + [0] * 199 + [2, 1], 10**400)
    both = LaurentSeries.from_numerators(2, -300, [1] + [0] * 599 + [10**800], 10**400)
    past_a_double = LaurentSeries.from_numerators(1, -400, [1, 0, 1], 1)
    for series in (big_numerator, deep_pole, both):
        assert_bit_identical(series, points)
    assert_bit_identical(past_a_double, points[:1])
    assert {200, -200, -300, 300, -400} <= set(scaled)
    assert outcome(eval_series, past_a_double, 1j)[0] == "OverflowError"
    value, _ = eval_series(deep_pole, 1j)
    assert value.real == pytest.approx(math.exp(400 * math.pi - 400 * math.log(10)), rel=1e-12)


def test_eval_series_is_bit_identical_where_p_underflows():
    # At Im tau = 200, p is 0.0: a negative power divides by zero, as it
    # did term by term, and a power series keeps only its constant term.
    top = 0.1 + 200j
    assert_bit_identical(LaurentSeries.from_numerators(1, -1, [1, 2, 3], 1), [top])
    assert_bit_identical(eisenstein(4, 20), [top])
    assert outcome(eval_series, LaurentSeries.from_numerators(1, -1, [1], 1), top)[0] == (
        "ZeroDivisionError"
    )


def test_the_evaluator_caches_stay_at_their_bound():
    # A long-lived process evaluates many series at many points; the
    # doubles cache keeps only its fixed number of tables.
    assert 0 < numeric._doubles.cache_info().maxsize <= 16
    for k in range(100):
        nums = list(range(1, 30 + k % 11))
        series = LaurentSeries.from_numerators(1, k % 7 - 3, nums, k + 1)
        for j in range(50):
            eval_series(series, complex(-0.5 + j / 100, 0.9 + (k + j) % 13 / 10))
        info = numeric._doubles.cache_info()
        assert info.currsize <= info.maxsize
    info = numeric._doubles.cache_info()
    assert info.currsize == info.maxsize


@pytest.mark.parametrize("r", (1, 2, 3, 4))
def test_one_solve_checks_build_each_table_once(r, monkeypatch):
    # Both equivariance checks evaluate R, 20 times, and the Schwarzian
    # check E4, 5 times, so the cache builds two tables and reads them 23
    # times.  The Schwarzian check reads the tables of h', h'' and h'''
    # off R in one call of _h_derivatives and sums each at the 5 points.
    res = solve_ode(r, 60)
    numeric._doubles.cache_clear()
    built = []
    real = numeric._h_derivatives
    monkeypatch.setattr(numeric, "_h_derivatives", lambda res: built.append(res) or real(res))
    for _, gamma in generators_for(res.group):
        assert check_equivariance(res, gamma)["pass"]
    assert check_schwarz_numeric(res)["pass"]
    info = numeric._doubles.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 23, 2)
    assert built == [res]


def test_equal_series_share_one_table():
    # The cache is keyed by value: a series built afresh reads the table
    # of an equal one.
    a = LaurentSeries.from_numerators(1, -1, [2, 0, 6, 4], 4)
    b = LaurentSeries(1, -1, (Fraction(1, 2), 0, Fraction(3, 2), 1))
    assert a == b and a is not b
    numeric._doubles.cache_clear()
    assert eval_series(a, DEFAULT_POINTS[0]) == eval_series(b, DEFAULT_POINTS[0])
    info = numeric._doubles.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


def test_threads_sharing_the_caches_get_the_reference_values():
    # More threads than cores, switching often, each evaluating more
    # series than the cache holds: every value is still the reference's,
    # and the cache does not grow past its bound.
    family = [
        LaurentSeries.from_numerators(m, k - 2, [(7 * k + 3 * i) % 11 - 5 for i in range(40)], 9)
        for k in range(9)
        for m in (1, 2)
    ]
    points = [complex(-0.5 + j / 20, 0.9 + j / 10) for j in range(16)]
    want = {
        (k, j): outcome(reference_eval_series, s, tau)
        for k, s in enumerate(family)
        for j, tau in enumerate(points)
    }
    wrong = []

    def work(offset):
        for step in range(300):
            k = (offset + 5 * step) % len(family)
            j = (offset + 3 * step) % len(points)
            if outcome(eval_series, family[k], points[j]) != want[k, j]:
                wrong.append((k, j))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        count = 2 * min(os.cpu_count() or 1, 8)
        threads = [threading.Thread(target=work, args=(t,)) for t in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    info = numeric._doubles.cache_info()
    assert info.currsize <= info.maxsize


def test_the_evaluator_adds_term_by_term():
    # sum() adds floats with compensated summation from Python 3.12 and
    # math.fsum always does: either would change the doubles.
    tree = ast.parse(inspect.getsource(numeric))
    calls = {
        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert not calls & {"sum", "fsum"}
