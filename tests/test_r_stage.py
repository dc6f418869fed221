"""The r-only stage of a solve and its store (``solver.r_stage``): a warm
solve is byte for byte a cold one, skips only the head pass and the short
modular build, and a solve that fails publishes nothing.  ``conftest``
empties the store before every test."""

import json
import os
import sys
import threading

import pytest

from modschwarz import solver
from modschwarz.series import LaurentSeries
from modschwarz.solver import (
    CROSS_RATIO_MIN_OVERLAP,
    MAX_R,
    MatchFailure,
    ResidualNonzero,
    SolveResult,
    build_g,
    minimum_order,
    n0_for,
    r_stage,
    solve_ode,
)


def solve_bytes(r: int, N: int) -> str:
    return json.dumps(solve_ode(r, N).to_json_dict())


@pytest.mark.parametrize("r", range(1, 25))
def test_a_warm_solve_is_byte_for_byte_a_cold_one(r):
    N = minimum_order(r) + 10
    cold = solve_ode(r, N)
    cold_bytes = json.dumps(cold.to_json_dict())
    r_stage.cache_clear()
    solve_ode(r, minimum_order(r))  # makes the entry of r
    assert set(r_stage.cache_entries()) == {r}
    warm = solve_ode(r, N)
    assert warm == cold
    assert json.dumps(warm.to_json_dict()) == cold_bytes


def test_an_entry_is_the_cold_stage():
    # X from the head pass and the short build of g through
    # p^(size + CROSS_RATIO_MIN_OVERLAP), exactly as a fresh build gives.
    for r in (3, 12):
        res = solve_ode(r, 40)
        X, short = r_stage.cache_entries()[r]
        size = -n0_for(r)
        assert X == res.X
        assert short == build_g(X, res.group, size + CROSS_RATIO_MIN_OVERLAP)
        assert short.N == size + CROSS_RATIO_MIN_OVERLAP


@pytest.mark.parametrize("r", [3, 12])
def test_a_warm_solve_skips_only_the_r_stage(r, monkeypatch):
    solve_ode(r, minimum_order(r))
    _, short = r_stage.cache_entries()[r]
    passes, built, subtracted, parts = [], [], [], []
    real_pass, real_build_g = solver.relation_series, solver.build_g
    real_sub, real_certificate = LaurentSeries.__sub__, SolveResult.certificate

    def spy_pass(r, e4, M, g_size=0):
        passes.append(M)
        return real_pass(r, e4, M, g_size)

    def spy_build_g(*args):
        built.append(args)
        return real_build_g(*args)

    def spy_sub(a, b):
        subtracted.append(b)
        return real_sub(a, b)

    def spy_certificate(res):
        out = real_certificate(res)
        parts.append([(name, residual.is_zero()) for name, residual in out])
        return out

    monkeypatch.setattr(solver, "relation_series", spy_pass)
    monkeypatch.setattr(solver, "build_g", spy_build_g)
    monkeypatch.setattr(LaurentSeries, "__sub__", spy_sub)
    monkeypatch.setattr(SolveResult, "certificate", spy_certificate)
    N = 90
    res = solve_ode(r, N)
    size = -n0_for(r)
    assert passes == [N + 3 * size + 4]  # the full pass, and no head pass
    assert built == []
    assert any(b is short for b in subtracted)  # the compare, g - short
    assert parts == [[("ODE", True), ("delta", True), ("division", True)]]
    assert res.wronskian != 0


@pytest.mark.parametrize("r", [3, 12])
@pytest.mark.parametrize("where", ["below p^size", "above p^size"])
def test_a_perturbed_full_pass_on_a_warm_solve_fails_the_compare(r, where, monkeypatch):
    solve_ode(r, minimum_order(r))
    size = -n0_for(r)
    e = size // 2 if where == "below p^size" else size + 5
    real = solver.relation_series

    def perturbed(r, e4, M, g_size=0):
        g, S = real(r, e4, M, g_size)
        return g + LaurentSeries.from_terms(g.m, {e: 1}, g.N), S

    monkeypatch.setattr(solver, "relation_series", perturbed)
    N = minimum_order(r) + 10
    with pytest.raises(
        MatchFailure,
        match=rf"^g by the recurrence for r={r} at order {N}: "
        rf"coefficient at p\^{e} is -?\d+(/\d+)?, the short modular build gives ",
    ):
        solve_ode(r, N)
    assert set(r_stage.cache_entries()) == {r}  # the entry of the passing solve


def perturbed_short_build(monkeypatch, r):
    real = solver.build_g
    e = -n0_for(r) + 5

    def perturbed(X, group, N):
        g = real(X, group, N)
        return g + LaurentSeries.from_terms(g.m, {e: 1}, g.N)

    monkeypatch.setattr(solver, "build_g", perturbed)
    return MatchFailure, rf"coefficient at p\^{e} is "


def perturbed_full_pass(monkeypatch, r):
    # S one off past p^size: the ODE part names it, the compare cannot.
    real = solver.relation_series
    e = -n0_for(r) + 2

    def perturbed(r, e4, M, g_size=0):
        g, S = real(r, e4, M, g_size)
        if M < 0:  # the head pass
            return g, S
        return g, S + LaurentSeries.from_terms(S.m, {e: 1}, S.N)

    monkeypatch.setattr(solver, "relation_series", perturbed)
    return ResidualNonzero, rf"^ODE residual nonzero for r={r} at order 40: .* at p\^{e}$"


@pytest.mark.parametrize("r", [3, 12])
@pytest.mark.parametrize("fault", [perturbed_short_build, perturbed_full_pass])
def test_a_failed_solve_publishes_nothing(r, fault, monkeypatch):
    error, message = fault(monkeypatch, r)
    with pytest.raises(error, match=message):
        solve_ode(r, 40)
    assert r_stage.cache_entries() == {}
    monkeypatch.undo()
    res = solve_ode(r, 40)
    assert res.schwarz_residual_zero
    assert r_stage.cache_entries()[r][0] == res.X


def test_the_store_holds_one_entry_per_r_solved():
    for r, N in ((1, 40), (2, 40), (3, 40), (2, 60), (1, 90), (12, 40), (12, 26)):
        solve_ode(r, N)
    assert sorted(r_stage.cache_entries()) == [1, 2, 3, 12]
    with pytest.raises(ValueError):
        solve_ode(MAX_R + 1, 10**6)
    with pytest.raises(ValueError):
        solve_ode(5, minimum_order(5) - 1)
    assert sorted(r_stage.cache_entries()) == [1, 2, 3, 12]
    r_stage.cache_clear()
    assert r_stage.cache_entries() == {}


def test_threads_sharing_the_store_get_the_cold_outputs():
    # More threads than cores, switching often, solving r = 3 and 12 at
    # several orders from an empty store: every output is the cold one,
    # and the store ends with one entry per r.
    cases = [(r, N) for r in (3, 12) for N in (40, 60, 90)]
    want = {case: solve_bytes(*case) for case in cases}
    r_stage.cache_clear()
    wrong = []

    def work(offset):
        for step in range(len(cases)):
            case = cases[(offset + step) % len(cases)]
            if solve_bytes(*case) != want[case]:
                wrong.append(case)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        count = 2 * min(os.cpu_count() or 1, 4)
        threads = [threading.Thread(target=work, args=(t,)) for t in range(count)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert sorted(r_stage.cache_entries()) == [3, 12]
