"""The certificate behind ``schwarz_residual_zero``: the direct Schwarzian
residual and the Wronskian series as its oracles, and the one division,
the one product of R and S and the one packed pair product a solve makes.
``test_fault_table`` breaks each part."""

import pytest

from modschwarz import modforms, series, solver
from modschwarz.modforms import eisenstein, hauptmodul
from modschwarz.series import LaurentSeries
from modschwarz.solver import minimum_order, solve_ode

from oracles import direct_schwarz_residual, wronskian
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
