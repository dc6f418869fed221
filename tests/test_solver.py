"""The construction pipeline: B system, eigenvectors, g realisation,
solutions, residuals, the Frobenius oracle and the equivariant machinery."""

import hashlib
import json
from fractions import Fraction

import pytest

from modschwarz import closed_forms, modforms, solver
from modschwarz.modforms import (
    Group,
    delta,
    eisenstein,
    hauptmodul,
    seed_t0,
    theta_fourth,
)
from modschwarz.series import LaurentSeries, NonzeroConstantTerm
from modschwarz.solver import (
    CROSS_RATIO_MIN_OVERLAP,
    MAX_R,
    DegenerateEntries,
    MatchFailure,
    ResidualNonzero,
    ZeroDerivative,
    anharmonic_images,
    build_B,
    build_g,
    classify_theta_cross_ratio,
    cross_ratio,
    equivariant_offset,
    frobenius_oracle,
    j_cross_ratio_matches,
    minimum_order,
    n0_for,
    solve_eigen,
    solve_ode,
)

from oracles import first_solution, reference_seed_t0, reference_theta_logderiv


@pytest.fixture(scope="module")
def solved():
    return {r: solve_ode(r, 40) for r in range(1, 7)}


def as_ints(xs):
    return [int(x) for x in xs]


# ---------------------------------------------------------------------------
# B system and eigenvectors
# ---------------------------------------------------------------------------


def test_b_matrix_r3():
    assert build_B(3) == (
        (Fraction(9), Fraction(0), Fraction(2160)),
        (Fraction(0), Fraction(9, 4), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(1)),
    )


def test_b_matrix_r4():
    assert build_B(4) == (
        (Fraction(4), Fraction(960)),
        (Fraction(0), Fraction(1)),
    )


def test_b_matrix_r1_and_r2_are_unit():
    assert build_B(1) == ((Fraction(1),),)
    assert build_B(2) == ((Fraction(1),),)


@pytest.mark.parametrize("r", range(1, 13))
def test_b_diagonal_law(r):
    B = build_B(r)
    a = 2 // Group.for_r(r).lattice
    for k in range(1, len(B) + 1):
        assert B[k - 1][k - 1] == Fraction(r * r, a * a * k * k)
    assert B[-1][-1] == 1
    for k in range(1, len(B)):
        assert B[k - 1][k - 1] != 1


def test_b_matrix_is_upper_triangular():
    B = build_B(9)
    for k in range(len(B)):
        for l in range(k):
            assert B[k][l] == 0


def test_eigenvector_goldens():
    assert as_ints(solve_eigen(build_B(3))) == [-270, 0, 1]
    assert as_ints(solve_eigen(build_B(4))) == [-320, 1]
    assert as_ints(solve_eigen(build_B(1))) == [1]
    assert as_ints(solve_eigen(build_B(2))) == [1]


@pytest.mark.parametrize("r", [3, 5, 7, 9, 11])
def test_eigenvector_parity_zeros_for_odd_r(r):
    X = solve_eigen(build_B(r))
    # Component i holds a_{-(i+1)}; on lattice 2 the even-depth entries
    # vanish because E4 has no odd p-coefficients there.
    for i, x in enumerate(X):
        if (i + 1) % 2 == 0:
            assert x == 0


def test_eigenvector_satisfies_bx_equals_x():
    for r in (5, 6, 7, 8):
        B = build_B(r)
        X = solve_eigen(B)
        for k in range(len(B)):
            lhs = sum(B[k][l] * X[l] for l in range(len(B)))
            assert lhs == X[k], (r, k)


# ---------------------------------------------------------------------------
# g realisation
# ---------------------------------------------------------------------------


def test_build_g_r1_is_the_seed_form():
    g = build_g((Fraction(1),), Group.SQUARES, 30)
    assert g.matches(seed_t0(Group.SQUARES, 30), min_overlap=25)


def test_build_g_r2_is_the_seed_form():
    g = build_g((Fraction(1),), Group.FULL, 30)
    assert g.matches(seed_t0(Group.FULL, 30), min_overlap=25)


def test_build_g_hits_prescribed_principal_part():
    X = solve_eigen(build_B(3))
    g = build_g(X, Group.SQUARES, 25)
    assert {n: c for n, c in g.items() if n < 0} == {-3: Fraction(1), -1: Fraction(-270)}
    X4 = solve_eigen(build_B(4))
    g4 = build_g(X4, Group.FULL, 25)
    assert {n: c for n, c in g4.items() if n < 0} == {-2: Fraction(1), -1: Fraction(-320)}


def reference_build_g(X, group, N):
    """Greedy cancellation on every power t^j * t0 at the full budget: the
    definition that build_g, by residue pairings and Paterson-Stockmeyer,
    must reproduce exactly."""
    size = len(X)
    budget = N + size - 1
    t = hauptmodul(group, budget)
    t0 = seed_t0(group, budget)
    powers = [t0]
    for _ in range(size - 1):
        powers.append(powers[-1] * t)
    acc = LaurentSeries.zero(group.lattice, budget)
    for j in range(size - 1, -1, -1):
        need = X[j] - acc.coeff(-(j + 1))
        if need:
            acc = acc + powers[j] * need
    return acc


@pytest.mark.parametrize("group", list(Group), ids=lambda g: g.value)
def test_the_seed_form_is_minus_theta_of_t_over_e4(group):
    # The paper's seed E4*E6/Delta or E4/Delta^(1/2) is -theta(t)/E4 on
    # both groups, windows included: the identity that makes seed_t0 one
    # formula and the coefficients of P in build_g residue pairings.
    for N in range(61):
        t = hauptmodul(group, N)
        want = -(t.theta() / eisenstein(4, N + 1, group.lattice))
        assert reference_seed_t0(group, N) == want, N


def assert_same_g(X, group, N):
    g = build_g(X, group, N)
    ref = reference_build_g(X, group, N)
    assert (g.m, g.n_min, g.N) == (ref.m, ref.n_min, ref.N)
    assert g.coeffs == ref.coeffs


@pytest.mark.parametrize(
    "r, N",
    [(r, minimum_order(r)) for r in range(1, 13)]
    + [(r, 60) for r in range(1, 13)]
    + [(47, minimum_order(47))],
)
def test_build_g_equals_reference(r, N):
    assert_same_g(solve_eigen(build_B(r)), Group.for_r(r), N)


def principal_part_of(c, group, N):
    """X such that the reference realises sum c[j] * t^j * t0."""
    size = len(c)
    t = hauptmodul(group, N)
    acc = LaurentSeries.zero(group.lattice, N)
    power = seed_t0(group, N)
    for cj in c:
        acc = acc + power * cj
        power = power * t
    return tuple(acc.coeff(-(i + 1)) for i in range(size))


# Size 10 gives Paterson-Stockmeyer blocks of k = 3 coefficients of P.
SYNTHETIC_X = {
    "X[3..6]=0": tuple(
        Fraction(0) if 3 <= i <= 6 else Fraction(i - 4, i + 1) for i in range(9)
    )
    + (Fraction(1),),
    "deepest-only": (Fraction(0),) * 9 + (Fraction(1),),
    "non-monic-deepest": (Fraction(5, 3),) + (Fraction(0),) * 8 + (Fraction(-2, 7),),
    "short-P": (Fraction(1), Fraction(-3, 2), Fraction(4)) + (Fraction(0),) * 7,
    "zero": (Fraction(0),) * 10,
}


@pytest.mark.parametrize("group", list(Group), ids=lambda g: g.value)
@pytest.mark.parametrize("name", SYNTHETIC_X)
def test_build_g_equals_reference_on_synthetic_x(name, group):
    assert_same_g(SYNTHETIC_X[name], group, 30)


@pytest.mark.parametrize("group", list(Group), ids=lambda g: g.value)
def test_build_g_equals_reference_with_a_zero_block_of_p(group):
    # P = sum c[j] t^j with c[3..6] = 0: the block c[3..5] vanishes whole
    # and the block c[6..8] has no constant term.
    c = [Fraction(0) if 3 <= j <= 6 else Fraction(j + 1, 2) for j in range(10)]
    assert_same_g(principal_part_of(c, group, 30), group, 30)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_build_g_asks_for_t_once_at_its_budget(r, monkeypatch):
    orders = []

    def spy(group, N):
        orders.append(N)
        return hauptmodul(group, N)

    monkeypatch.setattr(solver, "hauptmodul", spy)
    X = solve_eigen(build_B(r))
    build_g(X, Group.for_r(r), 40)
    # t once, at the budget, also where P is a constant (len(X) == 1); the
    # residue pairings cut it to order len(X).
    assert orders == [len(X) + 39]


def test_a_cold_solve_builds_the_hauptmodul_once(monkeypatch):
    for gen in vars(modforms).values():
        if hasattr(gen, "cache_clear"):
            gen.cache_clear()
    calls = []
    real = modforms.j1728

    def spy(N):
        calls.append(N)
        return real(N)

    monkeypatch.setattr(modforms, "j1728", spy)
    solve_ode(4, 40)
    # build_g at order size + CROSS_RATIO_MIN_OVERLAP asks for t through
    # its budget 2*size + CROSS_RATIO_MIN_OVERLAP - 1, with size = 2.
    assert calls == [3 + CROSS_RATIO_MIN_OVERLAP]


def test_g3_misprinted_coefficient_is_rejected():
    # The 1226 variant yields principal part p^-3 - 230 p^-1, which the
    # eigenvector (-270) rules out; recorded here rather than patched.
    wrong = closed_forms.expand(("1 E4^4 Delta^-3/2", "-1226 E4 Delta^-1/2"), 12, 2)
    assert wrong == closed_forms.g3(12, closed_forms.G3_MISPRINT)
    assert wrong.coeff(-1) == 996 - 1226 == -230
    res = solve_ode(3, 20)
    assert res.g.coeff(-1) == -270
    assert not res.g.matches(wrong, min_overlap=10)


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


def test_solve_rejects_bad_arguments():
    with pytest.raises(ValueError):
        solve_ode(0, 40)
    with pytest.raises(ValueError):
        solve_ode(6, minimum_order(6) - 1)
    with pytest.raises(ValueError, match=f"above the limit MAX_R={MAX_R}"):
        solve_ode(MAX_R + 1, 10**6)


def test_ode_residual_raise_names_r_order_and_first_coefficient(monkeypatch):
    solved = solve_ode(2, 40)
    c = solved.g.coeff(1) / solved.S.coeff(1)  # g = pass's g + c*S
    real = solver.relation_series

    def perturbed(r, e4, M):
        g, S = real(r, e4, M)
        g = g + S * c
        p6 = LaurentSeries.from_terms(g.m, {6: 1}, g.N)
        S6 = first_solution(g + p6, e4, r)[0]
        return g - S6 * c, S6

    # S is integrated from g + p^6, and the pass's g is moved by -c*S6 so
    # that the solve still forms the solved g; a g changed past p^size
    # itself is caught earlier, by the compare with the short modular
    # build (see below).
    monkeypatch.setattr(solver, "relation_series", perturbed)
    # g + p^6 moves S by (6a - r^2/(6a)) p^6 = 35/3 p^6 for r = 2 (a = 2),
    # so the residual starts at (36a^2 - r^2) * 35/3 = 4900/3 at p^6.
    with pytest.raises(
        ResidualNonzero,
        match=r"^ODE residual nonzero for r=2 at order 40: coefficient 4900/3 at p\^6$",
    ):
        solve_ode(2, 40)


def test_match_failure_names_r_and_order(monkeypatch):
    # A doubled seed form gives the short build 2 at the deepest pole.
    monkeypatch.setattr(solver, "seed_t0", lambda group, N: 2 * seed_t0(group, N))
    with pytest.raises(
        MatchFailure,
        match=r"^g by the recurrence for r=3 at order 40: coefficient at p\^-3 "
        r"is 1, the short modular build gives 2$",
    ):
        solve_ode(3, 40)


@pytest.mark.parametrize("r", [3, 12])
@pytest.mark.parametrize("where", ["below p^size", "above p^size"])
def test_overlap_compare_names_r_order_and_exponent(r, where, monkeypatch):
    # The recurrence reads only g_size from build_g; a generator fault that
    # moves any other coefficient of the short build is caught by name.
    size = -n0_for(r)
    e = size // 2 if where == "below p^size" else size + 5
    real = solver.build_g

    def perturbed(X, group, N):
        g = real(X, group, N)
        return g + LaurentSeries.from_terms(g.m, {e: 1}, g.N)

    monkeypatch.setattr(solver, "build_g", perturbed)
    N = minimum_order(r)
    with pytest.raises(
        MatchFailure,
        match=rf"^g by the recurrence for r={r} at order {N}: "
        rf"coefficient at p\^{e} is -?\d+(/\d+)?, the short modular build gives ",
    ):
        solve_ode(r, N)


@pytest.mark.parametrize("r", [3, 12])
def test_a_solve_asks_the_generators_only_for_a_short_window(r, monkeypatch):
    # build_g runs at order size + CROSS_RATIO_MIN_OVERLAP, so its budget
    # is 2*size + CROSS_RATIO_MIN_OVERLAP - 1, whatever order is asked for.
    orders = []

    def spying_on(real):
        def spy(group, N):
            orders.append(N)
            return real(group, N)

        return spy

    for name in ("hauptmodul", "seed_t0"):
        monkeypatch.setattr(solver, name, spying_on(getattr(solver, name)))
    largest = []
    for N in (minimum_order(r), 120):
        orders.clear()
        solve_ode(r, N)
        largest.append(max(orders))
    assert largest[0] == largest[1] <= 2 * (-n0_for(r)) + CROSS_RATIO_MIN_OVERLAP


@pytest.mark.parametrize("r, e", [(3, 1), (4, 0)])
def test_shifted_principal_part_names_r_order_and_exponent(r, e, monkeypatch):
    # g shifted at p^-1 after the pass reads off as a wrong X.  The short
    # build realises that X exactly, but the pass's g from p^0 on follows
    # the right one, so the compare names the first exponent they part at.
    real = solver.relation_series

    def shifted(r, e4, M):
        g, S = real(r, e4, M)
        return g + LaurentSeries.from_terms(g.m, {-1: 1}, g.N), S

    monkeypatch.setattr(solver, "relation_series", shifted)
    with pytest.raises(
        MatchFailure,
        match=rf"^g by the recurrence for r={r} at order 40: coefficient at "
        rf"p\^{e} is -?\d+(/\d+)?, the short modular build gives ",
    ):
        solve_ode(r, 40)


def test_a_first_solution_without_its_leading_term_is_named(monkeypatch):
    # The solve divides by S at p^size to fix the free multiple of S in g.
    real = solver.relation_series

    def headless(r, e4, M):
        g, S = real(r, e4, M)
        lead = LaurentSeries.from_terms(S.m, {S.order: S.leading_coefficient}, S.N)
        return g, S - lead

    monkeypatch.setattr(solver, "relation_series", headless)
    with pytest.raises(
        ResidualNonzero,
        match=r"^first solution has no term at p\^2 for r=4 at order 40: "
        r"S has order 3, wanted 2$",
    ):
        solve_ode(4, 40)


@pytest.mark.parametrize(
    "r, N", [(r, minimum_order(r)) for r in range(1, 25)] + [(47, 96), (64, 66), (96, 98)]
)
def test_solved_g_is_the_full_window_modular_build(r, N):
    # A solve carries g past p^size by the ODE's recurrence; the modular
    # P(t)*t0 at the full budget is kept here as the oracle for it.
    res = solve_ode(r, N)
    assert res.g == build_g(res.X, res.group, N + 3 * (-n0_for(r)) + 4)


@pytest.mark.parametrize(
    "r, N", [(r, minimum_order(r)) for r in range(1, 25)] + [(47, 96), (64, 66), (96, 98)]
)
def test_solved_x_and_s_are_the_eigen_solve_and_the_integration(r, N):
    # A solve takes X and S from the ODE's coefficient relation; B's
    # eigenvector and the termwise integration of g*E4 are kept here as
    # the oracles for them.  The cusp value that integration removes is 0.
    res = solve_ode(r, N)
    assert res.X == solve_eigen(build_B(r))
    e4 = eisenstein(4, res.g.N - n0_for(r), res.m)
    S, c_over_u = first_solution(res.g, e4, r)
    assert S == res.S
    assert c_over_u == 0


@pytest.mark.parametrize("r", [3, 12])
def test_a_solve_calls_neither_the_eigen_solve_nor_the_integration(r, monkeypatch):
    # The relation's pass gives X and S; a solve never integrates a series.
    called = []

    def spying_on(owner, name):
        real = getattr(owner, name)

        def spy(*args):
            called.append(name)
            return real(*args)

        return spy

    for name in ("build_B", "solve_eigen"):
        monkeypatch.setattr(solver, name, spying_on(solver, name))
    monkeypatch.setattr(
        LaurentSeries, "theta_antider", spying_on(LaurentSeries, "theta_antider")
    )
    solve_ode(r, minimum_order(r))
    assert called == []


@pytest.mark.parametrize("r", range(1, 7))
def test_residuals_vanish_on_full_windows(r, solved):
    res = solved[r]
    assert res.ode_residual.is_zero()
    assert res.schwarz_residual_zero


@pytest.mark.parametrize("r", range(1, 7))
def test_structure_shapes(r, solved):
    res = solved[r]
    n0 = n0_for(r)
    assert res.g.order == n0
    assert res.g.leading_coefficient == 1
    assert res.S.order == -n0
    assert res.S.coeff(0) == 0
    assert res.R.order == 2 * n0
    assert res.R.leading_coefficient != 0
    assert res.trusted_order >= 40


@pytest.mark.parametrize("r", range(1, 7))
def test_g_times_e4_has_zero_constant_term(r, solved):
    res = solved[r]
    e4 = eisenstein(4, res.g.N + (-n0_for(r)), res.m)
    assert (res.g * e4).coeff(0) == 0


@pytest.mark.parametrize("r", [1, 3, 5])
def test_translation_invariance_for_odd_r(r, solved):
    # h(tau+1) = h(tau)+1 on lattice 2 means R only carries even exponents.
    res = solved[r]
    assert all(n % 2 == 0 for n, _ in res.R.items())


@pytest.mark.parametrize("r", range(1, 9))
def test_oracle_equivalence(r):
    res = solve_ode(r, 40)
    oracle = frobenius_oracle(r, res.S.N)
    assert (res.S * (1 / res.S.leading_coefficient)).matches(
        oracle, min_overlap=40
    )


def test_frobenius_oracle_r1_first_terms():
    # One recurrence step: (9-1) alpha_3 = b_2 alpha_1 = 240, so alpha_3 = 30;
    # (25-1) alpha_5 = b_4 + 30 b_2 = 2160 + 7200, so alpha_5 = 390.
    orc = frobenius_oracle(1, 6)
    assert dict(orc.items()) == {1: Fraction(1), 3: Fraction(30), 5: Fraction(390)}


def reference_oracle(r, N):
    """The Frobenius recurrence one Fraction at a time, straight from
    (a^2 n^2 - r^2) alpha_n = r^2 * sum_{s < n} alpha_s b_{n-s}."""
    m = 2 if r % 2 else 1
    a = 2 // m
    lead = -n0_for(r)
    e4 = eisenstein(4, N - lead, m)
    alpha = {lead: Fraction(1)}
    for n in range(lead + 1, N + 1):
        s = sum((alpha[k] * e4.coeff(n - k) for k in range(lead, n)), Fraction(0))
        alpha[n] = r * r * s / (a * a * n * n - r * r)
    return LaurentSeries(m, lead, tuple(alpha[n] for n in range(lead, N + 1)))


@pytest.mark.parametrize("r, N", [(r, 60) for r in range(1, 13)] + [(47, 150)])
def test_frobenius_oracle_equals_fraction_recurrence(r, N):
    orc = frobenius_oracle(r, N)
    ref = reference_oracle(r, N)
    assert (orc.m, orc.n_min, orc.N) == (ref.m, ref.n_min, N)
    assert orc.coeffs == ref.coeffs


def test_frobenius_oracle_argument_checks():
    with pytest.raises(ValueError):
        frobenius_oracle(0, 10)
    with pytest.raises(ValueError):
        frobenius_oracle(4, 1)


@pytest.mark.parametrize("r", [1, 2, 3, 4, 7, 12, 13])
def test_relation_and_oracle_windows_end_exactly_at_the_order(r):
    # The passes run one q-step at a time, two exponents on lattice 2.  An
    # order between two steps keeps its known-zero slot at the end.
    size = -n0_for(r)
    m = Group.for_r(r).lattice
    for M in (2 * size + 5, 2 * size + 6):
        g, S = solver.relation_series(r, eisenstein(4, M + size, m), M)
        assert (g.m, g.n_min, g.N) == (m, -size, M)
        assert (S.m, S.n_min, S.N) == (m, size, M)
        oracle = frobenius_oracle(r, M)
        assert (oracle.m, oracle.n_min, oracle.N) == (m, size, M)
        assert oracle.matches(S * (1 / S.leading_coefficient), min_overlap=M - size + 1)


def test_theta_antider_raises_on_nonzero_constant():
    bad = LaurentSeries.from_terms(1, {0: 3, 1: 1}, 4)
    with pytest.raises(NonzeroConstantTerm):
        bad.theta_antider()


# ---------------------------------------------------------------------------
# closed-form goldens: every row of the claims table that ``examples`` prints
# ---------------------------------------------------------------------------


def _claim_id(claim) -> str:
    return f"r{claim.r}-{claim.output}" + ("" if claim.holds else "-variant")


@pytest.mark.parametrize("claim", closed_forms.CLAIMS, ids=_claim_id)
def test_closed_form_claims(claim, solved):
    assert claim.check(solved[claim.r], overlap=30)


def test_s_closed_form_r1(solved):
    """-E4'/(2*Delta^(1/2)) leads with -240; its match is the r1-S row."""
    assert solved[1].S.leading_coefficient == -240


# Every series row of the claims table, by the name of the closed form it
# expands: the literal, g3 with its coefficient, or the h table at depth r.
CLOSED_FORMS = {
    "g1": "r1-g",
    "s1": "r1-S",
    "antider_identity_1": "r1-antider",
    "r1": "r1-R",
    "g2": "r2-g",
    "s2": "r2-S",
    "r_from_h_denominator-2": "r2-R",
    "g3": "r3-g",
    "g3-1226": "r3-g-variant",
    "f1_body_3": "r3-S",
    "r_from_h_denominator-3": "r3-R",
    "g4": "r4-g",
    "f1_body_4": "r4-S",
    "r_from_h_denominator-4": "r4-R",
}
ROWS = {_claim_id(claim): claim for claim in closed_forms.CLAIMS}

# SHA-256 of ``json.dumps(reference(N).to_json_dict(), sort_keys=True)`` at
# N = 40 and 97, recorded from the series builders that each row called
# before the closed forms became literals.
REFERENCE_SHA256 = {
    "g1": (
        "3fae4d5a3a9f9a48b77c99703f1bd31f881445b20d653ae173e8d8ebdc53753a",
        "e303c224b12bf51957a511b7788d514d35c36d7153cc935fdf958a4066f87792",
    ),
    "s1": (
        "3acbf09207809feb0ac0966205d44da1f597bcde5e60f74e10c857fd824c0cb6",
        "b11574f4b81b8799723f31b84a377e35d548acb8c76ae8e1117074ce966fc0a3",
    ),
    "antider_identity_1": (
        "a69e7e71fee164b9f42ca6a45ef841fa0fed90ee873128d50cc99819fee685a5",
        "f5e866b3fcdeb78bdfcd5a9f0509bc5b22f833dda2cc52b0aec70da53b3138c6",
    ),
    "r1": (
        "17fd1d54e9d73a5a5cc8ced6157fd86dd0108444165679770519b420c7764b93",
        "47ee4a588de910427e0019ffebfaf214877d47b88e993ed9ff17973a14849b3a",
    ),
    "g2": (
        "8ef2d85fd2f574391a4ca143f119856548ec74c8d209e20b56eeea021bbd8043",
        "95fc6e5a3f6c69174fcd9f933cfbf10d53213527e7b093816a431fe7e616afe9",
    ),
    "s2": (
        "28701a4b50038986bbaeb198fa54e73d64f5973333e3ecda5bfcb23986fa8878",
        "651f849baa5b2f23669d14bf60c6717c3dcb5c6bfbfc7ef8122972d749b2703b",
    ),
    "r_from_h_denominator-2": (
        "c89de2c9b0fe8e36cea406bd8277400e33f2528b075de8a6fcf5ca2013998b6a",
        "6c1c69c579b187288d719ac9d83eda4e41e8ff3b7d3d7b8896034c7f862371bd",
    ),
    "g3": (
        "2ad40d9158030d2b2790497a4d9d3dad997cfef02d9968edf356deb084c6a448",
        "1c60548ac7a3c81546c65cf0680b214a03927f3444909569f801dd669d32f453",
    ),
    "g3-1226": (
        "2998d6f7b4df9c5c0dc1969bad67464b40f969b829fa3c56814683d1799d0dcc",
        "dae6f1b863f80c2440e4418166ec91df2e9b76da7eba45ee12ec17976dc40fde",
    ),
    "f1_body_3": (
        "41ed29273e4f1d51d4d1ed7f8177a88076606d7df1aec9699be01bfc3409aa49",
        "8b62c868884fb5d7c28bf54c2d18ac24cd0c87793ecdc6a05d3d8838f7299e3a",
    ),
    "r_from_h_denominator-3": (
        "6d00966484c51caea275df6fc4c5ffc48bb04396123eecd65ca5602dab3057ab",
        "866ed3475a57eb6205e62f8921f0b1a797e5c9a313ccf33b0ba8ce3ba9ffb2d1",
    ),
    "g4": (
        "41ba46cd2823560858fc7fd1245ca5c68100eb2c368eee2588f308044981de92",
        "bf251cf52e632f57c68b9ef299a68c443d2979425c16d55616c24cda1a82f9cd",
    ),
    "f1_body_4": (
        "11c1e2c7d2dcef43995d14ba653aece63fbfd2728dcc521509d8fd84d7b3658f",
        "340f8df6fada5b12ab80f7adf176a8800c90983556f3b4e2bc4c2ed6853a134e",
    ),
    "r_from_h_denominator-4": (
        "4f71080407ff2dba3c206b0796c9223eaa8e442eb78b1d643d414f001b3048b4",
        "9f711c8ef49f7e91934c89cfe8983a46e6fa2660e77eb3bd37a3d2dedce0a4f0",
    ),
}


def test_every_series_row_has_a_closed_form_name_and_a_pinned_reference():
    series_rows = {row for row, claim in ROWS.items() if claim.output != "X"}
    assert sorted(CLOSED_FORMS.values()) == sorted(series_rows)
    assert REFERENCE_SHA256.keys() == CLOSED_FORMS.keys()


@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_closed_form_references_keep_their_bytes(name):
    reference = ROWS[CLOSED_FORMS[name]].reference
    digests = tuple(
        hashlib.sha256(
            json.dumps(reference(N).to_json_dict(), sort_keys=True).encode()
        ).hexdigest()
        for N in (40, 97)
    )
    assert digests == REFERENCE_SHA256[name]


# A claim passes on any overlap of 30, so only the window shows an
# expansion sized too small; a quotient's window also depends on the order
# of its divisor, which cancellation raises in the h rows.
@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_odd_r_closed_forms_end_exactly_at_the_order(name):
    reference = ROWS[CLOSED_FORMS[name]].reference
    for N in [*range(1, 42), 64, 97, 123]:
        assert reference(N).N == N, N


def test_f1_closed_form_r4_needs_both_corrections(solved):
    # As sometimes quoted, the r = 4 form lacks the constant and is over
    # Delta: the first misses by exactly the constant, the second is off.
    res = solved[4]
    body, constant = closed_forms.F1_BODY_4
    assert constant == str(closed_forms.F1_4_CONSTANT)
    uncorrected = closed_forms.expand((body,), res.S.N, 1)
    assert not res.S.matches(uncorrected, min_overlap=30)
    assert (res.S - closed_forms.F1_4_CONSTANT).matches(uncorrected, min_overlap=30)
    numerator, divisor = body
    assert divisor == ("-648 Delta^2",)
    over_delta = closed_forms.expand(((numerator, ("-648 Delta",)), constant), res.S.N, 1)
    assert not res.S.matches(over_delta, min_overlap=30)


# ---------------------------------------------------------------------------
# equivariant offsets and cross-ratios
# ---------------------------------------------------------------------------


def test_offset_of_delta_is_six_over_e2():
    off = equivariant_offset(delta(20), 12)
    # 12*Delta/Delta' = 6/(u*E2) by the Delta Ramanujan identity.
    assert (off * eisenstein(2, 18)).matches(
        LaurentSeries.one(1, 16) * 6, min_overlap=15
    )
    assert [off.coeff(n) for n in range(3)] == [6, 144, 3888]


def test_offset_of_e4_via_ramanujan():
    e4 = eisenstein(4, 20)
    off = equivariant_offset(e4, 4)
    # body * (E2 E4 - E6) == 6 E4, i.e. body = 2 E4 / theta(E4).
    e2, e6 = eisenstein(2, 20), eisenstein(6, 20)
    assert (off * (e2 * e4 - e6)).matches(e4 * 6, min_overlap=15)


def test_offset_rejects_constant_form():
    with pytest.raises(ZeroDerivative):
        equivariant_offset(LaurentSeries.one(1, 10), 4)


def test_offset_golden_matches_solver_r1(solved):
    # tau + 4 E4/E4' must be the r=1 equivariant solution.
    off = equivariant_offset(eisenstein(4, 40), 4)
    assert solved[1].R.matches(off.align(2), min_overlap=30)


def test_cross_ratio_j_identity():
    N = 40
    pad = N + 6
    w2 = equivariant_offset(eisenstein(4, pad), 4)
    w3 = equivariant_offset(delta(pad), 12)
    w4 = equivariant_offset(eisenstein(6, pad), 6)
    cross = cross_ratio(LaurentSeries.zero(1, pad), w2, w3, w4)
    j_inv = eisenstein(4, pad) ** 3 * delta(pad + 2).inverse() * Fraction(1, 1728)
    assert cross.matches(j_inv, min_overlap=N)


def test_j_cross_ratio_checker_sees_a_wrong_form():
    # The checker ``identities`` and criterion 7 share: true on the
    # classical forms, false once E6 is off at p^15, and refused on a
    # window shorter than the overlap asked for.
    pad = 26
    e4, dl, e6 = eisenstein(4, pad), delta(pad), eisenstein(6, pad)
    assert j_cross_ratio_matches(e4, dl, e6, 20)
    assert not j_cross_ratio_matches(e4, dl, e6 + LaurentSeries.from_terms(1, {15: 1}, pad), 20)
    with pytest.raises(ValueError, match="shorter than min_overlap=40"):
        j_cross_ratio_matches(e4, dl, e6, 40)


def logderiv_theta_offsets(N):
    """The theta offsets k*f/f' = (k/2) / (q d/dq log f) with k = 1/2,
    from the log-derivatives of theta_j itself (``tests/oracles.py``): a
    route independent of theta_j^4 and ``equivariant_offset``."""
    out = []
    for j in (2, 3, 4):
        offset, body = reference_theta_logderiv(j, N)
        out.append((body + offset).inverse(Fraction(1, 4)))
    return out


@pytest.mark.parametrize("N", [10, 40, 120])
def test_theta_offsets_match_the_log_derivative_route(N):
    reference = logderiv_theta_offsets(N)
    offsets = [equivariant_offset(theta_fourth(j, N), 2) for j in (2, 3, 4)]
    for k, (offset, ref) in enumerate(zip(offsets, reference)):
        assert offset.matches(ref, min_overlap=N), k
    label, cross = classify_theta_cross_ratio(N)
    assert label == "mu"
    assert cross == cross_ratio(LaurentSeries.zero(2, N), *reference)


def test_cross_ratio_invariant_under_common_scaling():
    N = 16
    w2, w3, w4 = (equivariant_offset(theta_fourth(j, N), 2) for j in (2, 3, 4))
    base = cross_ratio(LaurentSeries.zero(2, N), w2, w3, w4)
    scaled = cross_ratio(
        LaurentSeries.zero(2, N), w2 * 7, w3 * 7, w4 * 7
    )
    assert base.matches(scaled, min_overlap=N)


def test_cross_ratio_degenerate_entries():
    one = LaurentSeries.one(1, 8)
    with pytest.raises(DegenerateEntries):
        cross_ratio(one, one, one * 2, one * 3)


def test_zero_derivative_names_the_order():
    with pytest.raises(ZeroDerivative, match="weight 4 form .* through order 10$"):
        equivariant_offset(LaurentSeries.one(1, 10), 4)


def test_degenerate_entries_name_the_order():
    one = LaurentSeries.one(1, 8)
    with pytest.raises(DegenerateEntries, match="z1-z2 vanishes through order 8$"):
        cross_ratio(one, one, one * 2, one * 3)


def test_theta_cross_ratio_mismatch_names_the_order(monkeypatch):
    monkeypatch.setattr(solver, "anharmonic_images", lambda mu: {"1-mu": 1 - mu})
    with pytest.raises(ResidualNonzero, match="cross-ratio at order 20 matches 0 "):
        classify_theta_cross_ratio(20)


def test_theta_cross_ratio_is_classical_lambda():
    # The cross-ratio [tau, h_theta2, h_theta3, h_theta4] equals
    # mu = theta2^4/theta3^4 itself (16p - 128p^2 + ...), not one of the
    # other five anharmonic images.
    label, cross = classify_theta_cross_ratio(30)
    assert label == "mu"
    assert cross.coeff(1) == 16
    assert cross.coeff(2) == -128


def test_theta_cross_ratio_refuses_short_overlap():
    classify_theta_cross_ratio(CROSS_RATIO_MIN_OVERLAP)
    with pytest.raises(ValueError, match="below"):
        classify_theta_cross_ratio(CROSS_RATIO_MIN_OVERLAP - 1)
    with pytest.raises(ValueError):
        classify_theta_cross_ratio(3)


@pytest.mark.parametrize(
    "images, count",
    [
        (lambda mu: {"mu": mu, "copy of mu": mu * 1}, 2),
        (lambda mu: {"1-mu": 1 - mu}, 0),
    ],
)
def test_theta_cross_ratio_needs_exactly_one_match(monkeypatch, images, count):
    monkeypatch.setattr(solver, "anharmonic_images", images)
    with pytest.raises(ResidualNonzero, match=f"matches {count} "):
        classify_theta_cross_ratio(20)


def test_anharmonic_images_are_distinct():
    mu = theta_fourth(2, 20) * theta_fourth(3, 20).inverse()
    images = anharmonic_images(mu)
    labels = list(images)
    for i, la in enumerate(labels):
        for lb in labels[i + 1:]:
            assert not images[la].matches(images[lb], min_overlap=6), (la, lb)


@pytest.mark.parametrize("N", range(CROSS_RATIO_MIN_OVERLAP, 130))
def test_anharmonic_images_are_their_defining_quotients(N):
    # Two of the images are built from the two inverses; each must be the
    # very series its label defines, window included (equal series store
    # the same numerators from the same n_min, so they end at the same N).
    mu = theta_fourth(2, N) / theta_fourth(3, N)
    images = anharmonic_images(mu)
    assert images == {
        "mu": mu,
        "1-mu": 1 - mu,
        "1/mu": mu.inverse(),
        "1/(1-mu)": (1 - mu).inverse(),
        "mu/(mu-1)": mu / (mu - 1),
        "(mu-1)/mu": (mu - 1) / mu,
    }
