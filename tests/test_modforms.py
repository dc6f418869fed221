"""Generators and exact identity checks, cross-checked against brute force."""

import functools
import inspect
import random
from fractions import Fraction

import pytest

from modschwarz import modforms

from modschwarz.modforms import (
    CATALOG,
    Group,
    delta,
    delta_from_eisenstein,
    delta_half,
    eisenstein,
    eta_power,
    hauptmodul,
    j1728,
    jacobi_residual,
    ramanujan_residuals,
    seed_t0,
    sigma,
    theta_fourth,
    theta_logderiv,
    theta_series,
)
from modschwarz.series import LaurentSeries

from oracles import reference_seed_t0, reference_theta2_fourth, reference_theta_logderiv


def brute_sigma(k, n):
    return sum(d**k for d in range(1, n + 1) if n % d == 0)


def brute_theta3_fourth(k):
    """Number of ways to write k as a sum of four squares (ordered, signed)."""
    count = 0
    lim = int(k**0.5) + 1
    for a in range(-lim, lim + 1):
        for b in range(-lim, lim + 1):
            if a * a + b * b > k:
                continue
            for c in range(-lim, lim + 1):
                if a * a + b * b + c * c > k:
                    continue
                rest = k - a * a - b * b - c * c
                s = int(rest**0.5)
                for d in (-s, s):
                    if d * d == rest:
                        count += 1
                        if d == 0:
                            break
    return count


def brute_theta2_fourth(k):
    """Number of ways to write 4k as a sum of four odd squares."""
    count = 0
    lim = int((4 * k) ** 0.5) + 2
    odds = [x for x in range(-lim, lim + 1) if x % 2]
    for a in odds:
        for b in odds:
            if a * a + b * b > 4 * k:
                continue
            for c in odds:
                rest = 4 * k - a * a - b * b - c * c
                if rest < 0:
                    continue
                s = int(rest**0.5)
                for d in (-s, s):
                    if d % 2 and d * d == rest:
                        count += 1
                        if d == 0:
                            break
    return count


# ---------------------------------------------------------------------------
# sigma and Eisenstein series
# ---------------------------------------------------------------------------


def test_sigma_small_values():
    assert sigma(3, 1) == 1
    assert sigma(3, 2) == 9
    assert sigma(5, 2) == 33


@pytest.mark.parametrize("k", [1, 3, 5])
def test_sigma_against_brute_force(k):
    for n in range(1, 41):
        assert sigma(k, n) == brute_sigma(k, n)


def test_eisenstein_expansions():
    assert eisenstein(4, 2, 1) == LaurentSeries.from_terms(1, {0: 1, 1: 240, 2: 2160}, 2)
    assert eisenstein(2, 1, 1) == LaurentSeries.from_terms(1, {0: 1, 1: -24}, 1)
    assert eisenstein(6, 1, 1) == LaurentSeries.from_terms(1, {0: 1, 1: -504}, 1)


def test_eisenstein_on_lattice_two_has_even_exponents():
    e4 = eisenstein(4, 9, 2)
    assert all(n % 2 == 0 for n, _ in e4.items())
    assert e4.coeff(2) == 240 and e4.coeff(3) == 0


# ---------------------------------------------------------------------------
# eta powers and Delta
# ---------------------------------------------------------------------------


def test_delta_expansion():
    assert delta(3) == LaurentSeries.from_terms(1, {1: 1, 2: -24, 3: 252}, 3)


def test_delta_half_expansion():
    dh = delta_half(6)
    assert dict(dh.items()) == {1: 1, 3: -12, 5: 54}


def test_eta_power_rejects_other_exponents():
    with pytest.raises(ValueError):
        eta_power(6, 10)


def reference_euler_product(N):
    """prod (1 - q^n) through q^N from the pentagonal number theorem."""
    terms = {0: 1}
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > N and g2 > N:
            break
        sign = -1 if k % 2 else 1
        if g1 <= N:
            terms[g1] = sign
        if g2 <= N:
            terms[g2] = sign
        k += 1
    return LaurentSeries.from_terms(1, terms, max(N, 0), n_min=0)


@functools.cache
def reference_eta_power(exponent, N):
    """The Euler product raised to the power, cut to end at N; the negative
    powers invert the positive ones at order N + 2, as j1728 and seed_t0
    used to."""
    if exponent == 24:
        product = reference_euler_product(N - 1) ** 24
    elif exponent == 12:
        product = reference_euler_product(max((N - 1) // 2, 0)).align(2) ** 12
    else:
        return reference_eta_power(-exponent, N + 2).inverse()
    times_p = LaurentSeries.from_numerators(
        product.m, product.n_min + 1, product.nums, product.den
    )
    return times_p.truncate(N)


@pytest.mark.parametrize("exponent", [24, 12, -24, -12])
def test_eta_power_equals_euler_product_reference(exponent):
    for N in range(0, 151):
        want = reference_eta_power(exponent, N)
        for got in (eta_power(exponent, N), eta_power.__wrapped__(exponent, N)):
            assert (got.m, got.n_min, got.N) == (want.m, want.n_min, want.N), N
            assert got == want, N


@pytest.mark.parametrize("N", [1, 2, 3, 17, 90])
def test_eta_inverses_invert_delta(N):
    # delta(N) * eta^-24 is known on 0..N-1, and so is delta_half(N) * eta^-12.
    for form, exponent, m in ((delta(N), -24, 1), (delta_half(N), -12, 2)):
        product = form * eta_power(exponent, N)
        assert product == LaurentSeries.one(m, N - 1), (exponent, N)


def test_delta_half_squared_is_delta():
    dh = delta_half(41)
    assert (dh * dh).matches(delta(20), min_overlap=20)


def test_eta_product_agrees_with_eisenstein_combination():
    assert delta(60).matches(delta_from_eisenstein(60), min_overlap=60)


def test_delta_inversion_round_trip():
    n = 30
    lhs = delta(n + 2) * j1728(n)
    assert lhs.matches(eisenstein(4, n) ** 3, min_overlap=25)


# ---------------------------------------------------------------------------
# Hauptmoduls and seed forms
# ---------------------------------------------------------------------------


def test_j1728_leading_coefficients():
    # Oracle: convolution of sigma-built lists for E4^3 and (Delta/q)^(-1):
    # E4^3 = 1 + 720q + 179280q^2 + 16954560q^3, (Delta/q)^(-1) = 1 + 24q + 324q^2 + 3200q^3,
    # so E4^3/Delta = 1/q + 744 + 196884q + 21493760q^2 + ...
    j = j1728(2)
    assert j.coeff(-1) == 1
    assert j.coeff(0) == 744
    assert j.coeff(1) == 324 + 720 * 24 + 179280
    assert j.coeff(2) == 3200 + 720 * 324 + 179280 * 24 + 16954560


def test_hauptmodul_full_is_normalised():
    t = hauptmodul(Group.FULL, 3)
    assert t.coeff(-1) == 1
    assert t.coeff(0) == 0
    assert t.coeff(1) == 196884


def test_hauptmodul_squares_leading_terms():
    t = hauptmodul(Group.SQUARES, 4)
    assert t.coeff(-1) == 1
    assert t.coeff(0) == 0
    assert t.coeff(1) == -492
    assert t.coeff(3) == -22590


@pytest.mark.parametrize("group", [Group.FULL, Group.SQUARES])
def test_hauptmodul_constant_term_is_zero(group):
    assert hauptmodul(group, 12).coeff(0) == 0


def test_seed_t0_full_leading_terms():
    t0 = seed_t0(Group.FULL, 2)
    assert t0.coeff(-1) == 1
    assert t0.coeff(0) == -240
    assert t0.coeff(1) == -141444


def test_seed_t0_squares_leading_terms():
    t0 = seed_t0(Group.SQUARES, 4)
    assert t0.coeff(-1) == 1
    assert t0.coeff(1) == 252
    assert t0.coeff(3) == 5130


@pytest.mark.parametrize("group", [Group.FULL, Group.SQUARES])
def test_seed_t0_has_simple_pole(group):
    t0 = seed_t0(group, 8)
    assert t0.order == -1
    assert t0.leading_coefficient == 1


@pytest.mark.parametrize("group", [Group.FULL, Group.SQUARES])
def test_seed_t0_principal_part_is_bare_pole(group):
    pp = {n: c for n, c in seed_t0(group, 8).items() if n < 0}
    assert pp == {-1: Fraction(1)}


# ---------------------------------------------------------------------------
# theta functions
# ---------------------------------------------------------------------------


def test_theta3_fourth_counts_four_square_representations():
    t34 = theta_fourth(3, 8)
    for k in range(9):
        assert t34.coeff(k) == brute_theta3_fourth(k), k


def test_theta2_fourth_counts_odd_square_representations():
    t24 = theta_fourth(2, 7)
    for k in range(8):
        assert t24.coeff(k) == brute_theta2_fourth(k), k


def test_theta4_is_theta3_with_alternating_signs():
    t3 = theta_series(3, 12)
    t4 = theta_series(4, 12)
    for n in range(13):
        assert t4.coeff(n) == t3.coeff(n) * (-1) ** n


def test_theta_logderiv_offsets():
    off2, body2 = theta_logderiv(2, 8)
    assert off2 == Fraction(1, 8)
    assert body2.coeff(0) == 0
    off3, body3 = theta_logderiv(3, 8)
    assert off3 == 0
    # q d/dq log theta3 = p/2 * theta3'/theta3 = p - 2p^2 + 4p^3 - 4p^4 + ...
    assert [body3.coeff(n) for n in range(1, 5)] == [1, -2, 4, -4]


# Each generator built by one formula, with the product route it replaced
# (``tests/oracles.py``) and the calls at which the two must be equal,
# window included.
ONE_FORMULA = {
    "seed_t0": (
        seed_t0,
        reference_seed_t0,
        [(g, N) for g in Group for N in [*range(-3, 41), 600]],
    ),
    "theta2^4": (
        lambda N: theta_fourth(2, N),
        reference_theta2_fourth,
        [(N,) for N in [*range(131), 600]],
    ),
    "theta_logderiv": (
        theta_logderiv,
        reference_theta_logderiv,
        [(j, N) for j in (2, 3, 4) for N in [*range(131), 600]],
    ),
}


@pytest.mark.parametrize("name", ONE_FORMULA)
def test_each_formula_equals_its_product_reference(name):
    formula, reference, calls = ONE_FORMULA[name]
    for args in calls:
        assert formula(*args) == reference(*args), args


def test_theta_logderiv_parity_flip():
    _, body3 = theta_logderiv(3, 10)
    _, body4 = theta_logderiv(4, 10)
    for n in range(11):
        assert body4.coeff(n) == body3.coeff(n) * (-1) ** n


# ---------------------------------------------------------------------------
# identity suites
# ---------------------------------------------------------------------------


def test_ramanujan_identities_hold():
    residuals = ramanujan_residuals(30)
    assert all(res.is_zero() for res in residuals.values())


def test_ramanujan_residual_examples():
    res = ramanujan_residuals(2)
    # theta(E2) = -24q and (E2^2 - E4)/12 = (−48−240)q/12 = -24q
    assert res["theta(E2)-(E2^2-E4)/12"].is_zero()
    assert res["theta(Delta)-E2*Delta"].is_zero()
    assert res["theta(E4)-(E2*E4-E6)/3"].is_zero()


def test_e2_fourth_power_variant_fails():
    # The quartic variant theta(E2) = (E2^4 - E4)/12 breaks at the q
    # coefficient already: -24 on the left, -28 on the right.
    e2 = eisenstein(2, 4)
    e4 = eisenstein(4, 4)
    residual = e2.theta() - (e2**4 - e4) / 12
    assert residual.coeff(1) == -24 - (-28)


def test_jacobi_identity_holds():
    assert jacobi_residual(20).is_zero()
    assert jacobi_residual(40).is_zero()


def test_identity_violated_reports_first_offender():
    # A broken identity leaves a nonzero residual; its order and the
    # coefficient there name the first offending term, not a later one.
    residual = jacobi_residual(20)
    bad = residual + LaurentSeries.from_terms(residual.m, {3: Fraction(5), 7: -2}, 20)
    v = bad.order
    assert v == 3
    assert bad.coeff(v) == 5


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_catalog_leading_behaviour():
    expectations = {
        "e2": (2, 0, 1),
        "e4": (4, 0, 1),
        "e6": (6, 0, 1),
        "eta12": (6, 1, 1),
        "eta24": (12, 1, 1),
        "delta": (12, 1, 1),
        "delta-half": (6, 1, 1),
        "j1728": (0, -1, 1),
        "hauptmodul-full": (0, -1, 1),
        "hauptmodul-squares": (0, -1, 1),
        "t0-full": (-2, -1, 1),
        "t0-squares": (-2, -1, 1),
    }
    assert set(CATALOG) == set(expectations)
    for name, (weight, lead_exp, lead_coeff) in expectations.items():
        form_weight, build = CATALOG[name]
        series = build(8)
        assert form_weight == weight, name
        assert series.order == lead_exp, name
        assert series.leading_coefficient == lead_coeff, name


def test_group_tags():
    assert Group.for_r(2) is Group.FULL
    assert Group.for_r(7) is Group.SQUARES
    assert Group.FULL.lattice == 1
    assert Group.SQUARES.lattice == 2


def test_lattice_two_forms_have_even_exponents():
    for name in ("e2", "e4", "e6"):
        aligned = CATALOG[name][1](10).align(2)
        assert all(n % 2 == 0 for n, _ in aligned.items()), name


# Every prefix-cached generator, with the values of its other arguments.
CACHED = [
    (eisenstein, [{"k": 2}, {"k": 4}, {"k": 6}, {"k": 4, "m": 2}, {"k": 6, "m": 2}]),
    (eta_power, [{"exponent": e} for e in (24, 12, -24, -12)]),
    (hauptmodul, [{"group": Group.FULL}, {"group": Group.SQUARES}]),
    (seed_t0, [{"group": Group.FULL}, {"group": Group.SQUARES}]),
    (theta_fourth, [{"j": 2}, {"j": 3}, {"j": 4}]),
]


def test_generators_are_memoised_transparently():
    """Shuffled rising and falling orders give exactly a fresh build."""
    rng = random.Random(5)
    for gen, keys in CACHED:
        for key in keys:
            orders = list(range(0, 41)) * 2 + [60, 3, 61, 0, 59]
            rng.shuffle(orders)
            for N in orders:
                got = gen(N=N, **key)
                fresh = gen.__wrapped__(N=N, **key)
                assert (got.m, got.n_min, got.N) == (fresh.m, fresh.n_min, fresh.N)
                assert got == fresh, (gen.__name__, key, N)


def test_every_window_ends_exactly_at_the_order():
    """Each generator, served from its cache or built fresh, each theta
    core and each ``CATALOG`` builder ends its window at the order asked
    for, also below a lead term (``delta(0)`` is 0 + O(q))."""
    cached = {f for f in vars(modforms).values() if hasattr(f, "cache_entries")}
    assert cached == {gen for gen, _ in CACHED}
    wrong = []
    for N in (3, 2, 1, 0):
        for gen, keys in CACHED:
            for key in keys:
                for build in (gen, gen.__wrapped__):
                    if build(N=N, **key).N != N:
                        wrong.append((build.__qualname__, key, N))
        cores = {
            "theta_series 3": theta_series(3, N),
            "theta_series 4": theta_series(4, N),
        }
        wrong += [(name, N) for name, core in cores.items() if core.N != N]
        wrong += [(name, N) for name, (_, build) in CATALOG.items() if build(N).N != N]
    assert wrong == []


# The generators whose first term is at p^0, with their lattices.
FROM_ORDER_ZERO = [
    (eisenstein, {"k": 4}, 1),
    (eisenstein, {"k": 6, "m": 2}, 2),
    (theta_series, {"j": 3}, 2),
    (theta_series, {"j": 4}, 2),
]


@pytest.mark.parametrize("N", [-1, -3])
def test_below_order_zero_the_window_is_zero_and_ends_at_the_order(N):
    """Asked for an order below their first term, fresh or from a cache
    entry that covers it, these give the zero window that ends at N."""
    for gen, key, m in FROM_ORDER_ZERO:
        gen(N=20, **key)
        for build in (gen, getattr(gen, "__wrapped__", gen)):
            assert build(N=N, **key) == LaurentSeries.zero(m, N), (build, key)


@pytest.mark.parametrize("N", [-3, -1, 0, 2])
def test_a_call_gives_the_same_series_on_cold_and_warm_caches(N):
    """Every generator and key at orders below, at and above 0: a call on
    empty caches equals the same call served from an entry built at 12.
    Below order 0 the result is the zero window or the lead term, and
    ends at N."""
    for gen, keys in CACHED:
        for key in keys:
            for other, _ in CACHED:
                other.cache_clear()
            cold = gen(N=N, **key)
            gen(N=12, **key)
            warm = gen(N=N, **key)
            assert cold.N == warm.N == N, (gen.__name__, key)
            assert cold == warm, (gen.__name__, key)


def test_prefix_cache_answers_shorter_orders_without_building():
    builds = []

    @functools.wraps(eisenstein.__wrapped__)
    def counting(k, N, m=1):
        builds.append((k, N, m))
        return eisenstein.__wrapped__(k, N, m)

    cached = modforms._prefix_cached(counting)
    cached(4, 50)
    assert builds == [(4, 50, 1)]
    for N in (50, 49, 10, 0, 33):
        assert cached(4, N) == eisenstein.__wrapped__(4, N)
    assert cached(4, 20, m=2) == eisenstein.__wrapped__(4, 20, 2)
    assert cached(4, 5, 2) == eisenstein.__wrapped__(4, 5, 2)
    assert cached(4, N=30) == cached(k=4, N=30, m=1) == eisenstein.__wrapped__(4, 30)
    for args, kwargs in [((4,), {}), ((), {"k": 4, "m": 2}), ((4, 30), {"x": 1}),
                         ((4, 30), {"k": 4}), ((4, 30, 1, 0), {})]:
        with pytest.raises(TypeError):
            cached(*args, **kwargs)
    assert builds == [(4, 50, 1), (4, 20, 2)]
    assert cached(4, 51).N == 51
    assert builds[-1] == (4, 51, 1)
    assert set(cached.cache_entries()) == {(4, 1), (4, 2)}
    assert cached.cache_entries()[(4, 1)].N == 51


def _cache_key(gen, kwargs):
    bound = inspect.signature(gen).bind(N=0, **kwargs)
    bound.apply_defaults()
    return tuple(v for name, v in bound.arguments.items() if name != "N")


def test_generator_caches_hold_one_entry_per_key(solved):
    """Bounded memory: after solving r = 1..12 at orders 60 and 90 each
    generator holds one entry per key, and solving again adds nothing."""
    from modschwarz.solver import solve_ode

    for r in range(1, 13):
        solve_ode(r, 90)
    before = {}
    for gen, keys in CACHED:
        entries = gen.cache_entries()
        assert set(entries) <= {_cache_key(gen, kw) for kw in keys}, gen.__name__
        assert all(isinstance(s, LaurentSeries) for s in entries.values())
        before[gen.__name__] = entries
    for r in range(1, 13):
        solve_ode(r, 60)
        solve_ode(r, 90)
    for gen, _ in CACHED:
        after = gen.cache_entries()
        assert after.keys() == before[gen.__name__].keys(), gen.__name__
        assert all(after[k] is before[gen.__name__][k] for k in after), gen.__name__


def test_threads_share_the_generator_caches():
    """Solving r = 1..6 at order 60 from 4 threads on cold caches gives
    exactly the serial results."""
    from concurrent.futures import ThreadPoolExecutor

    from modschwarz.solver import solve_ode

    serial = {r: solve_ode(r, 60).to_json_dict() for r in range(1, 7)}
    for gen, _ in CACHED:
        gen.cache_clear()
    jobs = [r for shift in range(4) for r in [*range(1 + shift, 7), *range(1, 1 + shift)]]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda r: (r, solve_ode(r, 60).to_json_dict()), jobs))
    assert len(threaded) == 24
    for r, doc in threaded:
        assert doc == serial[r], r
