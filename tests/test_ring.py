"""The ring of quasi-modular forms against the series layer, and the
closed-form claims decided in it.

The first half involves no solve: random ring elements on both lattices
are expanded by ``closed_forms.expand`` from their literals, so sums,
products, the E6^2 reduction and Ramanujan's derivation are checked
against the catalog generators.  The second half reads P and Psi off
solves and checks that the ring elements built from them are the solve's
series, and that the ring's verdicts reject what they must."""

import random
from fractions import Fraction

import pytest

from modschwarz import closed_forms
from modschwarz.closed_forms import CLAIMS, H_DENOMINATOR, HAUPTMODUL, SEED, expand
from modschwarz.modforms import Group, delta, eisenstein, hauptmodul, seed_t0
from modschwarz.ring import E2, E4, E6, ONE, Element, constant, parse, polynomial
from modschwarz.solver import solve_ode

from oracles import claim_matches_series

DELTA = Element({(0, 0, 0, 2): 1})
N = 24


def literal(x: Element) -> tuple[str, ...]:
    """A ring element as a ``closed_forms`` literal, one term per monomial."""
    terms = []
    for (i, a, b, c), num in sorted(x.nums.items()):
        factors = [f"{name}^{e}" for name, e in (("E2", i), ("E4", a), ("E6", b)) if e]
        if c:
            factors.append(f"Delta^{c}/2")
        terms.append(" ".join([str(Fraction(num, x.den)), *factors]))
    return tuple(terms) or ("0",)


def series(x: Element, N: int, m: int):
    """The expansion of a ring element through p^N on lattice m."""
    return expand(literal(x), N, m)


def random_element(rng: random.Random, m: int) -> Element:
    """Up to five monomials with small exponents and rational coefficients;
    on lattice 1 the powers of Delta are whole."""
    nums = {}
    for _ in range(rng.randrange(1, 6)):
        c = rng.randrange(-3, 4)
        key = (rng.randrange(3), rng.randrange(4), rng.randrange(2), 2 * c if m == 1 else c)
        nums[key] = rng.randrange(-60, 61) or 1
    return Element(nums, rng.randrange(1, 13))


CASES = [(m, seed) for m in (1, 2) for seed in range(6)]


@pytest.mark.parametrize("m, seed", CASES)
def test_sums_and_products_expand_to_the_series_sums_and_products(m, seed):
    rng = random.Random(seed)
    x, y = random_element(rng, m), random_element(rng, m)
    sx, sy = series(x, N, m), series(y, N, m)
    assert series(x + y, N, m) == sx + sy
    assert series(x - y, N, m) == sx - sy
    assert series(x * Fraction(-7, 5), N, m) == sx * Fraction(-7, 5)
    # Poles of order up to 6 leave the product known through p^(N-6).
    assert series(x * y, N, m).matches(sx * sy, min_overlap=12)


@pytest.mark.parametrize("m, seed", CASES)
def test_m_times_d_is_theta(m, seed):
    x = random_element(random.Random(seed), m)
    assert series(x.derivative() * m, N, m) == series(x, N, m).theta()


def test_e6_squared_is_reduced_exactly():
    assert E6 * E6 == E4**3 - DELTA * 1728
    assert (E6 * E6).nums == {(0, 3, 0, 0): 1, (0, 0, 0, 2): -1728}
    assert series(E6 * E6, N, 1) == eisenstein(6, N) ** 2
    assert series(DELTA, N, 1) == delta(N)


def test_ramanujans_rules():
    assert E2.derivative() == (E2 * E2 - E4) * Fraction(1, 12)
    assert E4.derivative() == (E2 * E4 - E6) * Fraction(1, 3)
    assert E6.derivative() == (E2 * E6 - E4 * E4) * Fraction(1, 2)
    assert DELTA.derivative() == E2 * DELTA
    assert not constant(5).derivative()


def test_the_representation_is_canonical():
    x = Element({(0, 1, 0, 0): 6, (1, 0, 0, 0): -4, (0, 0, 1, 0): 0}, -10)
    assert (x.nums, x.den) == ({(0, 1, 0, 0): -3, (1, 0, 0, 0): 2}, 5)
    assert not (x - x) and (x - x).nums == {} and (x - x).den == 1
    assert x * 2 == Element({(0, 1, 0, 0): -12, (1, 0, 0, 0): 8}, 10)


@pytest.mark.parametrize("m", (1, 2))
def test_hauptmodul_and_seed_literals_are_the_generators(m):
    group = Group.FULL if m == 1 else Group.SQUARES
    assert series(parse(HAUPTMODUL[m])[0], N, m) == hauptmodul(group, N)
    assert series(parse(SEED[m])[0], N, m) == seed_t0(group, N)


SERIES_ROWS = [claim for claim in CLAIMS if claim.output != "X"]


def quotient_literal(source: tuple) -> tuple:
    """The ``parse`` quotient n/d of a literal, written back as a literal
    with one term per monomial of n and of d."""
    n, d = parse(source)
    return literal(n) if d == ONE else ((literal(n), literal(d)),)


@pytest.mark.parametrize("claim", SERIES_ROWS, ids=lambda c: f"r{c.r}-{c.output}-{c.holds}")
def test_each_literal_parses_to_its_expansion(claim):
    m = 1 if claim.r % 2 == 0 else 2
    quotient = quotient_literal(claim.reference)
    for order in (5, 30):
        assert expand(quotient, order, m) == expand(claim.reference, order, m)


@pytest.mark.parametrize("m", (1, 2))
@pytest.mark.parametrize(
    "text", ["1 E4 E4", "2 E6 E6", "-3/7 E2 E6 E4^-1 E6 E4^-2", "5 Delta^1/2 E4^-1 Delta^1/2"]
)
def test_a_repeated_factor_adds_its_powers_on_both_routes(text, m):
    # The quotient's literal names each generator once, so its expansion
    # does not lean on how a repeated factor is read.
    for order in (5, 30):
        assert expand((text,), order, m) == expand(quotient_literal((text,)), order, m)


def test_the_parser_refuses_what_is_not_in_the_ring():
    with pytest.raises(ZeroDivisionError, match="zero element"):
        parse(((("1",), ("1 E4", "-1 E4")),))
    with pytest.raises(ValueError, match="power of Delta"):
        parse(("1 Delta^1/3",))
    with pytest.raises(ValueError, match="unknown factor"):
        parse(("1 E8",))
    assert parse(("2 E6^3 E4^-2",)) == (E6 * (E4**3 - DELTA * 1728) * 2, E4 * E4)


def test_polynomial_is_horner():
    t = parse(HAUPTMODUL[1])[0]
    assert polynomial([3, 0, Fraction(1, 2)], t) == t * t * Fraction(1, 2) + 3


# ---------------------------------------------------------------------------
# the solve as ring elements
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solves():
    return {r: solve_ode(r, 40) for r in (1, 2, 3, 4, 7, 12)}


def ring_of(res):
    return closed_forms.ring_solution(res.r, res.X, *closed_forms.pairings(res))


@pytest.mark.parametrize("r", (1, 2, 3, 4, 7, 12))
def test_p_and_psi_rebuild_g_and_sigma_on_the_whole_window(r, solves):
    res = solves[r]
    sol = ring_of(res)
    g = series(sol.g, res.g.N, res.m)
    assert g == res.g
    sigma = res.S + res.g * eisenstein(2, res.g.N + r, res.m) / 3
    assert series(sol.sigma, sigma.N, res.m) == sigma


@pytest.mark.parametrize("r", (1, 2, 3, 4))
def test_every_row_comes_out_as_stated_in_the_ring(r, solves):
    verdicts = closed_forms.verdicts(solves[r])
    assert [claim for claim, _ in verdicts] == [c for c in CLAIMS if c.r == r]
    assert all(ok for _, ok in verdicts)


# The parts of a solve each kind of row reads.
READS = {"g": {"P"}, "S": {"P", "Psi"}, "R": {"P", "Psi"}, "antider": {"P"}}


@pytest.mark.parametrize("r", (1, 3, 4))
@pytest.mark.parametrize("part", ("P", "Psi"))
def test_a_coefficient_off_by_one_fails_the_rows_that_read_it(r, part, solves):
    res = solves[r]
    P, Psi = closed_forms.pairings(res)
    parts = {"P": P, "Psi": Psi}
    rows = [c for c in CLAIMS if c.r == r and c.holds and c.output != "X"]
    for j in range(len(parts[part])):
        bumped = dict(parts, **{part: [c + (i == j) for i, c in enumerate(parts[part])]})
        sol = closed_forms.ring_solution(r, res.X, bumped["P"], bumped["Psi"])
        got = {claim.output: claim.check(sol) for claim in rows}
        assert got == {claim.output: part not in READS[claim.output] for claim in rows}, j


def test_the_1226_row_fails_both_ways(solves):
    res = solves[3]
    variant = next(c for c in CLAIMS if not c.holds)
    assert variant.reference == ("1 E4^4 Delta^-3/2", "-1226 E4 Delta^-1/2")
    claimed = variant._replace(holds=True)
    assert not claimed.check(ring_of(res))
    assert not claim_matches_series(claimed, res, overlap=30)
    assert variant.check(ring_of(res)) and claim_matches_series(variant, res, overlap=30)


@pytest.mark.parametrize("r", (1, 2, 3, 4))
def test_the_h_table_cut_one_term_short_is_rejected(r, solves):
    row = next(c for c in CLAIMS if c.r == r and c.output == "R")
    short = row._replace(reference=((("6",), H_DENOMINATOR[:r]),))
    assert row.check(ring_of(solves[r]))
    assert not short.check(ring_of(solves[r]))


def test_the_antiderivative_row_needs_the_odd_lattice(solves):
    row = next(c for c in CLAIMS if c.output == "antider")
    assert row.check(ring_of(solves[1]))
    # A constant added to the literal keeps its derivative and breaks its parity.
    assert not row._replace(reference=(*row.reference, "1")).check(ring_of(solves[1]))
    with pytest.raises(ValueError, match="no ring decision"):
        row._replace(r=2, reference=("1 E4",)).check(ring_of(solves[2]))
