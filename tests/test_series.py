"""Exact Laurent series arithmetic: examples, windows and ring axioms."""

import copy
import json
import pickle
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modschwarz import series
from modschwarz.modforms import eisenstein
from modschwarz.series import (
    _BLOCK,
    _PADDING_BITS,
    IncompatibleLattice,
    LaurentSeries,
    NonzeroConstantTerm,
    UnknownCoefficient,
    ZeroLeadingCoefficient,
    _aligned,
    _constant_term,
    _convolve,
    _convolve_blocks,
    _even_halves,
    _mul_pair,
    _on_lattice,
    _pack,
    _pack_width,
    _padded,
    _primitive,
    _quotient,
    _unpack,
    format_rational,
    parse_rational,
)


def L(m, n_min, *coeffs):
    return LaurentSeries(m, n_min, tuple(Fraction(c) for c in coeffs))


def width(a: LaurentSeries) -> int:
    """Number of coefficients in the window n_min..N."""
    return a.N - a.n_min + 1


def agree_on_the_shorter_window(a: LaurentSeries, b: LaurentSeries) -> bool:
    """``a.matches(b)`` on a common window that holds all of the shorter
    series.  A theta or a cancellation can drop leading zeros, so the
    property tests size the overlap by their results, not their inputs."""
    return a.matches(b, min_overlap=min(width(a), width(b)))


# E4, E6 truncated at q^2, built by hand from sigma_3 and sigma_5.
E4_2 = L(1, 0, 1, 240, 2160)
E6_2 = L(1, 0, 1, -504, -16632)


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=4)
nonzero_fractions = small_fractions.filter(lambda f: f != 0)


@st.composite
def series_st(draw, m=1):
    n_min = draw(st.integers(min_value=-3, max_value=2))
    coeffs = draw(st.lists(small_fractions, min_size=1, max_size=6))
    return LaurentSeries(m, n_min, tuple(coeffs))


@st.composite
def unit_series_st(draw, m=1):
    n_min = draw(st.integers(min_value=-3, max_value=2))
    lead = draw(nonzero_fractions)
    rest = draw(st.lists(small_fractions, min_size=2, max_size=6))
    return LaurentSeries(m, n_min, (lead, *rest))


@st.composite
def long_unit_series_st(draw):
    """Up to 70 coefficients, so forward substitution rescales its common
    denominator many times over; zeros are drawn often so that gaps
    inside the series are common."""
    m = draw(st.sampled_from((1, 2)))
    n_min = draw(st.integers(min_value=-5, max_value=3))
    lead = draw(nonzero_fractions)
    size = draw(st.integers(min_value=0, max_value=69))
    rest = draw(
        st.lists(
            st.one_of(st.just(Fraction(0)), small_fractions),
            min_size=size,
            max_size=size,
        )
    )
    return LaurentSeries(m, n_min, (lead, *rest))


def reference_inverse(a: LaurentSeries) -> LaurentSeries:
    """Term-by-term recurrence, one Fraction at a time: the definition
    the integer quotient kernel must reproduce exactly."""
    v = a.order
    unit = a.coeffs[v - a.n_min:]
    out = [Fraction(1) / unit[0]]
    for k in range(1, len(unit)):
        s = Fraction(0)
        for i in range(1, k + 1):
            if unit[i]:
                s += unit[i] * out[k - i]
        out.append(-s / unit[0])
    return LaurentSeries(a.m, -v, tuple(out))


def reference_product(a: list[int], b: list[int]) -> list[int]:
    """Full schoolbook product of two integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def one_parity(xs: list, offset: int) -> list:
    """xs with 0 at every index that is not ``offset`` mod 2."""
    return [x if i % 2 == offset else 0 for i, x in enumerate(xs)]


# ---------------------------------------------------------------------------
# addition
# ---------------------------------------------------------------------------


def test_add_cancels_constant():
    assert L(1, 0, 1, 240) + (-1) == L(1, 1, 240)


def test_add_zero_is_identity():
    a = L(1, -2, 3, 0, 5)
    assert a + LaurentSeries.zero(1, a.N) == a
    assert a + 0 == a


def test_add_eisenstein_window():
    total = E4_2 + E6_2
    assert total == L(1, 0, 2, -264, -14472)


def test_add_takes_min_trust_bound():
    a = L(1, 0, 1, 2, 3, 4)   # N = 3
    b = L(1, 0, 1, 1)         # N = 1
    assert (a + b).N == 1


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def test_mul_pole_against_monomial():
    inv_q = LaurentSeries.from_terms(1, {-1: 1}, 4, n_min=-1)
    q = LaurentSeries.from_terms(1, {1: 1}, 4, n_min=1)
    prod = inv_q * q
    assert prod.order == 0 and prod.coeff(0) == 1


def test_mul_eisenstein_leading():
    prod = L(1, 0, 1, 240) * L(1, 0, 1, -504)
    assert prod == L(1, 0, 1, -264)


def test_mul_even_exponent_parity_closed():
    a = LaurentSeries.from_terms(2, {0: 1, 2: 3, 4: -1}, 5)
    b = LaurentSeries.from_terms(2, {-2: 2, 2: 7}, 4)
    prod = a * b
    assert all(n % 2 == 0 for n, _ in prod.items())


def test_mul_window_rule():
    a = L(1, -1, 1, 0, 2)     # window [-1, 1]
    b = L(1, 0, 1, 5)         # window [0, 1]
    prod = a * b
    assert prod.n_min == -1
    assert prod.N == min(a.N + b.n_min, b.N + a.n_min)  # = min(1, 0) = 0


# ---------------------------------------------------------------------------
# inversion and division
# ---------------------------------------------------------------------------


def test_inverse_of_delta_unit():
    # (Delta/q)^(-1): geometric expansion gives 1 + 24q + 324q^2
    a = L(1, 0, 1, -24, 252)
    assert a.inverse() == L(1, 0, 1, 24, 324)


def test_inverse_of_monomial():
    q = LaurentSeries.from_terms(1, {1: 1}, 3, n_min=1)
    assert q.inverse().order == -1
    assert q.inverse().coeff(-1) == 1


def test_inverse_window_drops_twice_the_order():
    a = L(1, 2, 1, 4, 5, 6)   # order 2, N = 5
    inv = a.inverse()
    assert inv.n_min == -2 and inv.N == 5 - 4


def test_inverse_of_zero_series_raises():
    with pytest.raises(ZeroLeadingCoefficient):
        LaurentSeries.zero(1, 5).inverse()


@given(unit_series_st())
@settings(max_examples=60, deadline=None)
def test_mul_inverse_is_one(a):
    prod = a * a.inverse()
    assert prod.coeff(0) == 1
    assert all(c == 0 for n, c in prod.items() if n != 0)


@given(unit_series_st())
@settings(max_examples=60, deadline=None)
def test_inverse_involution(a):
    assert a.inverse().inverse().matches(a, min_overlap=width(a))


@given(long_unit_series_st())
@settings(max_examples=80, deadline=None)
def test_inverse_equals_reference_recurrence(a):
    inv = a.inverse()
    ref = reference_inverse(a)
    assert (inv.m, inv.n_min, inv.N) == (ref.m, ref.n_min, ref.N)
    assert inv.coeffs == ref.coeffs


@pytest.mark.parametrize("length", range(1, 71))
def test_inverse_equals_reference_at_every_length(length):
    # Non-monic lead, a pole, zeros at every third place, lattice 2.
    coeffs = [Fraction(-3, 7)] + [
        Fraction(0) if k % 3 == 0 else Fraction((-1) ** k * k, k % 5 + 1)
        for k in range(1, length)
    ]
    a = LaurentSeries(2, -2, tuple(coeffs))
    inv = a.inverse()
    ref = reference_inverse(a)
    assert (inv.m, inv.n_min, inv.N) == (2, 2, a.N - 2 * a.order)
    assert (inv.n_min, inv.N, inv.coeffs) == (ref.n_min, ref.N, ref.coeffs)


# Integer coefficients, zero often and sometimes wider than a machine word.
kernel_ints = st.one_of(
    st.just(0), st.integers(min_value=-9, max_value=9), st.integers(-(2**90), 2**90)
)
# The same without 0, drawn directly: filtering kernel_ints rejects so
# many draws that hypothesis's filter health check fails on some seeds.
nonzero_kernel_ints = st.one_of(
    st.integers(1, 9),
    st.integers(-9, -1),
    st.integers(1, 2**90),
    st.integers(-(2**90), -1),
)


@given(
    st.lists(kernel_ints, min_size=1, max_size=20),
    st.lists(kernel_ints, min_size=1, max_size=20),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_convolve_window_is_slice_of_product(a, b, data):
    full = reference_product(a, b)
    n = data.draw(st.integers(min_value=0, max_value=len(full)))
    out = _convolve(a, b, n)
    assert out == full[:n]
    assert all(type(c) is int for c in out)


# A denominator of several small prime powers, and the part of it that
# each block of a padded list carries, one share per block of _BLOCK.
PADDED_DEN = 2**5 * 3**4 * 5**3 * 7**2
CHAIN = (2**5 * 3**4 * 5**3, 3**4 * 5**3, 5**3, 1)


def padded_list(shares, length, block=_BLOCK):
    """``length`` numerators, ``shares[i // block]`` times a multiplier of
    alternating sign that is 1 at the start of the list."""
    return [shares[i // block] * (-1) ** i * (7 * i + 1) for i in range(length)]


def chain_links(x, n, den, block=_BLOCK):
    """The distinct ``gcd(den, x_0..x_(e_k - 1))`` over the blocks of x[:n]."""
    x = x[:n]
    return {gcd(den, *x[:e]) for e in range(block, len(x) + block, block)}


def with_zero_block(x, k):
    return x[: k * _BLOCK] + [0] * _BLOCK + x[(k + 1) * _BLOCK :]


def with_entry(x, i, v):
    return x[:i] + [v] + x[i + 1 :]


B = _BLOCK
Y = [(-1) ** j * (3 * j + 2) for j in range(30)]
BLOCK_CASES = {
    # x, y, n: every case is over PADDED_DEN.
    "chain of four links": (padded_list(CHAIN, 4 * B), Y, 4 * B + 5),
    # One entry of block 1 prime to the denominator: G is 1 from there on,
    # though the later blocks are multiples of PADDED_DEN.
    "G reaches 1 mid-chain": (
        with_entry(padded_list((CHAIN[0], CHAIN[1], PADDED_DEN, PADDED_DEN), 4 * B), B + 3, 11),
        Y,
        4 * B,
    ),
    "all-zero block, negatives": (
        with_zero_block(padded_list(CHAIN, 4 * B), 1),
        [-v for v in Y],
        5 * B,
    ),
    "len(a) > n": (padded_list(CHAIN, 4 * B), Y, B + 5),
    "len(b) < n": (padded_list(CHAIN, 3 * B), [5, -1, 2], 3 * B),
    "n = 1": (padded_list(CHAIN, 2 * B), Y, 1),
    "odd-index-zero halves": (
        one_parity(padded_list(CHAIN, 8 * B, 2 * B), 0),  # blocks of the halves
        one_parity(Y, 0),
        8 * B + 9,
    ),
}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_convolve_blocks_is_convolve_over_the_last_link(case):
    x, y, n = BLOCK_CASES[case]
    if case in ("chain of four links", "all-zero block, negatives"):
        assert len(chain_links(x, n, PADDED_DEN)) >= 3
    if case == "odd-index-zero halves":
        assert len(chain_links(x, n, PADDED_DEN, 2 * _BLOCK)) >= 3
    nums, G = _convolve_blocks(x, y, n, PADDED_DEN)
    assert G == gcd(PADDED_DEN, *x[:n])
    assert [v * G for v in nums] == _convolve(x, y, n)
    assert all(type(v) is int for v in nums)


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_both_product_paths_give_the_same_series(case, monkeypatch):
    x, y, n = BLOCK_CASES[case]
    a = LaurentSeries.from_numerators(1, -2, x, PADDED_DEN)
    b = LaurentSeries.from_numerators(1, 1, y[:n], 3)
    blocks = []
    real = series._convolve_blocks

    def spy(*args):
        blocks.append(args)
        return real(*args)

    monkeypatch.setattr(series, "_convolve_blocks", spy)
    products = []
    for padded in (False, True):
        monkeypatch.setattr(series, "_padded", lambda x, den, padded=padded: padded)
        products += [a * b, b * a]
    # One call per product; the halves recurse through the helper once more.
    assert len(blocks) == (4 if case == "odd-index-zero halves" else 2)
    assert {args[3] for args in blocks} == {a.den}  # a has the larger den
    assert products[1:] == products[:1] * 3
    product = products[0]
    assert (product.n_min, product.N) == (-1, -1 + min(len(a.nums), len(b.nums)) - 1)
    assert product.coeffs == tuple(
        Fraction(c, a.den * b.den)
        for c in _convolve(a.nums, b.nums, product.N - product.n_min + 1)
    )


def test_only_a_padded_first_block_takes_the_block_path():
    # The first _BLOCK numerators must share more than _PADDING_BITS bits
    # with den.
    def padded(share):
        return [share * (-1) ** i * (i + 1) for i in range(_BLOCK)] + [1, 2, 3]

    big = 3**400  # 634 bits
    assert _padded(padded(big), big)
    assert _padded(padded(big), big * 5)
    assert not _padded(with_entry(padded(big), _BLOCK - 1, 2), big)
    assert _padded(with_entry(padded(big), _BLOCK, 2), big)  # past the first block
    assert _padded(padded(big)[:5], big)  # a list shorter than one block
    edge = 2 ** (_PADDING_BITS - 1)  # exactly _PADDING_BITS bits
    assert not _padded(padded(edge), edge)
    assert _padded(padded(2 * edge), 2 * edge)
    assert not _padded(padded(1), 1)


def forward_canonical(nums, den):
    """The canonical ``(nums, den)`` by one gcd read first to last."""
    g = gcd(den, *nums)
    return tuple(x // g for x in nums), den // g


def forward_content(nums):
    """``_primitive`` by one gcd read first to last, as a list."""
    c = gcd(*nums) or 1
    return c, [x // c for x in nums]


def content(nums):
    c, primitive = _primitive(nums)
    return c, list(primitive)


@pytest.mark.parametrize("r, N", [(96, 98), (12, 240)])
def test_last_first_gcds_of_r_equal_the_forward_ones(r, N, monkeypatch):
    # The numerators g/S hands to the canonical form are padded, as R's are.
    from modschwarz.solver import solve_ode

    res = solve_ode(r, N)
    raw = []
    real = LaurentSeries.from_numerators.__func__

    def spy(cls, m, n_min, nums, den=1):
        raw.append((list(nums), den))
        return real(cls, m, n_min, nums, den)

    monkeypatch.setattr(LaurentSeries, "from_numerators", classmethod(spy))
    q = res.g / res.S
    (nums, den), = raw
    assert gcd(den, *nums[:_BLOCK]).bit_length() > _PADDING_BITS
    assert (q.nums, q.den) == forward_canonical(nums, den)
    assert q * (-2) == res.R
    assert content(res.R.nums) == forward_content(res.R.nums)
    assert content(nums) == forward_content(nums)


def test_last_first_gcds_where_only_the_last_numerators_share_den():
    # Padding at the end: from there the running gcd starts at den and
    # falls to 7 only where the first numerators begin.
    share = 2**40 * 3**5
    den = 7 * share
    nums = [7 * (6 * i + 1) for i in range(2 * _BLOCK)]
    nums += [7 * share * (i + 2) for i in range(2 * _BLOCK)]
    assert [gcd(den, x) for x in (nums[0], nums[-1])] == [7, den]
    s = LaurentSeries.from_numerators(1, 0, nums, den)
    assert (s.nums, s.den) == forward_canonical(nums, den) == (s.nums, share)
    assert content(nums) == forward_content(nums) == (7, [x // 7 for x in nums])
    out, G = _convolve_blocks(nums, Y, len(nums), den)
    assert G == gcd(den, *nums) == 7
    assert [v * G for v in out] == _convolve(nums, Y, len(nums))


@st.composite
def pairing_st(draw):
    """A series on either lattice with a window of up to 8 terms from
    p^-4 on; zeros are drawn often, whole zero series included."""
    m = draw(st.sampled_from((1, 2)))
    n_min = draw(st.integers(min_value=-4, max_value=3))
    coeffs = st.one_of(st.just(Fraction(0)), small_fractions)
    return LaurentSeries(m, n_min, tuple(draw(st.lists(coeffs, min_size=1, max_size=8))))


@given(pairing_st(), pairing_st())
@example(L(1, -3, 1, 2, 3), L(1, 0, 1, 1))  # a*b known through p^-2
@example(L(1, 1, 2), L(2, 0, 5, 0, 7))  # a*b starts at p^1
@example(L(2, -3, 1, 0, 4, 0, 2), L(1, 1, 3, 5))  # mixed lattices
@settings(max_examples=150, deadline=None)
def test_constant_term_is_the_products_coefficient_at_zero(a, b):
    ab = a * b
    if ab.N < 0:
        with pytest.raises(UnknownCoefficient, match=f"through p\\^{ab.N}$"):
            _constant_term(a, b)
    else:
        assert _constant_term(a, b) == ab.coeff(0)
        assert _constant_term(b, a) == ab.coeff(0)


def test_constant_term_reads_only_the_known_window():
    # a = p^-3 + 2p^-2 + 3p^-1 + O(1) and b = 1 + p + O(p^2): a*b is known
    # through p^-2 only, though pairing the stored numerators would give 3.
    with pytest.raises(UnknownCoefficient, match="through p\\^-2$"):
        _constant_term(L(1, -3, 1, 2, 3), L(1, 0, 1, 1))
    # Known through p^0 and p^3, the two pair into the constant term 3.
    assert _constant_term(L(1, -3, 1, 2, 3, 0), L(1, 0, 1, 1, 0, 0)) == 3


# Integer contents above 1 for the divisor, a negative one included.
contents = st.sampled_from((1, 6, -35, 2**64 + 6))


@st.composite
def quotient_st(draw):
    """(a, b) for ``a / b``: mixed lattices, zero numerators, numerators
    longer and shorter than the divisor, divisors with content above 1
    and a negative lead, one-term windows, and numerators that are
    products of two series with content above 1, all drawn often."""

    def side(lead):
        m = draw(st.sampled_from((1, 2)))
        n_min = draw(st.integers(min_value=-4, max_value=3))
        size = draw(st.sampled_from((0, 0, 1, 4, 11)))
        rest = draw(st.lists(small_fractions, min_size=size, max_size=size))
        return LaurentSeries(m, n_min, (lead, *rest))

    b = side(draw(nonzero_fractions)) * draw(contents)
    kind = draw(st.sampled_from(("series", "zero", "product")))
    if kind == "zero":
        a = LaurentSeries.zero(draw(st.sampled_from((1, 2))), draw(st.integers(-4, 8)))
    elif kind == "product":
        a = (side(draw(nonzero_fractions)) * 6) * (side(draw(nonzero_fractions)) * 10)
    else:
        a = side(draw(small_fractions))
    return a, b


@given(quotient_st())
@example((L(1, 0, 1, 1), L(2, 0, 2, -4, 0, 8)))  # mixed lattices
@example((L(2, -1, 3, 0, 5), L(1, 1, -1, 2)))  # mixed lattices, numerator longer
@example((LaurentSeries.zero(1, 5), L(1, 2, 3, 4)))  # zero numerator
@example((L(1, 0, 1, 2, 3, 4, 5, 6), L(1, 0, 2, -4)))  # numerator longer
@example((L(1, -2, 7, 1), L(1, 0, 2, -4, 5, 0, 1)))  # numerator shorter
@example((L(1, 0, 1, 1, 1), L(1, 1, -35, 70, 105)))  # content 35, negative lead
@example((L(1, 3, 5), L(2, -1, -12)))  # one-term windows
@example((L(1, 0, 6, 12, -18) * L(1, -1, 10, 0, 20), L(1, 0, 4, 6, 8)))  # product
@settings(max_examples=150, deadline=None)
def test_truediv_matches_inverse(ab):
    a, b = ab
    q = a / b
    want = a * reference_inverse(b)
    assert_canonical(q)
    assert q == want
    x, y = _aligned(a, b)
    start = x.n_min - y.order
    assert q.N == start + min(len(x.nums), len(y.nums)) - 1
    if not a.is_zero():
        assert q.n_min == start


# ---------------------------------------------------------------------------
# the half path: inputs that vanish at every odd index
# ---------------------------------------------------------------------------


def reference_substitution(A: list[int], U: list[int], n: int) -> tuple[list[int], int]:
    """The forward substitution of ``_quotient`` run at every index, the
    zero steps included: the Q and D its half path must reproduce."""
    Q, D = [], 1
    for j in range(n):
        num = (A[j] * D if j < len(A) else 0) - sum(Q[i] * U[j - i] for i in range(j))
        c = gcd(num, U[0]) if U[0] > 0 else -gcd(num, U[0])
        Q = [x * (U[0] // c) for x in Q]
        D *= U[0] // c
        Q.append(num // c)
    return Q, D


def test_even_halves_needs_every_list_zero_at_every_odd_index():
    assert _even_halves(5, [1, 0, 2], [3, 0, 0, 0, 4]) == [[1, 2], [3, 0, 4]]
    assert _even_halves(5, [1, 0, 2], [3, 1]) is None
    assert _even_halves(1, [1], [3]) is None  # nothing left to halve


@given(
    st.lists(kernel_ints, min_size=1, max_size=20),
    st.lists(kernel_ints, min_size=1, max_size=20),
    st.sampled_from((0, 1)),
    st.sampled_from((0, 1, None)),
)
@example([1, 0, 2, 0, 3], [4, 0, 5], 0, 0)  # the half path
@example([0, 7, 0, 2**90], [3, 0, -1], 1, 0)  # odd offset times even
@settings(max_examples=60, deadline=None)
def test_convolve_on_one_parity_is_slice_of_product(a, b, a_offset, b_offset):
    # b_offset None keeps b dense: one sparse factor with one dense factor.
    a = one_parity(a, a_offset)
    if b_offset is not None:
        b = one_parity(b, b_offset)
    full = reference_product(a, b)
    for n in range(len(full) + 1):
        assert _convolve(a, b, n) == full[:n]


@given(
    st.lists(kernel_ints, min_size=1, max_size=20),
    st.lists(nonzero_kernel_ints, min_size=1, max_size=20),
    st.sampled_from((0, 1)),
    st.booleans(),
)
@example([5, 0, 3], [-6, 0, 4, 0, 9], 0, True)  # n = 5 and n = 4
@settings(max_examples=100, deadline=None)
def test_quotient_on_one_parity_keeps_the_dense_q_and_d(A, U, offset, dense_u):
    """The half path gives the Q and D of the substitution over every
    index, and Q/D times U gives back A."""
    A = one_parity(A, offset)
    if not dense_u:
        U = one_parity(U, 0)
    for n in {len(U), max(len(U) - 1, 1)}:
        Q, D = _quotient(A, U, n)
        assert (Q, D) == reference_substitution(A, U, n)
        padded = (A + [0] * n)[:n]
        assert reference_product(Q, U)[:n] == [x * D for x in padded]


# ---------------------------------------------------------------------------
# the packed pair: two products against one factor in one convolution
# ---------------------------------------------------------------------------


@given(
    st.integers(1, 300),
    st.integers(1, 40),
    st.lists(st.sampled_from((1, -1)), min_size=1, max_size=24),
    st.lists(kernel_ints, min_size=1, max_size=24),
    st.booleans(),
    st.data(),
)
@example(5, 3, [1] * 8, [-(2**90)] * 8, False, None)  # low at its bound, high < 0
@example(5, 3, [-1] * 9, [-1, 0, -7], True, None)  # the half path
@settings(max_examples=120, deadline=None)
def test_packed_convolution_splits_at_the_lemmas_width(x_bits, e_bits, signs, ys, half, data):
    # Every x is +-(2^x_bits - 1) and every e is 2^e_bits - 1, the most
    # each may be: the low sums reach 1/8 of the lemma's bound 2^(W - 1)
    # when the signs agree, and the high ones are drawn with either sign.
    xs = [sign * (2**x_bits - 1) for sign in signs]
    es = [2**e_bits - 1] * len(xs)
    if half:
        xs, ys, es = one_parity(xs, 0), one_parity(ys, 0), one_parity(es, 0)
    ys = (ys + [0] * len(xs))[: len(xs)]
    n = data.draw(st.integers(1, 2 * len(xs) - 1)) if data else 2 * len(xs) - 1
    W = _pack_width(x_bits, e_bits, len(es))
    low, high = _unpack(_convolve(_pack(xs, ys, W), es, n), W)
    assert (low, high) == (_convolve(xs, es, n), _convolve(ys, es, n))
    assert _unpack(_pack(xs, ys, W), W) == (xs, ys)
    assert max(map(abs, low)) < 2 ** (W - 1)
    if len(set(signs)) == 1 and not half and n >= len(xs):
        assert max(map(abs, low)) >= 2 ** (W - 4)


@st.composite
def packable_series_st(draw, m, parity):
    """A series on lattice m with numerators up to 2^90 of either sign,
    over a denominator up to 2^40; with ``parity`` (lattice 2), zero at
    every exponent of the other parity, so that the kernels halve it."""
    n_min = draw(st.integers(min_value=-6, max_value=6))
    nums = draw(st.lists(nonzero_kernel_ints, min_size=1, max_size=18))
    if parity:
        nums = one_parity(nums, 0)
    den = draw(st.integers(1, 2**40))
    return LaurentSeries.from_numerators(m, n_min, nums, den)


@st.composite
def pair_st(draw):
    m = draw(st.sampled_from((1, 2)))
    parity = m == 2 and draw(st.booleans())
    x, y = (draw(packable_series_st(m, parity)) for _ in range(2))
    if parity and (x.n_min - y.n_min) % 2:  # keep the packed list one parity
        y = LaurentSeries.from_numerators(m, y.n_min + 1, y.nums, y.den)
    e = draw(packable_series_st(m, parity))
    return x, y, e


@given(pair_st())
@example((
    LaurentSeries.from_numerators(2, -3, one_parity([2**90 - 1] * 9, 0), 7),
    LaurentSeries.from_numerators(2, 3, one_parity([-(2**90)] * 9, 0)),
    eisenstein(4, 20, 2),
))  # a solve's shape: y from p^size on, E4 on lattice 2, negative high half
@settings(max_examples=150, deadline=None)
def test_packed_pair_product_is_the_two_products(pair):
    x, y, e = pair
    assert _mul_pair(x, y, e) == (x * e, y * e)
    assert _mul_pair(y, x, e) == (y * e, x * e)


# ---------------------------------------------------------------------------
# the lazily scaled quotient: each q_i stays over its own denominator
# ---------------------------------------------------------------------------


def reference_steps(A: list[int], U: list[int], n: int) -> list[int]:
    """``D_j / D_(j-1)`` at each index j of the reference substitution."""
    Ds = [1] + [reference_substitution(A, U, j + 1)[1] for j in range(n)]
    return [b // a for a, b in zip(Ds, Ds[1:])]


# (A, U, the steps of the reference substitution at indices 0..n-1).
LAZY_CASES = {
    "lead 1, never rescales": (
        [2, 0, -1, 3, 5, -4, 0, 1], [1, -3, 5, 0, 7, 2, -1, 4], [1] * 8,
    ),
    "lead -1, never rescales": (
        [2, 0, -1, 3, 5, -4, 0, 1], [-1, -3, 5, 0, 7, 2, -1, 4], [1] * 8,
    ),
    "a rescale at every step": (
        [1, 0, 3], [7, 1, 0, 2, -5, 0, 3, 1, 1, 4], [7] * 10,
    ),
    "first rescale late, plain prefix and Horner tail mixed": (
        [3, 0, 0, 0, 1, 5, -7, 2, 0, 4, 9, -2],
        [3, 3, 0, 0, 0, 0, 0, 1, 0, 2, 6, 3],
        [1, 1, 1, 1, 3, 1, 1, 1, 1, 1, 1, 3],
    ),
    "negative lead, steps of two sizes": (
        [5, -1, 0, 2, 7, 3, -3, 1, 0, 8],
        [-6, 4, 9, 0, -2, 5, 1, 3, -7, 2],
        [6, 3] * 5,
    ),
}


@pytest.mark.parametrize("case", LAZY_CASES)
def test_lazily_scaled_quotient_keeps_the_reference_q_and_d(case):
    A, U, steps = LAZY_CASES[case]
    assert reference_steps(A, U, len(U)) == steps  # the regime the case names
    for n in range(1, len(U) + 1):
        assert _quotient(A, U, n) == reference_substitution(A, U, n), n


@pytest.mark.parametrize("r", [12, 47])
def test_quotient_of_the_relations_g_by_s_keeps_the_reference_q_and_d(r):
    """The real regime: the primitive numerators of a solve's g and S,
    where D grows at every step of the nonzero half."""
    from modschwarz.solver import minimum_order, solve_ode

    res = solve_ode(r, minimum_order(r))
    g, S, group = res.g, res.S, res.group
    n = min(len(g.nums), len(S.nums))
    _, A = _primitive(g.nums[:n])
    _, U = _primitive(S.nums[:n])
    A, U = list(A), list(U)
    steps = reference_steps(A, U, n)
    # For odd r, g and S are nonzero only at even indices of the window.
    assert all(s > 1 for s in steps[group.lattice::group.lattice])
    assert _quotient(A, U, n) == reference_substitution(A, U, n)


@st.composite
def one_parity_series_st(draw, lead):
    """A lattice-2 series whose exponents all have the parity of its
    n_min, which is odd or even."""
    n_min = draw(st.integers(min_value=-5, max_value=4))
    rest = draw(st.lists(small_fractions, min_size=0, max_size=16))
    return LaurentSeries(2, n_min, tuple(one_parity([draw(lead), *rest], 0)))


@given(
    one_parity_series_st(small_fractions),
    one_parity_series_st(nonzero_fractions),
)
@example(L(2, -3, 1, 0, 2, 0, -1), L(2, 3, 5, 0, 7))  # g/S: both odd exponents
@example(L(2, 0, 1, 0, 2, 0, -1), L(2, 1, 5, 0, 7, 0, 1))  # even over odd
@settings(max_examples=100, deadline=None)
def test_truediv_on_one_parity_matches_reference_inverse(a, b):
    q = a / b
    want = a * reference_inverse(b)
    assert_canonical(q)
    assert q == want


def test_json_round_trips_a_coefficient_of_5000_digits():
    # str(int) alone refuses more than 4300 digits by default; R's
    # numerators pass that near MAX_R.
    c = Fraction(-(10**4999 + 7), 3)
    s = LaurentSeries(1, -1, (c, 0, 1 / c))
    text = "1" + "0" * 4998 + "7"
    assert format_rational(c) == f"-{text}/3"
    d = json.loads(json.dumps(s.to_json_dict()))
    assert d["coeffs"] == {"-1": f"-{text}/3", "1": f"-3/{text}"}
    assert LaurentSeries.from_json_dict(d) == s
    assert str(s) == f"-{text}/3*p^-1 + -3/{text}*p + O(p^2)"


@pytest.mark.parametrize("sign", ["", "-"])
@pytest.mark.parametrize("length", [4300, 4301, 8601, 20011])
def test_parse_rational_reads_every_length_of_digits(length, sign):
    # 4300 digits is the default limit of int(str); past it the digits
    # are read in parts split at powers of ten.  A leading zero and a
    # zero run across a split point must survive.
    digits = "".join(str((7 * i * i + 3) % 10) for i in range(length - 1)) + "9"
    digits = digits[: length // 2 - 3] + "000000" + digits[length // 2 + 3 :]
    want = int(Decimal(sign + digits))
    assert parse_rational(sign + digits) == want
    assert parse_rational(f"{sign}{digits}/{digits}") == Fraction(want, abs(want))
    assert parse_rational(sign + "0" + digits[1:]) == int(Decimal(sign + "0" + digits[1:]))
    assert parse_rational(format_rational(Fraction(want, 7))) == Fraction(want, 7)


@pytest.mark.parametrize(
    "text",
    [
        "1" * 5000 + "e3",
        "_".join(["1" * 100] * 50),
        " " + "1" * 5000,
        "1" * 5000 + "\n",
        "-" + "1" * 5000 + ".0",
        "3/" + "1" * 5000 + "e3",
        "Infinity",
        "-Infinity",
        "+" + "1" * 5000,
        "--" + "1" * 5000,
    ],
    ids=[
        "exponent", "underscores", "whitespace", "newline", "point",
        "denominator", "infinity", "minus-infinity", "plus", "two-minuses",
    ],
)
def test_parse_rational_past_the_digit_limit_reads_only_digits(text):
    # Decimal would read each of these; a printed coefficient has none.
    with pytest.raises(ValueError):
        parse_rational(text)


def test_division_by_a_zero_series_names_its_window():
    zero = LaurentSeries(1, -2, (0, 0, 0, 0))
    message = (
        r"^cannot divide by a series that is zero through order 1, "
        r"its whole known window$"
    )
    with pytest.raises(ZeroLeadingCoefficient, match=message):
        L(1, 0, 1, 2) / zero
    with pytest.raises(ZeroLeadingCoefficient, match=message):
        zero.inverse()


def test_mul_restores_the_content_of_both_factors():
    a = L(1, 0, 6, 12, -18)
    b = L(2, -1, Fraction(10, 3), 0, 20)
    assert gcd(*a.nums) == 6 and gcd(*b.nums) == 10
    assert outcome(lambda: a * b) == ref_mul(ref(1, 0, a.coeffs), ref(2, -1, b.coeffs))


def test_pow_negative_and_zero():
    a = L(1, 1, 1, -24)
    assert (a**-1).matches(a.inverse(), min_overlap=2)
    assert (a**0).coeff(0) == 1


# ---------------------------------------------------------------------------
# theta operator and antiderivative
# ---------------------------------------------------------------------------


def test_theta_kills_constants():
    assert LaurentSeries.one(1, 5).theta().is_zero()


def test_theta_scales_pole_terms():
    a = LaurentSeries.from_terms(2, {-3: 7}, 0, n_min=-3)
    assert a.theta().coeff(-3) == -21


def test_theta_of_e4():
    assert E4_2.theta() == L(1, 0, 0, 240, 4320)


@given(series_st(), series_st())
@settings(max_examples=60, deadline=None)
def test_theta_is_a_derivation(a, b):
    lhs = (a * b).theta()
    rhs = a.theta() * b + a * b.theta()
    assert agree_on_the_shorter_window(lhs, rhs)


@given(series_st())
@settings(max_examples=60, deadline=None)
def test_antider_of_theta_recovers_up_to_constant(a):
    recovered = a.theta().theta_antider()
    shift = a.coeff(0) if a.n_min <= 0 <= a.N else Fraction(0)
    assert agree_on_the_shorter_window(recovered, a - shift)


def test_antider_requires_zero_constant_term():
    with pytest.raises(NonzeroConstantTerm):
        L(1, 0, 3, 240).theta_antider()


def test_antider_divides_by_exponent():
    a = L(1, 1, 240, -4320)
    assert a.theta_antider() == L(1, 1, 240, -2160)


def test_antider_of_zero():
    assert LaurentSeries.zero(1, 4).theta_antider().is_zero()


# ---------------------------------------------------------------------------
# alignment, windows
# ---------------------------------------------------------------------------


def test_align_doubles_exponents():
    aligned = E4_2.align(2)
    assert aligned.m == 2
    assert aligned.coeff(2) == 240 and aligned.coeff(4) == 2160
    assert aligned.coeff(1) == 0 and aligned.coeff(3) == 0
    assert aligned.N == 2 * (E4_2.N + 1) - 1


def test_align_to_same_lattice_is_identity():
    assert E4_2.align(1) is E4_2


def test_align_pole():
    inv_q = LaurentSeries.from_terms(1, {-1: 1}, 0, n_min=-1)
    assert inv_q.align(2).coeff(-2) == 1


def test_align_cannot_coarsen():
    a = LaurentSeries.one(2, 3)
    with pytest.raises(IncompatibleLattice):
        a.align(1)


# Steps 1 to 6 long, some with a zero step inside or in front.
STEP_LISTS = [
    [3], [0], [5, -2], [4, 0, 7], [0, 1, 0, -6], [2, 3, 0, 1, 9], [1, 0, 0, 2, 4, 6]
]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("start", [-5, 0, 3])
def test_on_lattice_is_the_composition_it_replaced(m, start):
    # The layout before ``_on_lattice``: the steps on lattice 1, spread to
    # lattice m, moved to start and cut at N.  ``align`` now lays out
    # through ``_on_lattice`` itself, so each coefficient is also checked
    # against the definition.
    for nums in STEP_LISTS:
        last = start + m * len(nums) - 1  # the last exponent the steps cover
        for den in (1, 6):
            for N in range(start - 3, last + 1):
                spread = LaurentSeries.from_numerators(1, 0, nums, den).align(m)
                moved = LaurentSeries.from_numerators(
                    m, spread.n_min + start, spread.nums, spread.den
                )
                old = moved.truncate(N)
                new = _on_lattice(nums, den, m, start, N)
                assert new == old and new.N == N
                for n in range(start - 3, N + 1):
                    k, off = divmod(n - start, m)
                    on_step = n >= start and off == 0
                    assert new.coeff(n) == (Fraction(nums[k], den) if on_step else 0)


def test_coeff_below_window_is_zero_above_raises():
    a = L(1, 0, 1, 2)
    assert a.coeff(-5) == 0
    with pytest.raises(UnknownCoefficient):
        a.coeff(3)


def test_mixed_lattice_ops_auto_align():
    one_q = L(1, 1, 5)          # 5q
    two_p = L(2, 2, 3)          # 3p^2 = 3q
    assert (one_q + two_p).coeff(2) == 8


# ---------------------------------------------------------------------------
# ring axioms (randomised)
# ---------------------------------------------------------------------------


@given(series_st(), series_st())
@settings(max_examples=60, deadline=None)
def test_add_commutes(a, b):
    assert (a + b) == (b + a)


@given(series_st(), series_st(), series_st())
@settings(max_examples=40, deadline=None)
def test_add_associates(a, b, c):
    assert ((a + b) + c) == (a + (b + c))


@given(series_st(), series_st())
@settings(max_examples=60, deadline=None)
def test_mul_commutes(a, b):
    assert (a * b) == (b * a)


@given(series_st(), series_st(), series_st())
@settings(max_examples=40, deadline=None)
def test_mul_associates(a, b, c):
    # The product knows as many coefficients as its shortest factor.
    overlap = min(map(width, (a, b, c)))
    assert ((a * b) * c).matches(a * (b * c), min_overlap=overlap)


@given(series_st(), series_st(), series_st())
@settings(max_examples=40, deadline=None)
def test_mul_distributes(a, b, c):
    assert agree_on_the_shorter_window(a * (b + c), a * b + a * c)


def test_recomputation_is_bit_identical():
    def pipeline():
        a = L(1, -1, 1, Fraction(1, 3), -2)
        return (a * a.inverse() + a.theta()).coeffs

    assert pipeline() == pipeline()


def test_floats_are_rejected():
    a = L(1, 0, 1)
    with pytest.raises(TypeError):
        a * 0.5
    with pytest.raises(TypeError):
        a + 0.5


def test_constructor_rejects_floats():
    with pytest.raises(TypeError):
        LaurentSeries(1, 0, (1, 0.5))
    with pytest.raises(TypeError):
        LaurentSeries.from_terms(1, {0: 0.5}, 2)


# ---------------------------------------------------------------------------
# integer representation: canonical form against a Fraction reference
# ---------------------------------------------------------------------------
# A reference value is a triple (m, n_min, coeffs) of Fractions, computed
# one coefficient at a time with the window rules of the module docstring.


def ref(m, n_min, coeffs):
    """The reference triple, leading zeros dropped (one coefficient kept)."""
    coeffs = [Fraction(c) for c in coeffs]
    while len(coeffs) > 1 and coeffs[0] == 0:
        coeffs.pop(0)
        n_min += 1
    return m, n_min, tuple(coeffs)


def ref_N(a):
    return a[1] + len(a[2]) - 1


def ref_coeff(a, n):
    return a[2][n - a[1]] if n >= a[1] else Fraction(0)


def ref_align(a, m):
    if a[0] == m:
        return a
    out = [Fraction(0)] * (2 * len(a[2]))
    out[::2] = a[2]
    return ref(m, 2 * a[1], out)


def ref_add(a, b, sign=1):
    m = max(a[0], b[0])
    a, b = ref_align(a, m), ref_align(b, m)
    lo, hi = min(a[1], b[1]), min(ref_N(a), ref_N(b))
    return ref(m, lo, [ref_coeff(a, n) + sign * ref_coeff(b, n) for n in range(lo, hi + 1)])


def ref_add_scalar(a, c):
    if c == 0 or ref_N(a) < 0:
        return a
    lo = min(a[1], 0)
    coeffs = [ref_coeff(a, n) + (c if n == 0 else 0) for n in range(lo, ref_N(a) + 1)]
    return ref(a[0], lo, coeffs)


def ref_scale(a, c):
    return ref(a[0], a[1], [x * c for x in a[2]])


def ref_mul(a, b):
    m = max(a[0], b[0])
    a, b = ref_align(a, m), ref_align(b, m)
    lo = a[1] + b[1]
    hi = min(ref_N(a) + b[1], ref_N(b) + a[1])
    coeffs = [
        sum((ref_coeff(a, i) * ref_coeff(b, n - i) for i in range(a[1], n - b[1] + 1)),
            Fraction(0))
        for n in range(lo, hi + 1)
    ]
    return ref(m, lo, coeffs)


def ref_inverse(a):
    if a[2][0] == 0:
        raise ZeroLeadingCoefficient
    unit = a[2]
    out = [1 / unit[0]]
    for k in range(1, len(unit)):
        out.append(-sum(unit[i] * out[k - i] for i in range(1, k + 1)) / unit[0])
    return ref(a[0], -a[1], out)


def ref_theta(a):
    return ref(a[0], a[1], [c * n for n, c in enumerate(a[2], a[1])])


def ref_theta_antider(a):
    if 0 <= ref_N(a) and ref_coeff(a, 0) != 0:
        raise NonzeroConstantTerm
    return ref(a[0], a[1], [c / n if n else c for n, c in enumerate(a[2], a[1])])


def ref_truncate(a, N):
    if N >= ref_N(a):
        return a
    if N < a[1]:
        return ref(a[0], N, [0])
    return ref(a[0], a[1], a[2][: N - a[1] + 1])


def assert_canonical(s):
    """Plain ints, den > 0, gcd(den, *nums) == 1, no leading zero."""
    assert all(type(x) is int for x in (s.den, *s.nums))
    assert s.den > 0
    assert gcd(s.den, *s.nums) == 1
    assert s.nums[0] != 0 or len(s.nums) == 1


def outcome(fn, *args):
    """A result as its (m, n_min, coeffs) triple, or the error it raised."""
    try:
        out = fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)
    if isinstance(out, LaurentSeries):
        assert_canonical(out)
        return out.m, out.n_min, out.coeffs
    return out


# Each operation on series a, b, scalar c and integer k, then its reference.
OPERATIONS = {
    "constructor": (lambda a, b, c, k: a, lambda a, b, c, k: a),
    "add": (lambda a, b, c, k: a + b, lambda a, b, c, k: ref_add(a, b)),
    "sub": (lambda a, b, c, k: a - b, lambda a, b, c, k: ref_add(a, b, -1)),
    "add scalar": (lambda a, b, c, k: a + c, lambda a, b, c, k: ref_add_scalar(a, c)),
    "rsub scalar": (
        lambda a, b, c, k: c - a,
        lambda a, b, c, k: ref_add_scalar(ref_scale(a, -1), c),
    ),
    "neg": (lambda a, b, c, k: -a, lambda a, b, c, k: ref_scale(a, -1)),
    "mul": (lambda a, b, c, k: a * b, lambda a, b, c, k: ref_mul(a, b)),
    "mul scalar": (lambda a, b, c, k: a * c, lambda a, b, c, k: ref_scale(a, c)),
    "div scalar": (
        lambda a, b, c, k: a / c,
        lambda a, b, c, k: ref_scale(a, 1 / Fraction(c)),
    ),
    "square": (lambda a, b, c, k: a**2, lambda a, b, c, k: ref_mul(a, a)),
    "inverse": (lambda a, b, c, k: a.inverse(), lambda a, b, c, k: ref_inverse(a)),
    "theta": (lambda a, b, c, k: a.theta(), lambda a, b, c, k: ref_theta(a)),
    "theta_antider": (
        lambda a, b, c, k: a.theta_antider(),
        lambda a, b, c, k: ref_theta_antider(a),
    ),
    "align": (lambda a, b, c, k: a.align(2), lambda a, b, c, k: ref_align(a, 2)),
    "truncate": (
        lambda a, b, c, k: a.truncate(k),
        lambda a, b, c, k: ref_truncate(a, k),
    ),
    "matches": (
        lambda a, b, c, k: a.matches(b, min_overlap=0),
        lambda a, b, c, k: not any(ref_add(a, b, -1)[2]),
    ),
}

rationals = st.one_of(
    st.just(0),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.fractions(min_value=-50, max_value=50, max_denominator=36),
)


@st.composite
def series_spec_st(draw):
    """(m, n_min, coeffs) with leading zeros, common factors and mixed
    denominators all drawn often."""
    m = draw(st.sampled_from((1, 2)))
    n_min = draw(st.integers(min_value=-4, max_value=3))
    coeffs = draw(st.lists(rationals, min_size=1, max_size=9))
    scale = draw(st.sampled_from((1, 1, 6, Fraction(1, 10))))
    return m, n_min, [c * scale for c in coeffs]


@pytest.mark.parametrize("name", OPERATIONS)
@given(
    a=series_spec_st(),
    b=series_spec_st(),
    c=rationals,
    k=st.integers(min_value=-6, max_value=8),
)
@settings(max_examples=40, deadline=None)
def test_every_operation_is_canonical_and_equals_the_fraction_reference(name, a, b, c, k):
    op, reference = OPERATIONS[name]
    got = outcome(op, LaurentSeries(*a), LaurentSeries(*b), c, k)
    want = outcome(reference, ref(*a), ref(*b), c, k)
    assert got == want


@given(
    spec=series_spec_st(),
    k=st.integers(min_value=1, max_value=10**6),
    c=rationals.filter(lambda c: c != 0),
)
@settings(max_examples=80, deadline=None)
def test_equal_values_built_by_different_routes_are_equal(spec, k, c):
    m, n_min, coeffs = spec
    a = LaurentSeries(m, n_min, coeffs)
    routes = [
        LaurentSeries(m, n_min - 2, (0, 0, *coeffs)),
        LaurentSeries.from_terms(m, dict(enumerate(coeffs, n_min)), a.N, n_min=n_min),
        LaurentSeries.from_numerators(m, a.n_min, [x * k for x in a.nums], a.den * k),
        LaurentSeries.from_numerators(m, a.n_min, [-x for x in a.nums], -a.den),
        LaurentSeries.from_json_dict(a.to_json_dict()),
        a * c / c,
        (a + c) - c,
        -(-a),
        a * LaurentSeries.one(m, a.N - a.n_min),
        pickle.loads(pickle.dumps(a)),
        copy.copy(a),
        copy.deepcopy(a),
    ]
    for b in routes:
        assert_canonical(b)
        assert b == a
        assert hash(b) == hash(a)


def test_a_series_is_frozen_and_keeps_its_repr():
    a = L(1, -1, 3, 0, Fraction(1, 2))
    for field in ("m", "n_min", "nums", "den"):
        with pytest.raises(AttributeError):
            setattr(a, field, 2)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert a == L(1, -1, 3, 0, Fraction(1, 2))
    assert repr(a) == "LaurentSeries(m=1, n_min=-1, nums=(6, 0, 1), den=2)"


# ---------------------------------------------------------------------------
# serialization and rendering
# ---------------------------------------------------------------------------


def test_json_round_trip():
    a = LaurentSeries.from_terms(2, {-2: Fraction(1, 3), 0: -7, 3: 2}, 6)
    d = a.to_json_dict()
    assert d["coeffs"] == {"-2": "1/3", "0": "-7", "3": "2"}
    assert LaurentSeries.from_json_dict(d) == a


def test_format_rational_canonical():
    assert format_rational(Fraction(-270)) == "-270"
    assert format_rational(Fraction(9, 4)) == "9/4"


def test_str_rendering():
    assert str(L(1, -1, 1, -24)) == "1*p^-1 + -24 + O(p^1)"
