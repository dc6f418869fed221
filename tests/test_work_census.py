"""The work census: what each entry point of the package computes, read
off the calls it makes.

A solve of r on an empty store makes a head pass of the ODE's coefficient
relation, one short modular build, one pass through M, one packed pair
g*E4, S*E4, one division -2g/S and one product R*S; an extension of a
stored solve makes only the rows past it, and a cut makes none.  ``spy``
wraps a function or method of the package and records each call's bound
arguments and the spied calls that enclose it.  Each row of ``ROWS``
pairs entry points with a function and what its calls must be; each entry
point runs once per case with the functions of its rows spied.  A
completeness test finds every integer dot-product kernel and asks that a
row or ``UNCALLED`` names it.  ``test_fault_table`` takes its block-path
spy from here."""

import ast
import functools
import inspect
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, NamedTuple

import pytest

import modschwarz
from modschwarz import modforms, numeric, series, solver
from modschwarz.cli import build_parser
from modschwarz.modforms import Group, eisenstein, hauptmodul
from modschwarz.numeric import check_equivariance, check_schwarz_numeric, generators_for
from modschwarz.series import LaurentSeries
from modschwarz.solver import (
    CROSS_RATIO_MIN_OVERLAP,
    SolveResult,
    build_B,
    build_g,
    classify_theta_cross_ratio,
    minimum_order,
    n0_for,
    solve_eigen,
    solve_ode,
)


class Call(NamedTuple):
    args: dict  # the bound arguments, defaults applied
    within: tuple  # the names of the spied calls under way, outermost first


def spy(monkeypatch, name: str, record, stack: list) -> None:
    """Wrap ``name``, a function or method of the package such as
    "series.LaurentSeries.inverse", until ``monkeypatch`` undoes it: each
    call gives ``record`` its ``Call``, then runs with its name on
    ``stack``."""
    owner, attr = name.rsplit(".", 1)
    owner = functools.reduce(getattr, owner.split("."), modschwarz)
    real = getattr(owner, attr)
    signature = inspect.signature(real)

    def spied(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        record(Call(bound.arguments, tuple(stack)))
        stack.append(attr)
        try:
            return real(*args, **kwargs)
        finally:
            stack.pop()

    monkeypatch.setattr(owner, attr, spied)


def block_calls(monkeypatch) -> list[int]:
    """The denominators of the products that take the block path of
    ``LaurentSeries.__mul__`` or of the division part from now on, one per
    call of its helper."""
    dens = []
    spy(monkeypatch, "series._convolve_blocks", lambda call: dens.append(call.args["den"]), [])
    return dens


def label(x, c):
    """x, or its name where it is the solve the entry point returned (res)
    or one of its series (g, S, R), or the stored solve or one of its
    series (res0, g0, S0, R0)."""
    for suffix, res in (("", c.res), ("0", getattr(c, "prev", None))):
        if isinstance(res, SolveResult):
            for name, y in (("res", res), ("g", res.g), ("S", res.S), ("R", res.R)):
                if x is y:
                    return name + suffix
    return tuple(label(y, c) for y in x) if type(x) is tuple else x


def outside(calls: list, names: str) -> list:
    """The calls that no spied call among ``names`` encloses."""
    return [call for call in calls if not set(names.split()) & set(call.within)]


def args(*names: str):
    """What a row sees: each call's arguments ``names``, labelled."""

    def seen(calls, c):
        out = [label(tuple(call.args[n] for n in names), c) for call in calls]
        return [x for (x,) in out] if len(names) == 1 else out

    return seen


def count(calls, c) -> int:
    return len(calls)


def multiples_of_s(calls, c) -> set[bool]:
    """For each series added, whether it is a nonzero rational multiple of
    S on S's window."""
    S = c.res.S

    def multiple(x):
        return (
            not x.is_zero()
            and (x.m, x.n_min, x.N) == (S.m, S.n_min, S.N)
            and all(a * S.nums[0] == b * x.nums[0] for a, b in zip(x.nums, S.nums))
        )

    assert multiple(S * Fraction(-2, 3))  # the test can see one
    operands = [x for call in calls for x in call.args.values() if isinstance(x, LaurentSeries)]
    return set(map(multiple, operands))


def tables(calls, c) -> tuple[int, int, int]:
    """The tables the cache of ``numeric._doubles`` built, the reads it
    served from them and the tables it holds."""
    info = c.cache.cache_info()
    return info.misses, info.hits, info.currsize


class Row(NamedTuple):
    entries: tuple  # keys of ``ENTRIES``
    function: str  # the function spied, as ``spy`` names it
    seen: Callable  # (its calls, the entry's context) -> what they show
    want: Callable  # the context -> what they must show


def solving(r: int, N: int, N0: int | None = None):
    """A solve of r at order N on the store a solve at N0 leaves: cold
    without N0, an extension below N and a cut above.  ``done`` is the
    last row of g and S the store certified, ``added`` the rows past it."""
    size = -n0_for(r)
    prev = None if N0 is None else solve_ode(r, N0)
    c = SimpleNamespace(r=r, size=size, m=1 + r % 2, group=Group.for_r(r), M=N + 3 * size + 4)
    c.prev, c.done = prev, -size - 1 if prev is None else prev.S.N
    c.added = max(c.M - c.done, 0)
    c.short = 2 * size + CROSS_RATIO_MIN_OVERLAP - 1  # the short build's budget
    return c, lambda: solve_ode(r, N)


def building(r: int):
    c = SimpleNamespace(X=solve_eigen(build_B(r)), N=40)
    return c, lambda: build_g(c.X, Group.for_r(r), c.N)


def checking(r: int):
    """Both equivariance checks and the Schwarzian check of one solve, on
    an empty table cache."""
    res = solve_ode(r, 60)
    numeric._doubles.cache_clear()
    c = SimpleNamespace(cache=numeric._doubles, e4=eisenstein(4, max(res.R.N, 4), res.m))

    def run():
        for _, gamma in generators_for(res.group):
            assert check_equivariance(res, gamma)["pass"]
        assert check_schwarz_numeric(res)["pass"]
        return res

    return c, run


def sweep():
    """The 24 solves of the ``sweep`` workload, r = 1..12 at 60 and then at
    90 (an extension), and (2, 360)."""
    for r, N in [(r, N) for N in (60, 90) for r in range(1, 13)] + [(2, 360)]:
        solve_ode(r, N)


def parsing():
    build_parser.cache_clear()
    return SimpleNamespace(), lambda: build_parser() is build_parser()


def plain(run):
    return lambda *case: (SimpleNamespace(), lambda: run(*case))


RS = (1, 2, 3, 4, 12)  # both lattices; P is a constant at r = 1, 2
ENTRIES = {  # name -> (cases, the context and the call the rows see)
    "cold": ([(r, N) for r in RS for N in (minimum_order(r), 90)], solving),
    "extension": ([(r, 90, 60) for r in RS], solving),
    "cut": ([(r, 60, 90) for r in RS], solving),
    "build_g": ([(r,) for r in range(1, 5)], building),
    "cross-ratio": ([(40,)], plain(classify_theta_cross_ratio)),
    "checks": ([(r,) for r in range(1, 5)], checking),
    "wide": ([(64, 66), (96, 98)], plain(solve_ode)),
    "sweep": ([()], plain(sweep)),
    "parser": ([()], parsing),
}

COLD, GROWS, SOLVES = ("cold",), ("cold", "extension"), ("cold", "extension", "cut")
INVERSE = "series.LaurentSeries.inverse"
ROWS = [
    # A cold solve: X from the head pass through p^-1, then one pass that
    # carries the short build's coefficient at p^size; an extension
    # resumes that pass past the stored g and S.
    Row(COLD, "solver.relation_series", args("M", "g_size", "start"),
        lambda c: [(-1, 0, None), (c.M, c.res.g.coeff(c.size), None)]),
    Row(("extension",), "solver.relation_series", args("M", "g_size", "start"),
        lambda c: [(c.M, 0, ("g0", "S0"))]),
    # The short build, at the order the compare needs whatever N is; t
    # and t0 asked for once, at its budget, and t built once.
    Row(COLD, "solver.build_g", args("X", "group", "N"),
        lambda c: [(c.res.X, c.group, c.size + CROSS_RATIO_MIN_OVERLAP)]),
    Row(("extension",), "solver.build_g", count, lambda c: 0),
    Row(COLD, "solver.hauptmodul", args("N"), lambda c: [c.short]),
    Row(COLD, "solver.seed_t0", args("N"), lambda c: [c.short]),
    Row(COLD, "modforms.j1728", args("N"), lambda c: [c.short] * (c.m == 1)),
    Row(COLD, "modforms.eta_power", args("exponent", "N"), lambda c: [(-24 // c.m, c.short)]),
    # X and S come off the pass: no matrix B, no eigen-solve, no integration.
    *(Row(SOLVES, name, count, lambda c: 0)
      for name in ("solver.build_B", "solver.solve_eigen", "series.LaurentSeries.theta_antider")),
    # The short build divides twice, -theta(t) by E4 for t0 and 1 by t cut
    # to p^size for its residue pairings; past it the one division is -2g/S.
    Row(COLD, INVERSE, args("self", "numerator", "known"), lambda c: [
        (eisenstein(4, c.short + 1, c.m), -hauptmodul(c.group, c.short).theta(), None),
        (hauptmodul(c.group, c.size), 1, None),
        ("S", c.res.g * -2, None),
    ]),
    Row(("extension",), INVERSE, args("self", "numerator", "known"),
        lambda c: [("S", c.res.g * -2, "R0")]),
    Row(GROWS, "series._quotient", lambda calls, c: [
        (call.args["n"], len(call.args["q"])) for call in outside(calls, "build_g _quotient")
    ], lambda c: [(len(c.res.R.nums), 0 if c.prev is None else len(c.prev.R.nums))]),
    # Past the short build no product takes two series: g and S meet E4
    # once, as one packed pair, and R*S is the rows of the division part,
    # each from its first row past the stored windows.
    Row(SOLVES, "series.LaurentSeries.__mul__", lambda calls, c: [
        label((call.args["self"], call.args["other"]), c)
        for call in outside(calls, "build_g") if isinstance(call.args["other"], LaurentSeries)
    ], lambda c: []),
    Row(GROWS, "solver._mul_pair", args("x", "y", "e", "start"),
        lambda c: [("g", "S", eisenstein(4, c.M + c.size, c.m), c.done + 1)]),
    Row(GROWS, "solver._division_part", args("R", "S", "g", "lo"),
        lambda c: [("R", "S", "g", c.done - 2 * c.size + 1)]),
    Row(GROWS, "series._convolve", lambda calls, c: max(
        call.args["n"] - call.args["start"] for call in calls), lambda c: c.added),
    # The residuals add series, and none is a multiple of S: the pass
    # carries the modular g, so no multiple of S is added after it.
    Row(GROWS, "series.LaurentSeries.__add__", multiples_of_s, lambda c: {False}),
    # A solve that adds rows passes and is stored; a cut leaves the
    # longer solve in the store.
    Row(SOLVES, "solver._publish", lambda calls, c: (
        args("res")(calls, c), label(solve_ode.cache_entries()[c.r][0], c),
        c.res.certificate_failure(),
    ), lambda c: (["res"], "res", None) if c.added else ([], "res0", None)),
    # A solve at or below the stored order is the stored one cut.
    *(Row(("cut",), name, count, lambda c: 0) for name in (
        "solver.relation_series", "solver.build_g", "series._quotient",
        "series._convolve", "solver._mul_pair", "solver._division_part")),
    # The tables of h', h'' and h''' are read off R in one call; the
    # equivariance checks evaluate R 20 times and the Schwarzian check E4
    # 5 times, so the cache builds two tables and reads them 23 times.
    Row(("checks",), "numeric._h_derivatives", args("result"), lambda c: ["res"]),
    Row(("checks",), "numeric._doubles", args("series"), lambda c: ["R"] * 20 + [c.e4] * 5),
    Row(("checks",), "numeric._doubles", tables, lambda c: (2, 23, 2)),
    # t at its budget N + len(X) - 1, also where P is a constant; the
    # residue pairings cut it, one constant term per coefficient of P.
    Row(("build_g",), "solver.hauptmodul", args("N"), lambda c: [c.N + len(c.X) - 1]),
    Row(("build_g",), "solver._constant_term", count, lambda c: len(c.X)),
    # The cross-ratio, mu and the two inverses of ``anharmonic_images``.
    Row(("cross-ratio",), INVERSE, count, lambda c: 4),
    # R's numerators carry much of its denominator at their start: R*S
    # takes the block path at (64, 66) and (96, 98).  For the solves of
    # ``sweep`` the blocks' extra calls would cost more than the padding
    # they take out, or there is none.
    Row(("wide",), "series._convolve_blocks", args("den"), lambda c: [c.res.R.den]),
    Row(("sweep",), "series._convolve_blocks", args("den"), lambda c: []),
    # The one parser of the process, subparsers included: built on first
    # use, then shared.
    Row(("parser",), "cli._Parser.__init__", args("prog"), lambda c: [
        "modschwarz",
        *(f"modschwarz {cmd}" for cmd in ("series", "solve", "verify", "examples", "identities")),
    ]),
    Row(("parser",), "cli._Parser.__init__", lambda calls, c: c.res, lambda c: True),
]

# The integer dot-product kernels that no entry point above calls.
UNCALLED = {
    "solver.frobenius_oracle": "the independent check of S; the tests and the benchmark run it",
}


def clear_generators():
    for gen in vars(modforms).values():
        if hasattr(gen, "cache_clear"):
            gen.cache_clear()


@pytest.mark.parametrize(
    "entry, case",
    [
        pytest.param(entry, case, id="-".join([entry, *map(str, case)]))
        for entry, (cases, _) in ENTRIES.items()
        for case in cases
    ],
)
def test_an_entry_point_makes_the_calls_of_its_rows(entry, case, monkeypatch):
    c, run = ENTRIES[entry][1](*case)
    rows = [row for row in ROWS if entry in row.entries]
    calls = {name: [] for name in [row.function for row in rows] + list(UNCALLED)}
    stack = []
    clear_generators()
    with monkeypatch.context() as patch:
        for name, seen in calls.items():
            spy(patch, name, seen.append, stack)
        c.res = run()
    for row in rows:
        assert row.seen(calls[row.function], c) == row.want(c), row.function
    assert [name for name in UNCALLED if calls[name]] == []


def test_every_dot_product_kernel_is_in_the_census():
    # A function whose body forms sum(map(mul, ...)) needs a row, or a
    # place on UNCALLED with its reason.
    kernels = {
        node.name
        for module in (series, solver, modforms)
        for node in ast.walk(ast.parse(inspect.getsource(module)))
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(n, ast.Call) and ast.unparse(n).startswith("sum(map(mul, ")
            for n in ast.walk(node)
        )
    }
    named = {name.rsplit(".", 1)[1] for name in [row.function for row in ROWS] + list(UNCALLED)}
    assert kernels <= named
    assert {name.rsplit(".", 1)[1] for name in UNCALLED} <= kernels
