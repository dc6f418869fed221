"""The fault table: each way to break a solve, paired with the check that
must name it.  One injector puts a faulty series in place of what one step
of ``solve_ode`` outputs: one coefficient off, or a window one coefficient
short or over.  One runner verifies with the fault on r = 3 (lattice 2) and
r = 12 (lattice 1), cold and, where the faulty step still runs there, as an
extension of a stored solve, and asserts the error, its full message and
the store afterwards.  The identities behind the certificate, on faulty
series, follow the table."""

import io
import json
from fractions import Fraction
from typing import NamedTuple

import pytest

from modschwarz import cli, modforms, series, solver
from modschwarz.modforms import eisenstein, ramanujan_residuals, sigma
from modschwarz.series import LaurentSeries, format_rational
from modschwarz.solver import CROSS_RATIO_MIN_OVERLAP, minimum_order, n0_for, solve_ode

from oracles import separate_parts, wronskian
from test_solve_store import entries
from test_work_census import block_calls

# r -> (the order of the stored solve an extension continues, the order verified)
ORDERS = {3: (60, 90), 12: (60, 90), 64: (66, 76)}


class At(NamedTuple):
    """The exponents of the solves of r at ``ORDERS[r]``: g and S end at M
    and R at NR, and those of the stored solve at M0 and NR0."""

    r: int
    N: int
    size: int
    m: int
    a: int
    M: int
    NR: int
    M0: int
    NR0: int

    @classmethod
    def of(cls, r: int) -> "At":
        (N0, N), size, m = ORDERS[r], -n0_for(r), 1 + r % 2
        return cls(r, N, size, m, 2 // m, N + 3 * size + 4, N + 4, N0 + 3 * size + 4, N0 + 4)

    def __call__(self, expr: str, **names):
        """The value of ``expr`` in these exponents and ``names``."""
        return eval(expr, {}, {**self._asdict(), **names})


class Row(NamedTuple):
    fault: str
    target: str  # the series ``inject`` makes faulty; "X g" is g in both passes
    edit: str  # how (``edited``)
    check: str  # the check that must name it: a certificate part or a key of ``MESSAGES``
    named: str  # the exponent it names, in the fields of ``At``
    value: str | None = None  # the coefficient it names (the compare: the short build's)
    parts: str | None = None  # the certificate parts the faulty series leave nonzero
    modes: tuple = ("cold",)
    rs: tuple = (3, 12)


BOTH = ("cold", "extension")
ROWS = [
    Row("X", "X", "off -1", "compare", "-1", "X[0] + 1"),
    Row("X-in-both-passes", "X g", "off -1", "compare", "m - 1"),
    Row("short-below-size", "short", "off size // 2", "compare", "size // 2"),
    Row("short-at-size", "short", "off size", "compare", "size + m"),
    Row("short-above-size", "short", "off size + 5", "compare", "size + 5"),
    Row("g-at-size", "g", "off size", "compare", "size"),
    Row("g-first", "g", "off -size", "compare", "-size", "1"),
    Row("t0", "t0", "twice", "compare", "-size", "2"),
    Row("t", "t", "off 1", "compare", "2 - size"),
    Row("E4-q5-everywhere", "sigma", "q 5", "compare", "{3: 7, 12: 1}[r]"),
    Row("lambda", "S", "twice", "delta", "size", "r * lam", "delta"),
    Row("S-first", "S", "off size", "ODE", "size + m", "-240 * r**2", "ODE delta"),
    Row("S-first-added", "S", "off M0 + m", "ODE", "M0 + m", "(a * (M0 + m))**2 - r**2",
        "ODE delta", BOTH),
    Row("S-last", "S", "off M", "ODE", "M", "(a * M)**2 - r**2", "ODE delta", BOTH),
    Row("g-first-added", "g", "off M0 + m", "delta", "M0 + m", "r**2 - (a * (M0 + m))**2",
        "delta", BOTH),
    Row("g-last", "g", "off M", "delta", "M", "r**2 - (a * M)**2", "delta", BOTH),
    Row("E4-past-the-stored", "E4", "off M0 + size + m", "ODE", "M0 + 2 * size + m", None,
        "ODE delta", BOTH),
    Row("R-first", "R", "off -2 * size", "division", "-size", "lam", "division", rs=(3, 12, 64)),
    Row("R-block-boundary", "R", f"off {series._BLOCK} - 2 * size", "division",
        f"{series._BLOCK} - size", "lam", "division", rs=(64,)),
    Row("R-first-added", "R", "off NR0 + m", "division", "NR0 + m + size", "lam", "division", BOTH),
    Row("R-last", "R", "off NR", "division", "NR + size", "lam", "division", BOTH, (3, 12, 64)),
    Row("S-headless", "S", "headless", "first solution", "size + m"),
    Row("Wronskian-zero", "w", "zero", "Wronskian", "0", parts="", modes=BOTH),
    Row("g-short", "g", "short", "window", "M - 1", modes=BOTH),
    Row("S-short", "S", "short", "window", "M - 1", modes=BOTH),
    Row("R-short", "R", "short", "window", "NR - 1", parts="", modes=BOTH),
    Row("R-over", "R", "over", "window", "NR + m", parts="", modes=BOTH),
    Row("E4-q40-everywhere", "sigma", "q 40", "identities", "40"),
]

# The messages of the checks that are not parts of the certificate.
MESSAGES = {
    "compare": "g by the recurrence {where}: coefficient at p^{e} is {g}, "
    "the short modular build gives {v}",
    "first solution": "first solution has no term at p^{size} {where}: "
    "S has order {e}, wanted {size}",
    "window": "{target} has window p^{lo}..p^{e} {where}, wanted p^{lo}..p^{want}",
    "Wronskian": "Wronskian is zero {where}: coefficient 0 at p^0",
    "identities": None,  # the solve passes
}


def edited(edit: str, at: At):
    """The function that makes a series faulty: one coefficient off by 1,
    doubled, one coefficient short or over, or without its leading term;
    or that zeroes the Wronskian's constant."""
    kind, _, e = edit.partition(" ")
    term = LaurentSeries.from_terms
    return {
        "off": lambda x: x + term(x.m, {at(e): 1}, x.N),
        "twice": lambda x: x * 2,
        "short": lambda x: x.truncate(x.N - 1),
        "over": lambda x: LaurentSeries.from_numerators(
            x.m, x.n_min, (*x.nums, *[0] * (x.m - 1), x.den), x.den
        ),  # 1 at p^(N + m)
        "headless": lambda x: x - term(x.m, {x.order: x.leading_coefficient}, x.N),
        "zero": lambda w: Fraction(0),
    }[kind]


def inject(monkeypatch, row: Row, at: At) -> dict:
    """Make every solve from now on take the faulty series in place of
    ``row.target`` where a step outputs it: X from the head pass; g, S and
    the E4 it reads from the full pass; the short build, and t0 and t as
    it reads them; R; the Wronskian's constant.  "sigma" puts E4 off by 240
    at q^e for every consumer.  Return the last output of each step."""
    seen, edit = {}, None
    if row.target == "sigma":
        q = int(row.edit.split()[1])
        monkeypatch.setattr(modforms, "sigma", lambda k, n: sigma(k, n) + (k == 3 and n == q))
    else:
        edit = edited(row.edit, at)

    def put(name, x):
        seen[name] = edit(x) if name in row.target.split() else x
        return seen[name]

    real_pass, real_inverse = solver.relation_series, LaurentSeries.inverse
    real_result = solver.SolveResult

    def passes(r, e4, M, g_size=0, start=None):
        if M < 0:
            g, S = real_pass(r, e4, M, g_size, start)
            return put("X", g), S
        g, S = real_pass(r, put("E4", e4), M, g_size, start)
        return put("g", g), put("S", S)

    def divides(self, numerator=1, known=None):
        q = real_inverse(self, numerator, known)
        return put("R", q) if self.order > 0 else q  # not the short build's divisions

    def result(**fields):
        return real_result(**{**fields, "wronskian": put("w", fields["wronskian"])})

    monkeypatch.setattr(solver, "relation_series", passes)
    monkeypatch.setattr(LaurentSeries, "inverse", divides)
    monkeypatch.setattr(solver, "SolveResult", result)
    for attr, name in (("build_g", "short"), ("seed_t0", "t0"), ("hauptmodul", "t")):
        real = getattr(solver, attr)
        monkeypatch.setattr(solver, attr, lambda *a, real=real, name=name: put(name, real(*a)))
    return seen


def reference_parts(seen: dict, clean) -> dict:
    """The three parts of the certificate on the faulty g, S and R, each
    from its own products (``oracles.separate_parts`` and ``__mul__``)."""
    res = clean._replace(g=seen["g"], S=seen["S"], R=seen.get("R", clean.R))
    ode, delta = separate_parts(res)
    return {"ODE": ode, "delta": delta, "division": res.R * res.S + res.g * 2}


def expected(row: Row, at: At, seen: dict, clean) -> str:
    """The full message the row's check must give."""
    where, e = f"for r={at.r} at order {at.N}", at(row.named)
    v = None if row.value is None else at(row.value, lam=clean.S.leading_coefficient, X=clean.X)
    if row.check in MESSAGES:
        fields = dict(where=where, e=e, size=at.size, target=row.target)
        if row.check == "compare":
            v = seen["short"].coeff(e) if v is None else v
            fields.update(g=format_rational(seen["g"].coeff(e)), v=format_rational(v))
        if row.check == "window":
            fields.update(lo=seen[row.target].n_min, want=at.NR if row.target == "R" else at.M)
        return MESSAGES[row.check].format(**fields)
    part = reference_parts(seen, clean)[row.check]
    assert part.order == e and v in (None, part.coeff(e))
    v = format_rational(part.coeff(e))
    return f"{row.check} residual nonzero {where}: coefficient {v} at p^{e}"


def verify(r: int, N: int) -> tuple[int, str, str]:
    """``modschwarz verify`` in this process: exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(["verify", "--r", str(r), "--order", str(N)], out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def clear_generators():
    for gen in vars(modforms).values():
        if hasattr(gen, "cache_clear"):
            gen.cache_clear()


@pytest.fixture
def fresh_generators():
    """No generator cache holds an expansion built before or with a fault."""
    clear_generators()
    yield
    clear_generators()


@pytest.mark.parametrize(
    "row, r, mode",
    [
        pytest.param(row, r, mode, id=f"{row.fault}-r{r}-{mode}")
        for row in ROWS
        for r in row.rs
        for mode in row.modes
    ],
)
def test_a_fault_is_named_by_its_check(row, r, mode, monkeypatch, fresh_generators):
    at = At.of(r)
    prev = solve_ode(r, ORDERS[r][0]) if mode == "extension" else None
    seen = inject(monkeypatch, row, at)
    code, out, err = verify(r, at.N)
    if row.check == "identities":
        # E4 off by 240 at q^40 everywhere: the solve reads the fault and is
        # consistent with it, so it passes; only the identities name it.
        assert code == 0 and json.loads(out)["pass"] is True
        assert seen["E4"].coeff(40 * at.m) == 240 * (sigma(3, 40) + 1)
        orders = [x.order for x in ramanujan_residuals(at.N).values()]
        assert orders == [None, 40, 40, 40]  # theta(Delta), theta(E2), theta(E4), theta(E6)
        return
    assert (code, out) == (1, "")
    # A failed cold solve stores nothing; a failed extension keeps the entry.
    assert entries() == ({} if prev is None else {r: prev})
    assert prev is None or entries()[r] is prev
    monkeypatch.undo()
    clear_generators()
    clean = solve_ode(r, at.N)
    assert clean.schwarz_residual_zero and entries()[r] is clean
    error = "MatchFailure" if row.check == "compare" else "ResidualNonzero"
    assert json.loads(err)["error"] == {"type": error, "message": expected(row, at, seen, clean)}
    if row.parts is not None:
        parts = reference_parts(seen, clean)
        assert [name for name, x in parts.items() if not x.is_zero()] == row.parts.split()


def test_the_table_expects_every_check_a_solve_makes():
    # A new part of the certificate, or a new check, needs a row.
    parts = [name for name, _ in solve_ode(1, minimum_order(1)).certificate()]
    assert {row.check for row in ROWS} == {*parts, *MESSAGES}


@pytest.mark.parametrize("r", [3, 12])
@pytest.mark.parametrize(
    "fault", ["S-first", "S-middle", "S-last", "S-twice", "g-past-the-overlap", "g-last"]
)
def test_the_parts_of_a_faulty_pass_are_two_products_and_abels_identity_holds(r, fault):
    # The ODE and delta parts take g*E4 and S*E4 from one packed product;
    # on a faulty g or S they are still the parts two products give, and
    # theta(w) = (2/a)*(S*delta + g*E) for the Wronskian series w.
    clean = solve_ode(r, 40)
    g, S, size, m, M = clean.g, clean.S, -clean.n0, clean.m, clean.S.N
    e = {"S-first": size, "S-middle": size + (M - size) // 2 // m * m, "S-last": M,
         "g-past-the-overlap": size + CROSS_RATIO_MIN_OVERLAP + m, "g-last": M}.get(fault)
    edit = edited("twice" if fault == "S-twice" else f"off {e}", At.of(r))
    g, S = (g, edit(S)) if fault[0] == "S" else (edit(g), S)
    ode, delta = solver._ode_and_delta(r, g, S, eisenstein(4, M + size, m), -size)
    assert (ode, delta) == separate_parts(clean._replace(g=g, S=S))
    theta_w = wronskian(g, S).theta()
    assert (theta_w - (S * delta + g * ode) * m).is_zero()
    if fault == "S-last":  # S*delta starts past p^M: theta(w) = 2*g*E/a, at p^(M - size) alone
        assert theta_w == g * ode * m and (theta_w.n_min, theta_w.N) == (M - size, M - size)
    if fault == "S-twice":  # delta(g, 2S) = a*theta(S), and w = 2*w(0) + 2*S^2
        assert (delta - clean.S.theta() * (2 // m)).is_zero()
        assert (wronskian(g, S) - 2 * clean.wronskian).order == 2 * size


@pytest.mark.parametrize(
    "r, where", [(3, "last"), (64, "first"), (64, "block boundary"), (64, "last")]
)
def test_the_division_part_of_a_faulty_r_is_r_times_s_plus_2g(r, where, monkeypatch):
    # The part's rows are integers formed without ``__mul__``; on a faulty
    # R they are still R*S + 2g, and at r = 64 they take the block path.
    clean = solve_ode(r, minimum_order(r))
    e = {"first": 0, "block boundary": series._BLOCK, "last": len(clean.R.nums) - 1}[where]
    R = edited(f"off {clean.R.n_min + e}", At.of(r))(clean.R)
    calls = block_calls(monkeypatch)
    part = solver._division_part(R, clean.S, clean.g, R.n_min + clean.S.n_min)
    assert calls == ([R.den] if r == 64 else [])
    assert part == R * clean.S + clean.g * 2 and part.order == R.n_min + e + clean.S.order
