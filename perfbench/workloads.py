"""The benchmark workloads and the checks applied to every output.

A workload is a fixed set of calls into the package's public functions;
the seed only sets their order.  Every call is one operation: it is timed
into ``solve`` or ``verify`` on the session's ``Clock`` (scaled by the host
speed, see ``clock.py``), and its output is checked untimed.  An
operation fails when the program raises, refuses (``TailTooLarge``) or
returns an output that does not check out; only refusals leave the run
``correct``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from clock import Clock

# (r, order) pairs solved through ``cli.run(["solve", ...])``.
DEEP = ((2, 360), (3, 300), (12, 240))
# Large r at minimum_order(r) = 2*|n0| + 2.
WIDE = ((47, 96), (64, 66), (96, 98))
SWEEP_ORDERS = (60, 90)
SWEEP_R = tuple(range(1, 13))
SWEEP_CLI = (
    ("examples", "--r", "1"),
    ("examples", "--r", "2"),
    ("examples", "--r", "3"),
    ("examples", "--r", "4"),
    ("identities", "--order", "120"),
)
WORKLOADS = ("deep", "wide", "sweep")

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def solve_cases(workload: str) -> tuple[tuple[int, int], ...]:
    """Every (r, order) the workload solves."""
    if workload == "deep":
        return DEEP
    if workload == "wide":
        return WIDE
    return tuple((r, N) for N in SWEEP_ORDERS for r in SWEEP_R)


def digest_key(r: int, N: int) -> str:
    return f"{r},{N}"


def solve_json(cli, r: int, N: int) -> tuple[int, str]:
    """Exit code and stdout of ``solve --r r --order N --format json``."""
    out = io.StringIO()
    rc = cli.run(["solve", "--r", str(r), "--order", str(N), "--format", "json"], out=out)
    return rc, out.getvalue()


class CheckFailed(Exception):
    """An output of the program is wrong."""


@contextlib.contextmanager
def _no_span(name):
    yield {}


class Session:
    """One worker's pass over a workload: totals, counts and problems."""

    def __init__(self, modules, digests: dict[str, str], recorder=None, clock=None):
        self.cli = modules.cli
        self.numeric = modules.numeric
        self.series = modules.series
        self.solver = modules.solver
        self.digests = digests
        self.span = recorder.span if recorder is not None else _no_span
        self.clock = clock if clock is not None else Clock()
        self.attempted = 0
        self.refused = 0
        self.wrong = 0
        self.problems: list[str] = []
        self.outputs: dict[str, str] = {}  # digest of every solve output

    @property
    def failed(self) -> int:
        return self.refused + self.wrong

    def op(self, kind: str, label: str, call, check):
        """Time ``call()`` into ``kind``, then check its value untimed.

        Returns what ``check`` returns, or None if the operation failed.
        """
        self.attempted += 1
        with self.span("bench." + kind) as span:
            start = self.clock.now()
            try:
                value = call()
            except self.numeric.TailTooLarge as exc:
                self.refused += 1
                self.problems.append(f"refused {label}: {exc}")
                return None
            except Exception as exc:
                self.wrong += 1
                self.problems.append(f"error {label}: {type(exc).__name__}: {exc}")
                return None
            finally:
                self.clock.book(kind, start)
            try:
                return check(value, span)
            except CheckFailed as exc:
                self.wrong += 1
                self.problems.append(f"wrong {label}: {exc}")
                return None

    def skip(self, label: str, count: int) -> None:
        """Count checks that could not run because their input failed."""
        self.attempted += count
        self.wrong += count
        self.problems.append(f"skipped {count} checks of {label}")

    # -- checks ---------------------------------------------------------

    def check_solution(self, r: int, N: int, text: str):
        """Digest and residual flags of one ``solve --format json`` output."""
        digest = hashlib.sha256(text.encode()).hexdigest()
        self.outputs[digest_key(r, N)] = digest
        if digest != self.digests.get(digest_key(r, N)):
            raise CheckFailed(f"solve output digest {digest[:12]} differs")
        doc = json.loads(text)
        if doc["ode_residual_zero"] is not True or doc["schwarz_residual_zero"] is not True:
            raise CheckFailed("a residual flag is not true")
        return doc

    def check_oracle(self, r: int, S) -> None:
        """The normalised S equals the Frobenius solution on S's full window."""
        label = f"oracle r={r} N={S.N}"

        def check(oracle, span):
            lead = S.leading_coefficient
            same = (
                S.n_min == oracle.n_min
                and S.N == oracle.N
                and all(c == lead * o for c, o in zip(S.coeffs, oracle.coeffs))
            )
            if not same:
                raise CheckFailed("normalised S differs from frobenius_oracle")
            return True

        self.op("verify", label, lambda: self.solver.frobenius_oracle(r, S.N), check)

    # -- units of work --------------------------------------------------

    def cli_solve(self, r: int, N: int) -> None:
        """``solve --format json`` through the CLI, then the oracle check."""
        label = f"solve r={r} N={N}"

        def check(result, span):
            rc, text = result
            if rc != 0:
                raise CheckFailed(f"exit code {rc}")
            span["json_bytes"] = len(text.encode())
            doc = self.check_solution(r, N, text)
            return self.series.LaurentSeries.from_json_dict(doc["S"])

        S = self.op("solve", label, lambda: solve_json(self.cli, r, N), check)
        if S is None:
            self.skip(label, 1)
        else:
            self.check_oracle(r, S)

    def library_solve(self, r: int, N: int) -> None:
        """``solve_ode`` plus its JSON, then the oracle and numeric checks."""
        label = f"solve r={r} N={N}"
        numeric = self.numeric

        def call():
            res = self.solver.solve_ode(r, N)
            return res, json.dumps(res.to_json_dict(), sort_keys=True, indent=2) + "\n"

        def check(result, span):
            res, text = result
            self.check_solution(r, N, text)
            return res

        res = self.op("solve", label, call, check)
        generators = numeric.generators_for(self.solver.Group.for_r(r))
        if res is None:
            self.skip(label, 2 + len(generators))
            return
        self.check_oracle(r, res.S)
        for name, gamma in generators:
            self.op(
                "verify",
                f"equivariance {name} r={r} N={N}",
                lambda: numeric.check_equivariance(res, gamma),
                _check_pass,
            )
        self.op(
            "verify",
            f"schwarzian r={r} N={N}",
            lambda: numeric.check_schwarz_numeric(res),
            _check_pass,
        )

    def cli_text(self, argv: tuple[str, ...]) -> None:
        """A text command whose every line must be free of FAIL."""

        def call():
            out = io.StringIO()
            return self.cli.run(list(argv), out=out), out.getvalue()

        def check(result, span):
            rc, text = result
            bad = [line for line in text.splitlines() if line.startswith("FAIL")]
            if rc != 0 or bad:
                raise CheckFailed(f"exit code {rc}, {len(bad)} FAIL lines")
            return True

        self.op("verify", " ".join(argv), call, check)


def _check_pass(report, span) -> bool:
    if report["pass"] is not True:
        raise CheckFailed(f"max residual {report['max_residual']:.3e}")
    return True


def run(workload: str, seed: int, session: Session) -> None:
    """Execute every call of the workload in the order the seed sets."""
    rng = random.Random(seed)
    if workload in ("deep", "wide"):
        cases = list(solve_cases(workload))
        rng.shuffle(cases)
        for r, N in cases:
            session.cli_solve(r, N)
        return
    if workload != "sweep":
        raise ValueError(f"unknown workload {workload!r}")
    for N in SWEEP_ORDERS:
        rs = list(SWEEP_R)
        rng.shuffle(rs)
        for r in rs:
            session.library_solve(r, N)
    calls = list(SWEEP_CLI)
    rng.shuffle(calls)
    for argv in calls:
        session.cli_text(argv)
