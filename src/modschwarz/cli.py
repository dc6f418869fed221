"""Command-line front end: series printing, solving, verification,
reference examples and the exact identity suite.

Every call pays for importing this module.  ``closed_forms`` (the paper's
r = 1..4 literals, ``CLAIMS`` and their decision in ``ring``) serves
``examples`` alone, so only that command imports it."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .modforms import (
    CATALOG,
    delta,
    delta_from_eisenstein,
    eisenstein,
    jacobi_residual,
    ramanujan_residuals,
)
from .numeric import check_equivariance, check_schwarz_numeric, generators_for
from .series import format_rational
from .solver import (
    CROSS_RATIO_MIN_OVERLAP,
    MAX_ORDER,
    MAX_R,
    MatchFailure,
    ResidualNonzero,
    classify_theta_cross_ratio,
    j_cross_ratio_matches,
    minimum_order,
    solve_ode,
)

_JSON_KW = {"sort_keys": True, "indent": 2}

# The r that ``closed_forms.CLAIMS`` covers, without importing it.
EXAMPLE_RS = (1, 2, 3, 4)


class UsageError(Exception):
    """Invalid command-line arguments; reported as JSON with exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: built on first use, then shared,
    since parsing leaves it as it was."""
    parser = _Parser(
        prog="modschwarz",
        description=(
            "Exact quasi-modular solutions of y'' + pi^2 r^2 E4 y = 0 and "
            "equivariant solutions of {h,tau} = 2 pi^2 r^2 E4."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("series", help="print a catalog q-expansion")
    p.add_argument("name", choices=tuple(CATALOG))
    p.add_argument("--order", type=int, default=40)
    p.add_argument("--lattice", type=int, choices=(1, 2), default=None,
                   help="re-express on this lattice (only refinement 1 -> 2)")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("solve", help="run the construction for one r")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--order", type=int, default=40)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify", help="re-run the exact residual checks")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--order", type=int, default=40)
    p.add_argument("--numeric", action="store_true",
                   help="also check equivariance and the Schwarzian numerically")
    p.add_argument("--tolerance", type=float, default=1e-6)

    p = sub.add_parser("examples", help="compare against the reference closed forms")
    p.add_argument("--r", type=int, required=True, choices=EXAMPLE_RS)
    p.add_argument("--order", type=int, default=40)

    p = sub.add_parser("identities", help="Ramanujan, Jacobi and cross-ratio suite")
    p.add_argument("--order", type=int, default=40)

    return parser


def _error_json(exc: Exception) -> str:
    return json.dumps(
        {"error": {"type": type(exc).__name__, "message": str(exc)}},
        **_JSON_KW,
    )


def _validate(args) -> None:
    """Reject arguments that no command could honour (raises UsageError)."""
    if getattr(args, "r", None) is not None:
        if args.r < 1:
            raise UsageError("--r must be >= 1")
        if args.r > MAX_R:
            raise UsageError(f"--r must be <= {MAX_R}")
        if args.order < minimum_order(args.r):
            raise UsageError(f"--order must be >= {minimum_order(args.r)} for r={args.r}")
    if args.order > MAX_ORDER:
        raise UsageError(f"--order must be <= {MAX_ORDER}")
    if args.command == "series" and args.order < 0:
        raise UsageError("--order must be >= 0")
    if args.command == "identities" and args.order < CROSS_RATIO_MIN_OVERLAP:
        raise UsageError(f"--order must be >= {CROSS_RATIO_MIN_OVERLAP} for identities")
    if args.command == "verify" and not (
        math.isfinite(args.tolerance) and args.tolerance > 0
    ):
        raise UsageError("--tolerance must be a positive finite number")


def _cmd_series(args, out) -> int:
    weight, build = CATALOG[args.name]
    series = build(args.order)
    if args.lattice is not None:
        if args.lattice % series.m:
            raise UsageError(
                f"--lattice {args.lattice} would coarsen {args.name}, "
                f"which lives on lattice {series.m}"
            )
        series = series.align(args.lattice)
    if args.format == "json":
        doc = {"name": args.name, "weight": weight, **series.to_json_dict()}
        print(json.dumps(doc, **_JSON_KW), file=out)
    else:
        print(f"{args.name} (weight {weight}, p = q^(1/{series.m})):", file=out)
        print(f"  {series}", file=out)
    return 0


def _cmd_solve(args, out) -> int:
    res = solve_ode(args.r, args.order)
    if args.format == "json":
        print(json.dumps(res.to_json_dict(), **_JSON_KW), file=out)
        return 0
    print(f"r = {res.r}  group = {res.group.value}  lattice m = {res.m}  "
          f"n0 = {res.n0}", file=out)
    print(f"X = ({', '.join(format_rational(x) for x in res.X)})", file=out)
    print(f"g  = {res.g}", file=out)
    print(f"F1 = (i*pi)^1 * ({res.S})", file=out)
    print(f"h - tau = (i*pi)^-1 * ({res.R})", file=out)
    print("c/u = 0", file=out)  # the cusp value, 0 for every r
    print(f"ode residual zero: {res.ode_residual.is_zero()}", file=out)
    print(f"schwarzian residual zero: {res.schwarz_residual_zero}", file=out)
    print(f"trusted order: {res.trusted_order}", file=out)
    return 0


def _cmd_verify(args, out) -> int:
    res = solve_ode(args.r, args.order)  # raises ResidualNonzero on failure
    report = {
        "r": res.r,
        "order": args.order,
        "ode_residual_zero": res.ode_residual.is_zero(),
        "schwarz_residual_zero": res.schwarz_residual_zero,
        "trusted_order": res.trusted_order,
    }
    ok = report["ode_residual_zero"] and report["schwarz_residual_zero"]
    if args.numeric:
        numeric = {}
        for name, gamma in generators_for(res.group):
            sub = check_equivariance(res, gamma, args.tolerance)
            numeric[f"equivariance_{name}"] = sub
            ok = ok and sub["pass"]
        sch = check_schwarz_numeric(res, args.tolerance)
        numeric["schwarzian"] = sch
        ok = ok and sch["pass"]
        report["numeric"] = numeric
    report["pass"] = ok
    print(json.dumps(report, **_JSON_KW), file=out)
    return 0 if ok else 1


def _check(out, failures: list, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{tag} {name}{suffix}", file=out)
    if not ok:
        failures.append(name)


def _cmd_examples(args, out) -> int:
    from . import closed_forms

    res = solve_ode(args.r, args.order)
    failures: list[str] = []

    for claim, ok in closed_forms.verdicts(res):
        _check(out, failures, claim.label, ok)
        if claim.note:
            print(f"NOTE {claim.note}", file=out)

    _check(out, failures, "ode residual is the zero series",
           res.ode_residual.is_zero())
    _check(out, failures, "schwarzian residual is the zero series",
           res.schwarz_residual_zero)
    return 1 if failures else 0


def _cmd_identities(args, out) -> int:
    N = args.order
    failures: list[str] = []

    residuals = [
        (f"ramanujan {name}", res) for name, res in ramanujan_residuals(N).items()
    ]
    residuals.append(("jacobi theta2^4+theta4^4-theta3^4", jacobi_residual(N)))
    for name, residual in residuals:
        # The residual "lhs-rhs" is reported as the identity "lhs=rhs".
        v = residual.order
        detail = (
            "" if v is None
            else f"coefficient {format_rational(residual.coeff(v))} at p^{v}"
        )
        _check(out, failures, name.replace("-", "=", 1), v is None, detail)

    _check(out, failures, "eta product Delta == (E4^3-E6^2)/1728",
           delta(N).matches(delta_from_eisenstein(N), min_overlap=N))

    pad = N + 6
    _check(out, failures, "cross-ratio [tau,h_E4,h_Delta,h_E6] == E4^3/(1728*Delta)",
           j_cross_ratio_matches(eisenstein(4, pad), delta(pad), eisenstein(6, pad), N))

    label, _ = classify_theta_cross_ratio(N)
    _check(out, failures,
           f"cross-ratio [tau,h_theta2,h_theta3,h_theta4] == {label} "
           f"of mu = theta2^4/theta3^4", True)

    return 1 if failures else 0


def run(argv: list[str], out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    dispatch = {
        "series": _cmd_series,
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "examples": _cmd_examples,
        "identities": _cmd_identities,
    }
    try:
        args = build_parser().parse_args(argv)
        _validate(args)
        return dispatch[args.command](args, out)
    except SystemExit as exc:  # --help
        return exc.code if isinstance(exc.code, int) else 2
    except UsageError as exc:
        print(_error_json(exc), file=err)
        return 2
    except (ResidualNonzero, MatchFailure, ArithmeticError, ValueError, LookupError) as exc:
        print(_error_json(exc), file=err)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
